#pragma once

#include <cstdint>
#include <vector>

#include "core/game.hpp"
#include "util/rng.hpp"

/// Integer games at the edge of the comparator's int64 tier: with
/// M_tot = Σ m_p and K_max = max_c F(c), `MoveComparator::narrow_mode` (and
/// with it the int64 enumeration walk) holds iff M_tot·K_max ≤ INT64_MAX.
/// These games put that product just below or just above the limit, so a
/// bound that is off by any margin overflows signed int64 — which the
/// ASan+UBSan lane turns into a hard failure.

namespace goc::testing {

/// `miners` powers near 2^40 (uniform in [2^39, 2^40), every second miner
/// repeating its predecessor so symmetry classes are non-trivial). One
/// random coin pays K_max = ⌊INT64_MAX / M_tot⌋, plus 1 when `above`; the
/// others pay uniformly in [K_max/2, K_max].
inline Game int64_bound_game(Rng& rng, std::size_t miners, std::size_t coins,
                             bool above) {
  std::vector<std::int64_t> powers;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < miners; ++i) {
    const std::int64_t power =
        i % 2 == 1 ? powers.back()
                   : rng.uniform_int(std::int64_t{1} << 39,
                                     (std::int64_t{1} << 40) - 1);
    powers.push_back(power);
    total += power;
  }
  const std::int64_t k_max = INT64_MAX / total + (above ? 1 : 0);
  const std::size_t top = static_cast<std::size_t>(rng.next_below(coins));
  std::vector<std::int64_t> rewards;
  for (std::size_t c = 0; c < coins; ++c) {
    rewards.push_back(c == top ? k_max : rng.uniform_int(k_max / 2, k_max));
  }
  return Game(System::from_integer_powers(powers, coins),
              RewardFunction::from_integers(rewards));
}

}  // namespace goc::testing
