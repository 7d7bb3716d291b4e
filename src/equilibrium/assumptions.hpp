#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/configuration.hpp"
#include "core/enumerate.hpp"
#include "core/game.hpp"

/// \file assumptions.hpp
/// The two hypotheses of Section 4, as executable checkers.
///
/// *Assumption 1 (Never alone):* in any configuration, every coin mined by
/// at most one miner is a better response for some miner. Holds in practice
/// when miners vastly outnumber coins; checking it exactly requires a walk
/// of the whole configuration space, so the exact checker is bounded.
///
/// *Assumption 2 (Generic game):* for all coins c ≠ c' and miner subsets
/// P, P': F(c)/Σ_P m_p ≠ F(c')/Σ_{P'} m_p. Exact verification enumerates
/// the 2^n−1 nonempty subset sums, so it is likewise bounded.

namespace goc {

/// Counterexample to Assumption 1: in configuration `s`, coin `coin` has at
/// most one miner and nobody improves by moving there.
struct NeverAloneViolation {
  Configuration s;
  CoinId coin;

  std::string to_string() const;
};

/// Checks Assumption 1 *at one configuration*: every coin with
/// |P_c(s)| ≤ 1 is a better response for some miner. Returns the violated
/// coin if any.
std::optional<CoinId> never_alone_violation_at(const Game& game,
                                               const Configuration& s);

/// Exhaustive Assumption 1 check (throws std::invalid_argument when the
/// full space exceeds `max_configs` / `opts.max_configs`). Runs on the
/// symmetry-reduced parallel engine: violations are orbit-invariant, so
/// canonical representatives suffice, and the returned witness is the
/// first violating *canonical* configuration in canonical odometer order —
/// deterministic at any thread count, though not necessarily the first
/// violation in full odometer order. Returns nullopt when the assumption
/// holds.
std::optional<NeverAloneViolation> find_never_alone_violation(
    const Game& game, std::uint64_t max_configs = 1u << 22);
std::optional<NeverAloneViolation> find_never_alone_violation(
    const Game& game, const EnumerationOptions& opts);

/// Counterexample to Assumption 2: F(c)·sum' == F(c')·sum for nonempty
/// subset sums `sum`, `sum'`.
struct GenericityViolation {
  CoinId c;
  CoinId c_prime;
  Rational subset_sum;        ///< Σ_P m_p for the c side
  Rational subset_sum_prime;  ///< Σ_{P'} m_p for the c' side

  std::string to_string() const;
};

/// Exact Assumption 2 check by subset-sum enumeration. Throws
/// std::invalid_argument when n > max_miners (2^n sums). Returns a
/// violation witness, or nullopt when the game is generic.
std::optional<GenericityViolation> find_genericity_violation(
    const Game& game, std::size_t max_miners = 20);

/// True iff the game satisfies Assumption 2 (wrapper over the above).
bool is_generic(const Game& game, std::size_t max_miners = 20);

}  // namespace goc
