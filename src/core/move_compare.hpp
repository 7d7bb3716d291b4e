#pragma once

#include <compare>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/configuration.hpp"
#include "core/game.hpp"
#include "util/int128.hpp"
#include "util/rational.hpp"

/// \file move_compare.hpp
/// The index-backed fast path for better-response comparisons.
///
/// `core/moves.*` is the *scan-based reference*: it evaluates full payoffs
/// with normalized `Rational` arithmetic (GCD on every operation). The hot
/// loop only ever needs *orderings* of post-move payoffs of one miner, and
/// for miner p those reduce to comparing F(a)/(M_a + m_p) against
/// F(b)/(M_b + m_p) — a cross-multiplication. When every power is an
/// integer (all generators emit integers), masses are integers too and the
/// comparison is two raw integer multiplies with no `Rational`
/// construction and no GCD.
///
/// Rewards need not be integers for that to work: orderings are invariant
/// under scaling all rewards by one positive constant, so any reward set
/// with integer powers is rescaled at construction to a common denominator
/// L = lcm_c(den(F(c))) and compared through the integer numerators
/// K_c = F(c)·L. This is what keeps the market epoch engine on the integer
/// path — its weights are `Rational::from_double` quantizations whose
/// denominators all divide the quantization denominator.
///
/// `compare` and `stable` decide in one of three tiers, chosen per game
/// from its numbers (never from an option):
///
///  1. **int64, unchecked** (`narrow_mode`). Every denominator they form
///     is at most M_tot = Σ m_p (a coin's mass, or another coin's mass
///     plus m_p) and every numerator at most K_max = max_c K_c. When
///     M_tot·K_max ≤ INT64_MAX — checked in `i128` by `refresh` — every
///     cross product is exact in int64, so this tier needs no overflow
///     check. It is inline here so the index's rescans inline it.
///  2. **i128, overflow-checked** (`fast_mode` beyond the bound).
///  3. **`Rational`**: non-integer powers, reward sets whose rescaling
///     would overflow, and any product that overflows tier 2.
///
/// Every tier is exact — bit-for-bit the decision the reference scan
/// makes — so which one runs changes speed, never a result.
///
/// The same fast path also orders *gains across miners* (`compare_gains`,
/// tiers 2 and 3), which is what the gain-extremal schedulers need. Every
/// overflow that hands a decision to `Rational` bumps the `obs` counter
/// `core.compare.exact_fallbacks`; the integer tiers record nothing.

namespace goc {

/// Slow path of `compare_fractions<i128>`: exact comparison through
/// `Rational` (whose <=> never overflows). Counts one
/// `core.compare.exact_fallbacks`.
std::strong_ordering compare_fractions_exact(i128 a_num, i128 a_den, i128 b_num,
                                             i128 b_den);

/// Exact comparison of a_num/a_den vs b_num/b_den for nonnegative
/// numerators and positive denominators — the shared primitive of the
/// comparator and the enumeration engine's integer walk, inline because it
/// sits in every engine inner loop. `Int = std::int64_t` is the unchecked
/// tier: exact only when the caller has proven every cross product fits
/// (the bound behind `MoveComparator::narrow_mode`). `Int = i128` is the
/// overflow-checked tier: two raw multiplies, with the exact `Rational`
/// fallback when a cross product overflows.
template <typename Int>
inline std::strong_ordering compare_fractions(Int a_num, Int a_den, Int b_num,
                                              Int b_den) {
  if constexpr (std::is_same_v<Int, std::int64_t>) {
    return a_num * b_den <=> b_num * a_den;
  } else {
    static_assert(std::is_same_v<Int, i128>, "int64 or i128 only");
    i128 lhs, rhs;
    if (!mul_overflow(a_num, b_den, &lhs) &&
        !mul_overflow(b_num, a_den, &rhs)) {
      return lhs <=> rhs;
    }
    return compare_fractions_exact(a_num, a_den, b_num, b_den);
  }
}

/// Exact post-move payoff comparisons for a fixed game, on the integer
/// tiers described above whenever the game allows. Holds a reference to
/// the game; the configuration is passed per call so one comparator serves
/// an evolving trajectory.
class MoveComparator {
 public:
  explicit MoveComparator(const Game& game);

  /// Re-derives the comparison tier and the rescaled reward numerators
  /// from the game's *current* rewards, reusing the existing storage (no
  /// allocation). Must be called after `Game::reweight` changed the reward
  /// function under this comparator; `BestResponseIndex::reweight` does.
  void refresh();

  /// True when every power and reward is an integer (K_c = F(c)).
  bool integer_mode() const noexcept { return integer_mode_; }

  /// True when comparisons run on an integer tier: integer powers and
  /// rewards rescalable to integers by a common positive factor (a strict
  /// superset of `integer_mode`).
  bool fast_mode() const noexcept { return fast_mode_; }

  /// True when `compare` and `stable` run on unchecked int64: fast mode
  /// and M_tot·K_max ≤ INT64_MAX. In integer mode the same bound makes
  /// the enumeration engine's integer walk exact in int64.
  bool narrow_mode() const noexcept { return narrow_; }

  /// Compares miner p's payoff after unilaterally moving to `c1` vs `c2`
  /// (either may equal s.of(p), meaning "stay put" — the current payoff).
  /// Exact: equals comparing `game.payoff_if_move` results, without the
  /// Rational construction on the integer tiers. Coins must be mineable
  /// by p.
  std::strong_ordering compare(const Configuration& s, MinerId p, CoinId c1,
                               CoinId c2) const {
    GOC_DASSERT(p.value < s.num_miners() && c1.value < s.num_coins() &&
                    c2.value < s.num_coins(),
                "compare: miner or coin out of range");
    if (c1 == c2) return std::strong_ordering::equal;
    if (narrow_) return compare_integer<std::int64_t>(s, p, c1, c2);
    return compare_wide(s, p, c1, c2);
  }

  /// Compares the gain of miner p moving to `tp` against the gain of miner
  /// q moving to `tq` — exactly `move_gain(game, s, p, tp) <=>
  /// move_gain(game, s, q, tq)`. On the fast path, with x = s.of(p),
  /// D_t = M_t + m_p (D_x = M_x) and rewards as their numerators K_c,
  ///   gain(p→t)·L = m_p·(K_t·M_x − K_x·D_t) / (D_t·M_x),
  /// and the two fractions are cross-multiplied with overflow-checked
  /// `i128`; on overflow the two `move_gain` Rationals decide. Either
  /// target may be the miner's current coin (gain 0); coins must be
  /// mineable by their miner.
  std::strong_ordering compare_gains(const Configuration& s, MinerId p,
                                     CoinId tp, MinerId q, CoinId tq) const;

  /// True iff moving to `c` strictly improves p's payoff (c != s.of(p) and
  /// p may mine c are the caller's responsibility to pre-check, as the
  /// index does; `is_better_response` in moves.hpp is the checked
  /// reference).
  bool improves(const Configuration& s, MinerId p, CoinId c) const {
    return compare(s, p, c, s.assignment()[p.value]) > 0;
  }

  /// True iff p has no better response in s — `is_stable` without a single
  /// `Rational` temporary on the integer tiers. Access-aware (skips coins
  /// p may not mine) and exits on the first improving coin.
  bool stable(const Configuration& s, MinerId p) const {
    GOC_DASSERT(p.value < s.num_miners(), "stable: miner out of range");
    if (narrow_) return stable_integer<std::int64_t>(s, p);
    return stable_wide(s, p);
  }

  /// True iff every miner is stable — `is_equilibrium` on the integer
  /// tiers, exiting at the first improving miner.
  bool equilibrium(const Configuration& s) const;

 private:
  /// Tiers 2 and 3 of `compare` / `stable` (out of line).
  std::strong_ordering compare_wide(const Configuration& s, MinerId p,
                                    CoinId c1, CoinId c2) const;
  bool stable_wide(const Configuration& s, MinerId p) const;

  /// m_p as an integer of width `Int` (exact on the integer tiers).
  template <typename Int>
  Int power_of(MinerId p) const {
    return static_cast<Int>(game_->system().powers()[p.value].numerator());
  }

  /// The integer tiers' `compare` for c1 != c2. Powers (hence masses) are
  /// integers stored in normalized Rationals, so the numerators ARE the
  /// values; rewards enter as their rescaled numerators K_c (the common
  /// denominator L cancels from the ratio). Post-move "value" of coin c
  /// for p is K_c / D_c with D_c = M_c + m_p for a move and D_c = M_c for
  /// the current coin (whose mass already includes m_p); the common factor
  /// m_p > 0 cancels from both sides.
  template <typename Int>
  std::strong_ordering compare_integer(const Configuration& s, MinerId p,
                                       CoinId c1, CoinId c2) const {
    const CoinId here = s.assignment()[p.value];
    const std::vector<Rational>& mass = s.masses();
    const Int mp = power_of<Int>(p);
    const Int n1 = static_cast<Int>(scaled_rewards_[c1.value]);
    const Int n2 = static_cast<Int>(scaled_rewards_[c2.value]);
    const Int d1 =
        static_cast<Int>(mass[c1.value].numerator()) + (c1 == here ? 0 : mp);
    const Int d2 =
        static_cast<Int>(mass[c2.value].numerator()) + (c2 == here ? 0 : mp);
    return compare_fractions<Int>(n1, d1, n2, d2);
  }

  /// The integer tiers' `stable`, with the loop-invariant "stay put" side
  /// K_here/M_here hoisted (M_here already includes m_p).
  template <typename Int>
  bool stable_integer(const Configuration& s, MinerId p) const {
    const CoinId here = s.assignment()[p.value];
    const std::uint32_t coins = static_cast<std::uint32_t>(s.num_coins());
    const std::vector<Rational>& mass = s.masses();
    const Int mp = power_of<Int>(p);
    const Int n_here = static_cast<Int>(scaled_rewards_[here.value]);
    const Int d_here = static_cast<Int>(mass[here.value].numerator());
    for (std::uint32_t c = 0; c < coins; ++c) {
      if (c == here.value) continue;
      if (!unrestricted_ && !game_->can_mine(p, CoinId(c))) continue;
      const Int n_c = static_cast<Int>(scaled_rewards_[c]);
      const Int d_c = static_cast<Int>(mass[c].numerator()) + mp;
      if (compare_fractions<Int>(n_c, d_c, n_here, d_here) > 0) return false;
    }
    return true;
  }

  const Game* game_;
  bool integer_mode_;
  bool fast_mode_;
  bool narrow_;
  bool unrestricted_;
  std::vector<i128> scaled_rewards_;  // K_c = F(c)·L; valid in fast mode
};

}  // namespace goc
