#include "core/move_compare.hpp"

#include <algorithm>

#include "core/moves.hpp"
#include "obs/registry.hpp"
#include "util/rational.hpp"

namespace goc {
namespace {

/// Counts every decision the i128 path handed to `Rational` because a
/// product overflowed. Only the slow paths touch it.
void count_exact_fallback() {
  static obs::Counter& kFallbacks =
      obs::Registry::instance().counter("core.compare.exact_fallbacks");
  kFallbacks.add();
}

/// gain(p→t)·L as *num / *den (den > 0) from the integer fast-path
/// quantities: num = m_p·(K_t·M_x − K_x·D_t), den = D_t·M_x. False on
/// overflow. Both products in the difference are nonnegative, so the
/// subtraction itself cannot overflow.
bool scaled_gain(i128 mp, i128 k_t, i128 d_t, i128 k_x, i128 m_x, i128* num,
                 i128* den) {
  i128 gain_side, stay_side;
  return !mul_overflow(k_t, m_x, &gain_side) &&
         !mul_overflow(k_x, d_t, &stay_side) &&
         !mul_overflow(mp, gain_side - stay_side, num) &&
         !mul_overflow(d_t, m_x, den);
}

}  // namespace

std::strong_ordering compare_fractions_exact(i128 a_num, i128 a_den, i128 b_num,
                                             i128 b_den) {
  count_exact_fallback();
  return Rational::from_parts(a_num, a_den) <=>
         Rational::from_parts(b_num, b_den);
}

MoveComparator::MoveComparator(const Game& game)
    : game_(&game), unrestricted_(game.access().is_unrestricted()) {
  scaled_rewards_.resize(game.num_coins());
  refresh();
}

void MoveComparator::refresh() {
  bool integer_powers = true;
  for (const Rational& m : game_->system().powers()) {
    if (!m.is_integer()) {
      integer_powers = false;
      break;
    }
  }
  const std::vector<Rational>& rewards = game_->rewards().values();
  bool integer_rewards = true;
  for (const Rational& f : rewards) {
    if (!f.is_integer()) {
      integer_rewards = false;
      break;
    }
  }
  integer_mode_ = integer_powers && integer_rewards;
  fast_mode_ = false;
  narrow_ = false;
  if (!integer_powers) return;  // masses would not be integers
  // Orderings are invariant under scaling every reward by one positive
  // constant, so rescale to the common denominator L = lcm(den(F(c))) and
  // compare through the integer numerators K_c = F(c)·L (for all-integer
  // rewards L = 1 and K_c is just the stored numerator). Any overflow
  // while rescaling drops back to the exact Rational path.
  i128 lcm = 1;
  for (const Rational& f : rewards) {
    const i128 q = f.denominator();
    const i128 g = static_cast<i128>(gcd128(uabs128(lcm), uabs128(q)));
    if (mul_overflow(lcm / g, q, &lcm)) return;
  }
  for (std::size_t c = 0; c < rewards.size(); ++c) {
    const i128 scale = lcm / rewards[c].denominator();
    if (mul_overflow(rewards[c].numerator(), scale, &scaled_rewards_[c])) {
      return;
    }
  }
  fast_mode_ = true;
  // The int64 tier's bound: every denominator `compare` / `stable` form
  // is a coin's mass, or another coin's mass plus m_p, so at most M_tot;
  // every numerator is some K_c <= K_max. M_tot·K_max <= INT64_MAX then
  // bounds every cross product. Checked here in i128, once per reward set.
  i128 total_power = 0;
  for (const Rational& m : game_->system().powers()) {
    if (add_overflow(total_power, m.numerator(), &total_power)) return;
  }
  i128 max_reward = 0;
  for (const i128 k : scaled_rewards_) max_reward = std::max(max_reward, k);
  i128 bound;
  narrow_ = !mul_overflow(total_power, max_reward, &bound) &&
            bound <= static_cast<i128>(INT64_MAX);
}

std::strong_ordering MoveComparator::compare_wide(const Configuration& s,
                                                  MinerId p, CoinId c1,
                                                  CoinId c2) const {
  if (fast_mode_) return compare_integer<i128>(s, p, c1, c2);
  const CoinId here = s.assignment()[p.value];
  const Rational v1 = c1 == here ? game_->payoff(s, p)
                                 : game_->payoff_if_move(s, p, c1);
  const Rational v2 = c2 == here ? game_->payoff(s, p)
                                 : game_->payoff_if_move(s, p, c2);
  return v1 <=> v2;
}

std::strong_ordering MoveComparator::compare_gains(const Configuration& s,
                                                   MinerId p, CoinId tp,
                                                   MinerId q,
                                                   CoinId tq) const {
  GOC_DASSERT(p.value < s.num_miners() && q.value < s.num_miners() &&
                  tp.value < s.num_coins() && tq.value < s.num_coins(),
              "compare_gains: miner or coin out of range");
  if (fast_mode_) {
    const std::vector<CoinId>& at = s.assignment();
    const std::vector<Rational>& mass = s.masses();
    const std::vector<Rational>& powers = game_->system().powers();
    const auto gain = [&](MinerId m, CoinId t, i128* num, i128* den) {
      const CoinId x = at[m.value];
      const i128 mp = powers[m.value].numerator();
      const i128 d_t = mass[t.value].numerator() + (t == x ? 0 : mp);
      return scaled_gain(mp, scaled_rewards_[t.value], d_t,
                         scaled_rewards_[x.value], mass[x.value].numerator(),
                         num, den);
    };
    i128 p_num, p_den, q_num, q_den, lhs, rhs;
    if (gain(p, tp, &p_num, &p_den) && gain(q, tq, &q_num, &q_den) &&
        !mul_overflow(p_num, q_den, &lhs) && !mul_overflow(q_num, p_den, &rhs)) {
      return lhs <=> rhs;
    }
    count_exact_fallback();
  }
  return move_gain(*game_, s, p, tp) <=> move_gain(*game_, s, q, tq);
}

bool MoveComparator::stable_wide(const Configuration& s, MinerId p) const {
  if (fast_mode_) return stable_integer<i128>(s, p);
  return is_stable(*game_, s, p);
}

bool MoveComparator::equilibrium(const Configuration& s) const {
  const std::uint32_t n = static_cast<std::uint32_t>(s.num_miners());
  for (std::uint32_t p = 0; p < n; ++p) {
    if (!stable(s, MinerId(p))) return false;
  }
  return true;
}

}  // namespace goc
