#include "oracle/oracle.hpp"

#include <algorithm>

#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace goc::oracle {
namespace {

/// Miner p's move to its best response, or nullopt when p is stable.
std::optional<Move> best_response_move(const Game& game, const Configuration& s,
                                       MinerId p) {
  const auto target = best_response(game, s, p);
  if (!target) return std::nullopt;
  return Move{p, s.of(p), *target, move_gain(game, s, p, *target)};
}

/// The globally extremal-gain move; ties break on (miner id, coin id).
std::optional<Move> gain_extremal_move(const Game& game, const Configuration& s,
                                       bool max) {
  const std::vector<Move> moves = all_better_response_moves(game, s);
  if (moves.empty()) return std::nullopt;
  // The moves come in (miner id, coin id) order, so the first extremum wins.
  return *std::min_element(moves.begin(), moves.end(),
                           [max](const Move& a, const Move& b) {
                             return max ? a.gain > b.gain : a.gain < b.gain;
                           });
}

/// The heaviest (or lightest) unstable miner's best response; ties break on
/// the lowest miner id (both std::max_element and std::min_element return
/// the first extremum).
std::optional<Move> power_ordered_move(const Game& game, const Configuration& s,
                                       bool largest) {
  const std::vector<MinerId> unstable = unstable_miners(game, s);
  if (unstable.empty()) return std::nullopt;
  const auto lighter = [&](MinerId a, MinerId b) {
    return game.system().power(a) < game.system().power(b);
  };
  return best_response_move(
      game, s,
      largest ? *std::max_element(unstable.begin(), unstable.end(), lighter)
              : *std::min_element(unstable.begin(), unstable.end(), lighter));
}

}  // namespace

std::vector<MinerId> unstable_miners(const Game& game, const Configuration& s) {
  std::vector<MinerId> out;
  for (std::uint32_t p = 0; p < game.num_miners(); ++p) {
    if (!is_stable(game, s, MinerId(p))) out.emplace_back(p);
  }
  return out;
}

std::optional<Move> ScanScheduler::pick(const Game& game,
                                        const Configuration& s,
                                        const dynamics::BestResponseIndex&) {
  switch (kind_) {
    case SchedulerKind::kRandomMove: {
      const std::vector<Move> moves = all_better_response_moves(game, s);
      if (moves.empty()) return std::nullopt;
      return moves[rng_.next_below(moves.size())];
    }
    case SchedulerKind::kRandomMiner: {
      const std::vector<MinerId> unstable = unstable_miners(game, s);
      if (unstable.empty()) return std::nullopt;
      const MinerId p = unstable[rng_.pick_index(unstable)];
      const std::vector<CoinId> options = better_responses(game, s, p);
      const CoinId to = options[rng_.pick_index(options)];
      return Move{p, s.of(p), to, move_gain(game, s, p, to)};
    }
    case SchedulerKind::kRoundRobin:
      for (std::size_t scanned = 0; scanned < game.num_miners(); ++scanned) {
        const MinerId p(static_cast<std::uint32_t>(cursor_));
        cursor_ = (cursor_ + 1) % game.num_miners();
        if (auto move = best_response_move(game, s, p)) return move;
      }
      return std::nullopt;
    case SchedulerKind::kMaxGain:
    case SchedulerKind::kMinGain:
      return gain_extremal_move(game, s, kind_ == SchedulerKind::kMaxGain);
    case SchedulerKind::kLargestFirst:
    case SchedulerKind::kSmallestFirst:
      return power_ordered_move(game, s,
                                kind_ == SchedulerKind::kLargestFirst);
    case SchedulerKind::kLexicographic: {
      const std::vector<Move> moves = all_better_response_moves(game, s);
      if (moves.empty()) return std::nullopt;
      return moves.front();
    }
  }
  GOC_ASSERT(false, "unknown scheduler kind");
  return std::nullopt;
}

LearningResult run_learning_to_epsilon(const Game& game, Configuration start,
                                       const Rational& epsilon,
                                       const LearningOptions& options) {
  LearningResult result{std::move(start), 0, false, Trace{}};
  Configuration& s = result.final_configuration;
  while (result.steps < options.max_steps) {
    // Globally maximal relative gain; ties toward lower miner/coin ids.
    std::optional<Move> best;
    Rational best_relative(0);
    for (const Move& move : all_better_response_moves(game, s)) {
      const Rational relative = move.gain / game.payoff(s, move.miner);
      if (!best || relative > best_relative) {
        best = move;
        best_relative = relative;
      }
    }
    if (!best || !(best_relative > epsilon)) {
      result.converged = true;
      break;
    }
    s.move(best->miner, best->to);
    ++result.steps;
    for (const std::uint32_t word : {best->miner.value, best->from.value,
                                     best->to.value}) {
      fnv::mix_word(result.move_hash, word);
    }
  }
  if (!result.converged) {
    result.converged = is_epsilon_equilibrium(game, s, epsilon);
  }
  return result;
}

LearningResult replay_task(const engine::SweepTask& task,
                           const LearningOptions& options) {
  Rng rng(task.game_seed);
  const Game game = random_game(task.game_spec, rng);
  const Configuration start = random_configuration(game, rng);
  ScanScheduler scheduler(task.scheduler, task.scheduler_seed);
  return run_learning(game, start, scheduler, options);
}

void for_each_configuration(
    const std::shared_ptr<const System>& system, std::uint64_t max_configs,
    const std::function<bool(const Configuration&)>& visit) {
  const auto count = configuration_count(*system);
  GOC_CHECK_ARG(count.has_value() && *count <= max_configs,
                "configuration space too large to enumerate");
  const std::size_t n = system->num_miners();
  const std::uint32_t coins = static_cast<std::uint32_t>(system->num_coins());
  Configuration config = Configuration::all_at(system, CoinId(0));
  std::vector<std::uint32_t> digits(n, 0);
  while (visit(config)) {
    // Odometer increment; miner 0 is the least-significant digit.
    std::size_t pos = 0;
    for (; pos < n; ++pos) {
      const MinerId miner(static_cast<std::uint32_t>(pos));
      digits[pos] = (digits[pos] + 1) % coins;
      config.move(miner, CoinId(digits[pos]));
      if (digits[pos] != 0) break;
    }
    if (pos == n) return;  // odometer wrapped: all configurations visited
  }
}

std::vector<Configuration> enumerate_equilibria_scan(
    const Game& game, std::uint64_t max_configs) {
  std::vector<Configuration> out;
  for_each_configuration(game.system_ptr(), max_configs,
                         [&](const Configuration& s) {
                           if (game.respects_access(s) &&
                               is_equilibrium(game, s)) {
                             out.push_back(s);
                           }
                           return true;
                         });
  return out;
}

std::optional<NeverAloneViolation> find_never_alone_violation_scan(
    const Game& game, std::uint64_t max_configs) {
  std::optional<NeverAloneViolation> violation;
  for_each_configuration(game.system_ptr(), max_configs,
                         [&](const Configuration& s) {
                           const auto coin = never_alone_violation_at(game, s);
                           if (coin) violation = NeverAloneViolation{s, *coin};
                           return !coin;
                         });
  return violation;
}

std::optional<FourCycleWitness> find_nonzero_four_cycle_scan(
    const Game& game, std::uint64_t max_bases) {
  const std::uint32_t n = static_cast<std::uint32_t>(game.num_miners());
  const std::uint32_t coins = static_cast<std::uint32_t>(game.num_coins());
  std::optional<FourCycleWitness> witness;
  if (n < 2 || coins < 2) return witness;
  std::uint64_t bases = 0;
  const auto scan_base = [&](const Configuration& base) {
    for (std::uint32_t pi = 0; pi < n; ++pi) {
      for (std::uint32_t qi = pi + 1; qi < n; ++qi) {
        const MinerId p(pi), q(qi);
        for (std::uint32_t ap = 0; ap < coins; ++ap) {
          if (CoinId(ap) == base.of(p)) continue;
          for (std::uint32_t bp = 0; bp < coins; ++bp) {
            if (CoinId(bp) == base.of(q)) continue;
            const Rational sum =
                four_cycle_sum(game, base, p, CoinId(ap), q, CoinId(bp));
            if (sum.is_zero()) continue;
            const Configuration s2 = base.with_move(p, CoinId(ap));
            const Configuration s3 = s2.with_move(q, CoinId(bp));
            const Configuration s4 = s3.with_move(p, base.of(p));
            witness = FourCycleWitness{base, s2, s3, s4, p, q, sum};
            return false;
          }
        }
      }
    }
    return true;
  };
  for_each_configuration(game.system_ptr(), UINT64_MAX,
                         [&](const Configuration& base) {
                           return ++bases <= max_bases && scan_base(base);
                         });
  return witness;
}

bool has_exact_potential_scan(const Game& game, std::uint64_t max_configs) {
  const auto count = configuration_count(game.system());
  GOC_CHECK_ARG(count.has_value() && *count <= max_configs,
                "game too large for exhaustive exact-potential check");
  return !find_nonzero_four_cycle_scan(game, *count).has_value();
}

}  // namespace goc::oracle
