#include "dynamics/learning.hpp"

#include <optional>

#include "core/moves.hpp"
#include "dynamics/best_response_index.hpp"
#include "potential/list_potential.hpp"
#include "potential/observations.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace goc {

namespace {

/// FNV-1a over the identifying fields of a move (gain is derived).
void hash_move(std::uint64_t& h, const Move& move) {
  fnv::mix_word(h, move.miner.value);
  fnv::mix_word(h, move.from.value);
  fnv::mix_word(h, move.to.value);
}

/// The ε-learning rule: the globally maximal relative gain, or nothing once
/// that maximum is ≤ epsilon (every miner is then ε-stable). A miner's
/// maximal-relative-gain move is its best response (its current payoff is
/// fixed), so only the unstable miners' cached bests compete; the strict
/// `>` over the id-ordered unstable set keeps the lowest miner on ties.
class MaxRelativeGainScheduler final : public Scheduler {
 public:
  explicit MaxRelativeGainScheduler(const Rational& epsilon)
      : epsilon_(epsilon) {}

  std::optional<Move> pick(const Game& game, const Configuration& s,
                           const dynamics::BestResponseIndex& index) override {
    std::optional<MinerId> best;
    Rational best_relative(0);
    for (const MinerId miner : index.unstable()) {
      const Rational relative = index.best_gain(miner) / game.payoff(s, miner);
      if (!best || relative > best_relative) {
        best = miner;
        best_relative = relative;
      }
    }
    if (!best || !(best_relative > epsilon_)) return std::nullopt;
    return index.best_move(*best);
  }
  std::string name() const override { return "max-relative-gain"; }

 private:
  Rational epsilon_;
};

}  // namespace

LearningResult run_learning(const Game& game, Configuration start,
                            Scheduler& scheduler, const LearningOptions& options) {
  GOC_CHECK_ARG(&start.system() == &game.system(),
                "configuration belongs to a different system");
  GOC_CHECK_ARG(game.respects_access(start),
                "start configuration violates the game's access policy");
  LearningResult result{std::move(start), 0, false, Trace{}};
  Configuration& s = result.final_configuration;

  const bool keep_moves = options.record_moves || options.record_configurations;
  if (options.record_configurations) result.trace.set_start(s);

  PotentialKey prev_key;
  if (options.audit_potential) prev_key = potential_key(game, s);

  dynamics::BestResponseIndex index(game, s);

  while (result.steps < options.max_steps) {
    const auto move = scheduler.pick(game, s, index);
    if (!move) {
      result.converged = true;
      break;
    }
    GOC_ASSERT(move->from == s.of(move->miner),
               "scheduler produced a move that does not apply");
    GOC_ASSERT(move->gain.is_positive(),
               "scheduler produced a non-improving move");
    if (options.audit_potential) {
      GOC_ASSERT(observation1_holds(game, s, *move),
                 "Observation 1 violated: mover descended in list(s)");
      GOC_ASSERT(observation2_holds(game, s, *move),
                 "Observation 2 violated: RPU did not rise on both coins");
    }
    s.move(move->miner, move->to);
    index.sync(s);
    ++result.steps;
    hash_move(result.move_hash, *move);
    if (keep_moves) {
      result.trace.add_step(
          *move, options.record_configurations ? &s : nullptr);
    }
    if (options.audit_potential) {
      PotentialKey key = potential_key(game, s);
      GOC_ASSERT(prev_key < key,
                 "Theorem 1 violated: ordinal potential did not increase");
      prev_key = std::move(key);
      index.audit();
    }
  }
  if (!result.converged) {
    // Cap hit — distinguish "still improving" from "converged on the nose".
    result.converged = is_equilibrium(game, s);
  }
  return result;
}

LearningResult run_learning_to_epsilon(const Game& game, Configuration start,
                                       const Rational& epsilon,
                                       const LearningOptions& options) {
  GOC_CHECK_ARG(!epsilon.is_negative(), "epsilon must be nonnegative");
  MaxRelativeGainScheduler scheduler(epsilon);
  LearningResult result =
      run_learning(game, std::move(start), scheduler, options);
  // At the step cap `run_learning` asks for an exact equilibrium; an
  // ε-equilibrium is what ε-learning promises.
  if (!result.converged) {
    result.converged =
        is_epsilon_equilibrium(game, result.final_configuration, epsilon);
  }
  return result;
}

}  // namespace goc
