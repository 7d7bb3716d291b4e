#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/moves.hpp"
#include "dynamics/best_response_index.hpp"
#include "dynamics/learning.hpp"
#include "dynamics/noisy.hpp"
#include "dynamics/scheduler.hpp"
#include "oracle/oracle.hpp"

namespace goc {
namespace {

Game small_game() {
  return Game(System::from_integer_powers({8, 4, 2, 1}, 3),
              RewardFunction::from_integers({30, 20, 10}));
}

/// One pick from `s`, with a fresh index in sync with it.
std::optional<Move> pick_at(Scheduler& sched, const Game& g,
                            const Configuration& s) {
  return sched.pick(g, s, dynamics::BestResponseIndex(g, s));
}

// --------------------------------------------------------------- schedulers

TEST(Scheduler, AllKindsHaveDistinctNames) {
  std::vector<std::string> names;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    names.push_back(scheduler_kind_name(kind));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_EQ(names.size(), 8u);
}

TEST(Scheduler, NulloptAtEquilibrium) {
  const Game g(System::from_integer_powers({2, 1}, 2),
               RewardFunction::from_integers({1, 1}));
  const Configuration eq(g.system_ptr(), {CoinId(0), CoinId(1)});
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    auto sched = make_scheduler(kind, 5);
    EXPECT_FALSE(pick_at(*sched, g, eq).has_value()) << sched->name();
  }
}

TEST(Scheduler, PicksOnlyImprovingMoves) {
  const Game g = small_game();
  Rng rng(3);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    auto sched = make_scheduler(kind, 7);
    for (int trial = 0; trial < 20; ++trial) {
      const Configuration s = random_configuration(g, rng);
      const auto move = pick_at(*sched, g, s);
      if (!move) {
        EXPECT_TRUE(is_equilibrium(g, s)) << sched->name();
        continue;
      }
      EXPECT_TRUE(is_better_response(g, s, move->miner, move->to))
          << sched->name() << ": " << move->to_string();
      EXPECT_EQ(move->from, s.of(move->miner));
      EXPECT_EQ(move->gain,
                move_gain(g, s, move->miner, move->to));
    }
  }
}

TEST(Scheduler, MaxGainPicksGlobalMaximum) {
  const Game g = small_game();
  auto sched = make_scheduler(SchedulerKind::kMaxGain);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Configuration s = random_configuration(g, rng);
    const auto move = pick_at(*sched, g, s);
    if (!move) continue;
    for (const Move& m : all_better_response_moves(g, s)) {
      EXPECT_GE(move->gain, m.gain);
    }
  }
}

TEST(Scheduler, MinGainPicksGlobalMinimum) {
  const Game g = small_game();
  auto sched = make_scheduler(SchedulerKind::kMinGain);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Configuration s = random_configuration(g, rng);
    const auto move = pick_at(*sched, g, s);
    if (!move) continue;
    for (const Move& m : all_better_response_moves(g, s)) {
      EXPECT_LE(move->gain, m.gain);
    }
  }
}

TEST(Scheduler, LexicographicDeterministic) {
  const Game g = small_game();
  auto a = make_scheduler(SchedulerKind::kLexicographic);
  auto b = make_scheduler(SchedulerKind::kLexicographic);
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const Configuration s = random_configuration(g, rng);
    const auto ma = pick_at(*a, g, s);
    const auto mb = pick_at(*b, g, s);
    ASSERT_EQ(ma.has_value(), mb.has_value());
    if (ma) {
      EXPECT_EQ(ma->miner, mb->miner);
      EXPECT_EQ(ma->to, mb->to);
    }
  }
}

TEST(Scheduler, LargestFirstMovesHeaviestUnstable) {
  const Game g = small_game();
  auto sched = make_scheduler(SchedulerKind::kLargestFirst);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Configuration s = random_configuration(g, rng);
    const auto move = pick_at(*sched, g, s);
    if (!move) continue;
    for (const MinerId p : oracle::unstable_miners(g, s)) {
      EXPECT_LE(g.system().power(p), g.system().power(move->miner));
    }
  }
}

TEST(Scheduler, PowerOrderedBreaksTiesOnLowestId) {
  // Two equal-power unstable miners: the scheduler must pick the lower id
  // (the scan keeps the first strict improvement).
  Game g(System::from_integer_powers({1, 1}, 2),
         RewardFunction::from_integers({10, 10}));
  const Configuration shared(g.system_ptr(), {CoinId(0), CoinId(0)});
  auto largest = make_scheduler(SchedulerKind::kLargestFirst);
  auto smallest = make_scheduler(SchedulerKind::kSmallestFirst);
  const auto ml = pick_at(*largest, g, shared);
  const auto ms = pick_at(*smallest, g, shared);
  ASSERT_TRUE(ml && ms);
  EXPECT_EQ(ml->miner, MinerId(0));
  EXPECT_EQ(ms->miner, MinerId(0));
}

// ----------------------------------------------------------------- learning

/// The headline convergence property: every scheduler converges on every
/// random game, with the full Theorem 1 audit enabled.
class ConvergenceProperty
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, std::uint64_t>> {};

TEST_P(ConvergenceProperty, AuditedConvergence) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  GameSpec spec;
  spec.num_miners = 2 + static_cast<std::size_t>(rng.next_below(15));
  spec.num_coins = 2 + static_cast<std::size_t>(rng.next_below(5));
  spec.power_lo = 1;
  spec.power_hi = 200;
  spec.reward_lo = 10;
  spec.reward_hi = 2000;
  const Game g = random_game(spec, rng);
  const Configuration start = random_configuration(g, rng);

  auto sched = make_scheduler(kind, seed ^ 0xABCD);
  LearningOptions opts;
  opts.audit_potential = true;
  opts.record_moves = true;
  const LearningResult result = run_learning(g, start, *sched, opts);

  EXPECT_TRUE(result.converged) << scheduler_kind_name(kind);
  EXPECT_TRUE(is_equilibrium(g, result.final_configuration));
  EXPECT_EQ(result.trace.size(), result.steps);
  // Every recorded move improved the mover's payoff.
  for (const Move& m : result.trace.moves()) {
    EXPECT_TRUE(m.gain.is_positive());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvergenceProperty,
    ::testing::Combine(::testing::ValuesIn(all_scheduler_kinds()),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(Learning, StartAtEquilibriumTakesNoSteps) {
  const Game g(System::from_integer_powers({2, 1}, 2),
               RewardFunction::from_integers({1, 1}));
  const Configuration eq(g.system_ptr(), {CoinId(0), CoinId(1)});
  auto sched = make_scheduler(SchedulerKind::kRandomMove, 1);
  const auto result = run_learning(g, eq, *sched);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_TRUE(result.final_configuration == eq);
}

TEST(Learning, StepCapHonored) {
  Rng rng(13);
  GameSpec spec;
  spec.num_miners = 20;
  spec.num_coins = 4;
  const Game g = random_game(spec, rng);
  const Configuration start = random_configuration(g, rng);
  auto sched = make_scheduler(SchedulerKind::kMinGain);
  LearningOptions opts;
  opts.max_steps = 1;
  const auto result = run_learning(g, start, *sched, opts);
  EXPECT_LE(result.steps, 1u);
}

TEST(Learning, ConfigurationSnapshotsConsistent) {
  const Game g = small_game();
  Rng rng(17);
  const Configuration start = random_configuration(g, rng);
  auto sched = make_scheduler(SchedulerKind::kLexicographic);
  LearningOptions opts;
  opts.record_configurations = true;
  const auto result = run_learning(g, start, *sched, opts);
  const auto& snaps = result.trace.configurations();
  ASSERT_EQ(snaps.size(), result.steps + 1);
  // Replaying the moves over the start reproduces each snapshot.
  Configuration replay = start;
  for (std::size_t i = 0; i < result.trace.moves().size(); ++i) {
    const Move& m = result.trace.moves()[i];
    replay.move(m.miner, m.to);
    EXPECT_TRUE(replay == snaps[i + 1]);
  }
}

TEST(Learning, TraceTableShape) {
  const Game g = small_game();
  const Configuration start =
      Configuration::all_at(g.system_ptr(), CoinId(2));
  auto sched = make_scheduler(SchedulerKind::kMaxGain);
  LearningOptions opts;
  opts.record_moves = true;
  const auto result = run_learning(g, start, *sched, opts);
  const Table table = result.trace.to_table();
  EXPECT_EQ(table.rows(), result.steps);
  EXPECT_EQ(table.columns(), 5u);
}

TEST(Learning, RejectsForeignConfiguration) {
  const Game g1 = small_game();
  const Game g2 = small_game();  // different System instance
  const Configuration s(g2.system_ptr(), {CoinId(0), CoinId(0), CoinId(0), CoinId(0)});
  auto sched = make_scheduler(SchedulerKind::kMaxGain);
  EXPECT_THROW(run_learning(g1, s, *sched), std::invalid_argument);
}

// ------------------------------------------------------------ ε-equilibrium

TEST(EpsilonLearning, ZeroEpsilonMatchesExactConvergence) {
  const Game g = small_game();
  Rng rng(41);
  const Configuration start = random_configuration(g, rng);
  const auto result = run_learning_to_epsilon(g, start, Rational(0));
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(is_equilibrium(g, result.final_configuration));
}

TEST(EpsilonLearning, ResultIsEpsilonEquilibrium) {
  Rng rng(43);
  GameSpec spec;
  spec.num_miners = 15;
  spec.num_coins = 4;
  const Game g = random_game(spec, rng);
  for (const Rational& eps : {Rational(1, 100), Rational(1, 10), Rational(1)}) {
    const auto result =
        run_learning_to_epsilon(g, random_configuration(g, rng), eps);
    EXPECT_TRUE(result.converged);
    EXPECT_TRUE(is_epsilon_equilibrium(g, result.final_configuration, eps));
  }
}

TEST(EpsilonLearning, LargerEpsilonStopsWeaklyEarlier) {
  Rng rng(47);
  GameSpec spec;
  spec.num_miners = 25;
  spec.num_coins = 5;
  const Game g = random_game(spec, rng);
  const Configuration start = random_configuration(g, rng);
  const auto exact = run_learning_to_epsilon(g, start, Rational(0));
  const auto loose = run_learning_to_epsilon(g, start, Rational(1, 4));
  EXPECT_LE(loose.steps, exact.steps);
}

TEST(EpsilonStability, DefinitionMatchesDirectCheck) {
  const Game g = small_game();
  Rng rng(53);
  for (int trial = 0; trial < 20; ++trial) {
    const Configuration s = random_configuration(g, rng);
    const Rational eps(1, 20);
    for (std::uint32_t p = 0; p < g.num_miners(); ++p) {
      const MinerId miner(p);
      const Rational current = g.payoff(s, miner);
      bool has_big_improvement = false;
      for (std::uint32_t c = 0; c < g.num_coins(); ++c) {
        if (CoinId(c) == s.of(miner)) continue;
        if (g.payoff_if_move(s, miner, CoinId(c)) > current + current * eps) {
          has_big_improvement = true;
        }
      }
      EXPECT_EQ(is_epsilon_stable(g, s, miner, eps), !has_big_improvement);
    }
  }
}

TEST(EpsilonStability, RejectsNegativeEpsilon) {
  const Game g = small_game();
  const Configuration s = Configuration::all_at(g.system_ptr(), CoinId(0));
  EXPECT_THROW(is_epsilon_stable(g, s, MinerId(0), Rational(-1, 2)),
               std::invalid_argument);
}

// -------------------------------------------------------------------- noisy

TEST(Noisy, ZeroEpsilonReachesEquilibriumAndStays) {
  const Game g = small_game();
  Rng rng(19);
  NoisyOptions opts;
  opts.epsilon = 0.0;
  opts.max_steps = 5000;
  const auto result =
      run_epsilon_noisy(g, random_configuration(g, rng), rng, opts);
  EXPECT_TRUE(result.ended_at_equilibrium);
  EXPECT_GT(result.equilibrium_visit_rate, 0.5);
}

TEST(Noisy, HighNoiseKeepsChurning) {
  const Game g = small_game();
  Rng rng(23);
  NoisyOptions opts;
  opts.epsilon = 0.9;
  opts.max_steps = 5000;
  const auto result =
      run_epsilon_noisy(g, random_configuration(g, rng), rng, opts);
  EXPECT_LT(result.equilibrium_visit_rate, 0.9);
}

TEST(Noisy, LogitHighBetaNearEquilibrium) {
  const Game g = small_game();
  Rng rng(29);
  NoisyOptions opts;
  opts.beta = 400.0;
  opts.max_steps = 8000;
  const auto result = run_logit(g, random_configuration(g, rng), rng, opts);
  // Near-best-response dynamics spend most of the horizon at equilibrium.
  EXPECT_GT(result.equilibrium_visit_rate, 0.5);
}

TEST(Noisy, LogitZeroBetaIsRandomWalk) {
  const Game g = small_game();
  Rng rng(31);
  NoisyOptions opts;
  opts.beta = 0.0;
  opts.max_steps = 3000;
  const auto result = run_logit(g, random_configuration(g, rng), rng, opts);
  EXPECT_LT(result.equilibrium_visit_rate, 0.5);
}

TEST(Noisy, RejectsBadParameters) {
  const Game g = small_game();
  Rng rng(37);
  NoisyOptions opts;
  opts.epsilon = 1.5;
  EXPECT_THROW(run_epsilon_noisy(g, random_configuration(g, rng), rng, opts),
               std::invalid_argument);
  NoisyOptions opts2;
  opts2.beta = -1.0;
  EXPECT_THROW(run_logit(g, random_configuration(g, rng), rng, opts2),
               std::invalid_argument);
}

}  // namespace
}  // namespace goc
