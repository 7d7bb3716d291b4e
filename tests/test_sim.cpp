#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "chain/chain_sim.hpp"
#include "chain/difficulty.hpp"
#include "dynamics/scheduler.hpp"
#include "engine/thread_pool.hpp"
#include "market/fig1_replay.hpp"
#include "market/market_sim.hpp"
#include "market/scenario.hpp"
#include "sim/event_core.hpp"
#include "sim/trajectory.hpp"

// ------------------------------------------- allocation-counting operator new
// Counts every heap allocation in the binary so the zero-allocation claim of
// the flat market epoch loop is a *tested* invariant, not a comment (see
// MarketFlat.SteadyStateEpochsDoNotAllocate). Frees are not counted — the
// claim is about acquisitions.

namespace {
std::atomic<std::size_t> g_new_calls{0};

void* counted_alloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace goc::sim {
namespace {

// ---------------------------------------------------------------- EventCore

TEST(EventCore, PopsInTimeOrder) {
  EventCore core;
  core.declare_streams(EventType::kBlockFound, 4);
  core.schedule(3.0, EventType::kBlockFound, 3);
  core.schedule(1.0, EventType::kBlockFound, 1);
  core.schedule(2.0, EventType::kBlockFound, 2);
  Event event;
  std::vector<std::uint32_t> order;
  while (core.pop(event)) order.push_back(event.subject);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(core.now(), 3.0);
}

TEST(EventCore, FifoTieBreakAcrossTypes) {
  EventCore core;
  core.declare_streams(EventType::kPriceTick, 2);
  core.declare_streams(EventType::kFeeUpdate, 2);
  core.declare_streams(EventType::kDecisionEpoch, 1);
  // All at the same time: pop order must be schedule order.
  core.schedule(1.0, EventType::kPriceTick, 0);
  core.schedule(1.0, EventType::kFeeUpdate, 0);
  core.schedule(1.0, EventType::kPriceTick, 1);
  core.schedule(1.0, EventType::kFeeUpdate, 1);
  core.schedule(1.0, EventType::kDecisionEpoch, 0);
  Event event;
  std::vector<EventType> types;
  while (core.pop(event)) types.push_back(event.type);
  EXPECT_EQ(types, (std::vector<EventType>{
                       EventType::kPriceTick, EventType::kFeeUpdate,
                       EventType::kPriceTick, EventType::kFeeUpdate,
                       EventType::kDecisionEpoch}));
}

TEST(EventCore, PopUntilStopsAndAdvancesClock) {
  EventCore core;
  core.declare_streams(EventType::kBlockFound, 1);
  core.schedule(1.0, EventType::kBlockFound, 0);
  core.schedule(5.0, EventType::kBlockFound, 0);
  Event event;
  EXPECT_TRUE(core.pop_until(event, 2.0));
  EXPECT_DOUBLE_EQ(event.time, 1.0);
  EXPECT_FALSE(core.pop_until(event, 2.0));
  EXPECT_DOUBLE_EQ(core.now(), 2.0);
  EXPECT_EQ(core.pending(), 1u);
}

TEST(EventCore, InvalidationDropsStaleEvents) {
  EventCore core;
  core.declare_streams(EventType::kBlockFound, 2);
  core.schedule(1.0, EventType::kBlockFound, 0);
  core.schedule(2.0, EventType::kBlockFound, 1);
  core.invalidate(EventType::kBlockFound, 0);
  core.schedule(3.0, EventType::kBlockFound, 0);  // new generation: live
  Event event;
  std::vector<double> times;
  while (core.pop(event)) times.push_back(event.time);
  EXPECT_EQ(times, (std::vector<double>{2.0, 3.0}));
}

TEST(EventCore, InvalidationIsPerStream) {
  EventCore core;
  core.declare_streams(EventType::kBlockFound, 2);
  core.declare_streams(EventType::kDecisionEpoch, 1);
  core.schedule(1.0, EventType::kBlockFound, 0);
  core.schedule(1.5, EventType::kDecisionEpoch, 0);
  core.invalidate(EventType::kBlockFound, 1);  // unrelated stream
  Event event;
  ASSERT_TRUE(core.pop(event));
  EXPECT_EQ(event.type, EventType::kBlockFound);
  ASSERT_TRUE(core.pop(event));
  EXPECT_EQ(event.type, EventType::kDecisionEpoch);
}

TEST(EventCore, ResetReusesCapacity) {
  EventCore core;
  core.declare_streams(EventType::kBlockFound, 1);
  for (int i = 0; i < 100; ++i) {
    core.schedule(static_cast<double>(i + 1), EventType::kBlockFound, 0);
  }
  core.reset();
  EXPECT_TRUE(core.empty());
  EXPECT_DOUBLE_EQ(core.now(), 0.0);
  core.schedule(1.0, EventType::kBlockFound, 0);
  Event event;
  ASSERT_TRUE(core.pop(event));
  EXPECT_EQ(event.seq, 0u);  // sequence counter rewound too
}

TEST(EventCore, RejectsPastAndUndeclaredStreams) {
  EventCore core;
  core.declare_streams(EventType::kBlockFound, 1);
  core.schedule(2.0, EventType::kBlockFound, 0);
  Event event;
  ASSERT_TRUE(core.pop(event));
  EXPECT_THROW(core.schedule(1.0, EventType::kBlockFound, 0),
               std::invalid_argument);
  EXPECT_THROW(core.schedule(3.0, EventType::kBlockFound, 7),
               std::invalid_argument);
  EXPECT_THROW(core.schedule(3.0, EventType::kPriceTick, 0),
               std::invalid_argument);
  EXPECT_THROW(core.invalidate(EventType::kFeeUpdate, 0),
               std::invalid_argument);
}

// ------------------------------------------------------------ chain runs

chain::ChainSpec make_chain(const std::string& name, double difficulty,
                            double reward) {
  return chain::ChainSpec{
      name, difficulty, 1.0 / 6.0, reward,
      std::make_unique<chain::FixedWindowRetarget>(72, 1.0 / 6.0)};
}

chain::MultiChainSimulator build_chain_sim(chain::ChainSimOptions options,
                                           bool eda = false) {
  std::vector<chain::ChainSpec> chains;
  if (eda) {
    chains.push_back(chain::ChainSpec{
        "btc", 20.0, 1.0 / 6.0, 60.0,
        std::make_unique<chain::SmaRetarget>(20, 1.0 / 6.0, 1.2)});
    chains.push_back(chain::ChainSpec{
        "bch", 20.0, 1.0 / 6.0, 10.0,
        std::make_unique<chain::EmergencyAdjuster>(20, 1.0 / 6.0, 0.5, 0.20)});
  } else {
    chains.push_back(make_chain("heavy", 600.0, 30.0));
    chains.push_back(make_chain("light", 600.0, 10.0));
  }
  std::vector<double> powers;
  for (std::size_t i = 0; i < 12; ++i) {
    powers.push_back(5.0 + static_cast<double>(i % 4) * 7.0);
  }
  return chain::MultiChainSimulator(std::move(powers), std::move(chains),
                                    options);
}

void expect_chain_results_equal(const chain::ChainSimResult& a,
                                const chain::ChainSimResult& b) {
  EXPECT_EQ(chain_result_hash(a), chain_result_hash(b));
  ASSERT_EQ(a.blocks_per_chain, b.blocks_per_chain);
  ASSERT_EQ(a.miner_blocks, b.miner_blocks);
  ASSERT_EQ(a.miner_rewards_fiat.size(), b.miner_rewards_fiat.size());
  for (std::size_t i = 0; i < a.miner_rewards_fiat.size(); ++i) {
    EXPECT_EQ(a.miner_rewards_fiat[i], b.miner_rewards_fiat[i]);
  }
  EXPECT_EQ(a.share_prediction_mae, b.share_prediction_mae);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].t_hours, b.timeline[i].t_hours);
    EXPECT_EQ(a.timeline[i].difficulty, b.timeline[i].difficulty);
    EXPECT_EQ(a.timeline[i].hashrate, b.timeline[i].hashrate);
    EXPECT_EQ(a.timeline[i].blocks, b.timeline[i].blocks);
    EXPECT_EQ(a.timeline[i].reward_fiat, b.timeline[i].reward_fiat);
  }
}

chain::ChainSimResult run_chain(chain::ChainSimOptions options,
                                bool eda = false) {
  chain::MultiChainSimulator sim = build_chain_sim(options, eda);
  return sim.run();
}

// ----------------------------------------------------------- market runs

market::MarketSimulator build_market(market::MarketOptions options,
                                     bool whale = false) {
  std::vector<market::CoinSpec> coins;
  coins.emplace_back("major", 12.5, 6.0,
                     std::make_unique<market::GbmProcess>(7400.0, 0.0, 0.03),
                     market::FeeMarket(400.0, 0.05, 1.5));
  coins.emplace_back("minor", 12.5, 6.0,
                     std::make_unique<market::GbmProcess>(620.0, 0.0, 0.06),
                     market::FeeMarket(60.0, 0.02, 1.5));
  coins.emplace_back("tail", 25.0, 12.0,
                     std::make_unique<market::GbmProcess>(40.0, 0.0, 0.10),
                     market::FeeMarket(10.0, 0.01, 1.5));
  market::MarketSimulator sim({900, 500, 300, 200, 100, 60, 30, 10},
                              std::move(coins), options);
  if (whale) sim.inject_whale(2, 5000.0);
  return sim;
}

void expect_market_records_equal(const std::vector<market::EpochRecord>& a,
                                 const std::vector<market::EpochRecord>& b) {
  EXPECT_EQ(market_records_hash(a), market_records_hash(b));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_hours, b[i].t_hours);
    EXPECT_EQ(a[i].prices, b[i].prices);
    EXPECT_EQ(a[i].weights, b[i].weights);
    EXPECT_EQ(a[i].hashrate_share, b[i].hashrate_share);
    EXPECT_EQ(a[i].br_steps, b[i].br_steps);
    EXPECT_EQ(a[i].at_equilibrium, b[i].at_equilibrium);
  }
}

std::size_t market_run_allocations(std::size_t epochs) {
  market::MarketOptions options;
  options.epochs = epochs;
  options.seed = 91;
  market::MarketSimulator sim = build_market(options);
  const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
  const std::vector<market::EpochRecord> records = sim.run();
  const std::size_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(records.size(), epochs);
  return after - before;
}

TEST(MarketFlat, SteadyStateEpochsDoNotAllocate) {
  // run() preallocates its whole output and the workspace before the event
  // loop starts, so the only cost of extra epochs is the up-front
  // preallocation of their records — exactly three inner vectors each
  // (prices, weights, hashrate_share). If anything inside the loop touched
  // the heap (a Game rebuild, an index rebuild, a scheduler scratch
  // vector…) the delta would exceed 3 per epoch and this fails. A first,
  // unmeasured run absorbs one-time allocations (function-local statics),
  // so the test does not depend on which tests ran before it.
  market_run_allocations(60);
  const std::size_t base = market_run_allocations(60);
  const std::size_t wide = market_run_allocations(180);
  EXPECT_EQ(wide - base, 3u * 120u);
}

TEST(MarketFlat, CurrentGameIsWorkspaceStable) {
  market::MarketOptions options;
  options.epochs = 12;
  options.seed = 55;
  market::MarketSimulator sim = build_market(options);
  EXPECT_THROW(sim.current_game(), std::invalid_argument);
  sim.run();
  const Game* game = &sim.current_game();
  EXPECT_EQ(game->num_coins(), 3u);
  // The reference stays valid (same workspace-owned object) across
  // further runs — the documented lifetime contract of current_game().
  sim.run();
  EXPECT_EQ(&sim.current_game(), game);
}

// ------------------------------------------------------- trajectory engine

TEST(Trajectory, SummariesAreExact) {
  // 3 replicas × 2 metrics with hand-checkable aggregates.
  const std::vector<double> values = {1.0, 10.0, 2.0, 10.0, 3.0, 10.0};
  const TrajectoryBatchResult result({"x", "const"}, 3, values, 0);
  const MetricSummary& x = result.summary("x");
  EXPECT_DOUBLE_EQ(x.mean, 2.0);
  EXPECT_DOUBLE_EQ(x.variance, 1.0);
  EXPECT_DOUBLE_EQ(x.min, 1.0);
  EXPECT_DOUBLE_EQ(x.max, 3.0);
  const MetricSummary& c = result.summary("const");
  EXPECT_DOUBLE_EQ(c.mean, 10.0);
  EXPECT_DOUBLE_EQ(c.variance, 0.0);
  EXPECT_DOUBLE_EQ(c.ci95_halfwidth, 0.0);
  EXPECT_THROW(result.summary("nope"), std::invalid_argument);
}

TEST(Trajectory, ReplicaSeedsAreDeterministic) {
  TrajectoryBatchOptions options;
  options.replicas = 8;
  options.threads = 1;
  options.root_seed = 42;
  std::vector<std::uint64_t> seeds(options.replicas, 0);
  run_trajectory_batch({"seed_lo"}, options,
                       [&](std::size_t r, std::uint64_t seed) {
                         seeds[r] = seed;
                         return std::vector<double>{
                             static_cast<double>(seed & 0xffff)};
                       });
  // Re-running yields the same seeds; all distinct.
  run_trajectory_batch({"seed_lo"}, options,
                       [&](std::size_t r, std::uint64_t seed) {
                         EXPECT_EQ(seeds[r], seed);
                         return std::vector<double>{0.0};
                       });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
}

TEST(Trajectory, ThreadInvarianceViaExplicitPools) {
  const auto run_with = [](engine::ThreadPool& pool) {
    TrajectoryBatchOptions options;
    options.replicas = 16;
    options.root_seed = 7;
    options.pool = &pool;
    return run_chain_batch(
        [](std::uint64_t seed) {
          std::vector<chain::ChainSpec> chains;
          chains.push_back(make_chain("heavy", 600.0, 30.0));
          chains.push_back(make_chain("light", 600.0, 10.0));
          chain::ChainSimOptions options;
          options.duration_hours = 24.0 * 4;
          options.reevaluation_fraction = 0.5;
          options.seed = seed;
          options.record_timeline = false;
          return chain::MultiChainSimulator({30.0, 20.0, 10.0, 5.0},
                                            std::move(chains), options);
        },
        options);
  };
  engine::ThreadPool serial(0);
  engine::ThreadPool wide(3);
  const TrajectoryBatchResult a = run_with(serial);
  const TrajectoryBatchResult b = run_with(wide);
  EXPECT_TRUE(a.deterministic_equals(b));
  EXPECT_EQ(a.values_hash(), b.values_hash());
  ASSERT_EQ(a.summaries().size(), b.summaries().size());
  for (std::size_t m = 0; m < a.summaries().size(); ++m) {
    EXPECT_EQ(a.summaries()[m].mean, b.summaries()[m].mean);
    EXPECT_EQ(a.summaries()[m].variance, b.summaries()[m].variance);
  }
}

TEST(Trajectory, RejectsArityMismatch) {
  TrajectoryBatchOptions options;
  options.replicas = 1;
  options.threads = 1;
  EXPECT_THROW(
      run_trajectory_batch({"a", "b"}, options,
                           [](std::size_t, std::uint64_t) {
                             return std::vector<double>{1.0};
                           }),
      std::invalid_argument);
}

TEST(Trajectory, MarketBatchSmoke) {
  TrajectoryBatchOptions options;
  options.replicas = 4;
  options.threads = 2;
  options.root_seed = 21;
  const TrajectoryBatchResult result = run_market_batch(
      [](std::uint64_t seed) {
        market::MarketOptions options;
        options.epochs = 24;
        options.seed = seed;
        return build_market(options);
      },
      options);
  EXPECT_EQ(result.replicas(), 4u);
  const MetricSummary& share = result.summary("mean_share_coin0");
  EXPECT_GT(share.mean, 0.0);
  EXPECT_LE(share.max, 1.0);
}

TEST(Trajectory, ScenarioBatchMatchesHandWrittenFactory) {
  const market::Scenario proto =
      market::random_market_prototype(12, 3, 2.0, 33);
  TrajectoryBatchOptions options;
  options.replicas = 4;
  options.threads = 2;
  options.root_seed = 5;
  const TrajectoryBatchResult via_scenario = run_market_batch(proto, options);
  const TrajectoryBatchResult via_factory = run_market_batch(
      [&proto](std::uint64_t seed) { return proto.make_simulator(seed); },
      options);
  EXPECT_TRUE(via_scenario.deterministic_equals(via_factory));
  // The prototype is reusable: stamping the same seed twice yields
  // bit-identical trajectories, because CoinSpec::clone deep-copies the
  // price processes (full runtime state included) rather than sharing them.
  const auto first = proto.make_simulator(99).run();
  const auto second = proto.make_simulator(99).run();
  expect_market_records_equal(first, second);
}

// ------------------------------------------------- sequential stopping

TEST(Trajectory, StoppingStopsAtAWaveBoundary) {
  // Replica value r%2: the prefix CI shrinks like 1/sqrt(n). At the first
  // check (n = 4) the 95% half-width is 1.96·0.577/2 ≈ 0.566 > 0.5; one
  // wave later (n = 8) it is ≈ 0.370 <= 0.5 — so the rule must stop at
  // exactly 8, never in between.
  TrajectoryBatchOptions options;
  options.threads = 1;
  StoppingRule rule;
  rule.metric = "x";
  rule.tolerance = 0.5;
  rule.min_replicas = 4;
  rule.max_replicas = 64;
  rule.wave = 4;
  options.stopping = rule;
  const TrajectoryBatchResult result = run_trajectory_batch(
      {"x"}, options, [](std::size_t r, std::uint64_t) {
        return std::vector<double>{static_cast<double>(r % 2)};
      });
  EXPECT_EQ(result.replicas(), 8u);
  EXPECT_EQ(result.replicas_requested(), 64u);
  EXPECT_EQ(result.stop_reason(), StopReason::kToleranceMet);
  EXPECT_STREQ(stop_reason_name(result.stop_reason()), "tolerance");
}

TEST(Trajectory, StoppingDegenerateTolerances) {
  TrajectoryBatchOptions options;
  options.threads = 1;
  StoppingRule rule;
  rule.metric = "x";
  rule.tolerance = 0.0;
  rule.min_replicas = 3;
  rule.max_replicas = 12;
  rule.wave = 3;
  options.stopping = rule;
  // Tolerance 0 on a zero-variance metric: met at the very first check.
  const TrajectoryBatchResult constant = run_trajectory_batch(
      {"x"}, options,
      [](std::size_t, std::uint64_t) { return std::vector<double>{7.0}; });
  EXPECT_EQ(constant.replicas(), 3u);
  EXPECT_EQ(constant.stop_reason(), StopReason::kToleranceMet);
  // Tolerance 0 on a noisy metric: escalates to the ceiling.
  const TrajectoryBatchResult noisy = run_trajectory_batch(
      {"x"}, options, [](std::size_t r, std::uint64_t) {
        return std::vector<double>{static_cast<double>(r % 2)};
      });
  EXPECT_EQ(noisy.replicas(), 12u);
  EXPECT_EQ(noisy.replicas_requested(), 12u);
  EXPECT_EQ(noisy.stop_reason(), StopReason::kMaxReplicas);
  EXPECT_STREQ(stop_reason_name(noisy.stop_reason()), "max-replicas");
}

TEST(Trajectory, StoppingThreadInvarianceViaExplicitPools) {
  // The chosen R and every emitted value must be a pure function of the
  // replica-ordered prefix — identical whether the waves ran on 1, 4, or
  // 16 lanes.
  const auto run_with = [](engine::ThreadPool& pool) {
    TrajectoryBatchOptions options;
    options.root_seed = 7;
    options.pool = &pool;
    StoppingRule rule;
    rule.metric = "blocks_total";
    rule.tolerance = 0.05;
    rule.relative = true;
    rule.min_replicas = 6;
    rule.max_replicas = 36;
    rule.wave = 6;
    options.stopping = rule;
    return run_chain_batch(
        [](std::uint64_t seed) {
          std::vector<chain::ChainSpec> chains;
          chains.push_back(make_chain("heavy", 600.0, 30.0));
          chains.push_back(make_chain("light", 600.0, 10.0));
          chain::ChainSimOptions options;
          options.duration_hours = 24.0 * 2;
          options.reevaluation_fraction = 0.5;
          options.seed = seed;
          options.record_timeline = false;
          return chain::MultiChainSimulator({30.0, 20.0, 10.0, 5.0},
                                            std::move(chains), options);
        },
        options);
  };
  engine::ThreadPool serial(0);
  engine::ThreadPool mid(3);
  engine::ThreadPool wide(15);
  const TrajectoryBatchResult a = run_with(serial);
  const TrajectoryBatchResult b = run_with(mid);
  const TrajectoryBatchResult c = run_with(wide);
  EXPECT_EQ(a.replicas(), b.replicas());
  EXPECT_EQ(a.replicas(), c.replicas());
  EXPECT_EQ(a.stop_reason(), b.stop_reason());
  EXPECT_EQ(a.stop_reason(), c.stop_reason());
  EXPECT_TRUE(a.deterministic_equals(b));
  EXPECT_TRUE(a.deterministic_equals(c));
  EXPECT_EQ(a.values_hash(), b.values_hash());
  EXPECT_EQ(a.values_hash(), c.values_hash());
  EXPECT_GE(a.replicas(), 6u);
  EXPECT_LE(a.replicas(), 36u);
}

TEST(Trajectory, StoppingRespectsMinReplicas) {
  // Even a zero-variance metric never stops before min_replicas.
  TrajectoryBatchOptions options;
  options.threads = 1;
  StoppingRule rule;
  rule.metric = "x";
  rule.tolerance = 1e9;
  rule.min_replicas = 10;
  rule.max_replicas = 40;
  options.stopping = rule;
  const TrajectoryBatchResult result = run_trajectory_batch(
      {"x"}, options,
      [](std::size_t, std::uint64_t) { return std::vector<double>{1.0}; });
  EXPECT_EQ(result.replicas(), 10u);
}

TEST(Trajectory, StoppingMatchesFixedRunPrefix) {
  // Replica seeds do not depend on the stopping rule, so an adaptive batch
  // is a bit-identical prefix of the fixed-R batch over the same root seed.
  const auto value_at = [](std::size_t r, std::uint64_t seed) {
    return std::vector<double>{static_cast<double>(seed >> 40) +
                               (r % 3 == 0 ? 0.5 : 0.0)};
  };
  TrajectoryBatchOptions fixed;
  fixed.threads = 1;
  fixed.root_seed = 17;
  fixed.replicas = 32;
  const TrajectoryBatchResult full =
      run_trajectory_batch({"x"}, fixed, value_at);
  TrajectoryBatchOptions adaptive = fixed;
  StoppingRule rule;
  rule.metric = "x";
  rule.relative = true;
  rule.tolerance = 0.001;
  rule.min_replicas = 8;
  rule.max_replicas = 32;
  rule.wave = 8;
  adaptive.stopping = rule;
  const TrajectoryBatchResult stopped =
      run_trajectory_batch({"x"}, adaptive, value_at);
  ASSERT_LE(stopped.replicas(), full.replicas());
  for (std::size_t r = 0; r < stopped.replicas(); ++r) {
    EXPECT_EQ(stopped.value(r, 0), full.value(r, 0)) << "replica " << r;
  }
}

TEST(Trajectory, ValidationRejectsBadOptions) {
  const auto run_one = [](const TrajectoryBatchOptions& options) {
    return run_trajectory_batch(
        {"x"}, options,
        [](std::size_t, std::uint64_t) { return std::vector<double>{1.0}; });
  };
  TrajectoryBatchOptions options;
  options.threads = 1;
  options.replicas = 0;
  EXPECT_THROW(run_one(options), std::invalid_argument);
  options.replicas = 2;

  StoppingRule rule;
  rule.metric = "x";
  rule.tolerance = 0.1;
  options.stopping = rule;
  EXPECT_NO_THROW(run_one(options));
  options.stopping->tolerance = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_one(options), std::invalid_argument);
  options.stopping->tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_one(options), std::invalid_argument);
  options.stopping->tolerance = -0.5;
  EXPECT_THROW(run_one(options), std::invalid_argument);
  options.stopping->tolerance = 0.1;
  options.stopping->metric = "nope";
  EXPECT_THROW(run_one(options), std::invalid_argument);
  options.stopping->metric = "x";
  options.stopping->min_replicas = 1;
  EXPECT_THROW(run_one(options), std::invalid_argument);
  options.stopping->min_replicas = 8;
  options.stopping->max_replicas = 4;
  EXPECT_THROW(run_one(options), std::invalid_argument);
  options.stopping->max_replicas = 1024;
  options.stopping->wave = 0;
  EXPECT_THROW(run_one(options), std::invalid_argument);

  // The result type itself rejects an empty batch.
  EXPECT_THROW(TrajectoryBatchResult({"x"}, 0, {}, 0), std::invalid_argument);
}

TEST(Trajectory, ProvenanceDefaultsForFixedBatches) {
  const TrajectoryBatchResult result({"x"}, 3, {1.0, 2.0, 3.0}, 0);
  EXPECT_EQ(result.replicas_requested(), 3u);
  EXPECT_EQ(result.stop_reason(), StopReason::kFixedReplicas);
  EXPECT_STREQ(stop_reason_name(result.stop_reason()), "fixed");
}

TEST(Trajectory, PlanNestedLanesGivesThePoolToExactlyOneLevel) {
  // Serial: nobody gets lanes.
  NestedLanePlan plan = plan_nested_lanes(8, 1, 200000, 8192);
  EXPECT_EQ(plan.replica_lanes, 1u);
  EXPECT_EQ(plan.epoch_lanes, 1u);
  // Small population: sharding can't pay off, replicas take the pool.
  plan = plan_nested_lanes(2, 8, 1000, 8192);
  EXPECT_EQ(plan.replica_lanes, 8u);
  EXPECT_EQ(plan.epoch_lanes, 1u);
  // Wide batch over a big population: replica fan-out still wins.
  plan = plan_nested_lanes(32, 8, 200000, 8192);
  EXPECT_EQ(plan.replica_lanes, 8u);
  EXPECT_EQ(plan.epoch_lanes, 1u);
  // Narrow batch over a big population: the epoch shards get the pool.
  plan = plan_nested_lanes(1, 8, 200000, 8192);
  EXPECT_EQ(plan.replica_lanes, 1u);
  EXPECT_EQ(plan.epoch_lanes, 8u);
  // Never both >1 — nested parallel_for on one shared pool can deadlock.
  for (std::size_t replicas : {1u, 3u, 8u, 64u}) {
    for (std::size_t miners : {100u, 10000u, 1000000u}) {
      const NestedLanePlan p = plan_nested_lanes(replicas, 8, miners, 8192);
      EXPECT_TRUE(p.replica_lanes == 1 || p.epoch_lanes == 1);
      EXPECT_GE(p.replica_lanes * p.epoch_lanes, 1u);
    }
  }
}

// ------------------------------------------------- sharded decision epochs

chain::ChainSimOptions sharded_options(std::size_t lanes,
                                       chain::MinerPolicy policy,
                                       std::uint64_t seed) {
  chain::ChainSimOptions options;
  options.duration_hours = 24.0 * 10;
  options.policy = policy;
  options.reevaluation_fraction = 0.5;
  options.seed = seed;
  options.epoch_lanes = lanes;
  options.epoch_shard_cutoff = 0;  // shard even the 12-miner test population
  return options;
}

TEST(ShardedEpoch, BetterResponseBitIdenticalAcrossLaneCounts) {
  const auto one =
      run_chain(sharded_options(1, chain::MinerPolicy::kBetterResponse, 21));
  const auto four =
      run_chain(sharded_options(4, chain::MinerPolicy::kBetterResponse, 21));
  EXPECT_GT(one.migrations, 0u);
  expect_chain_results_equal(one, four);
}

TEST(ShardedEpoch, MyopicEdaChurnBitIdenticalAcrossLaneCounts) {
  auto options =
      sharded_options(1, chain::MinerPolicy::kMyopicDifficulty, 22);
  options.myopic_hysteresis = 0.05;
  const auto one = run_chain(options, /*eda=*/true);
  options.epoch_lanes = 4;
  const auto four = run_chain(options, /*eda=*/true);
  EXPECT_GT(one.migrations, 10u);
  expect_chain_results_equal(one, four);
}

TEST(ShardedEpoch, RewardHookAndExternalPoolBitIdentical) {
  // Reward hooks, a non-trivial initial assignment, and a caller-owned
  // pool (the nested-arbitration path) — against the 1-lane reference.
  const auto build = [](std::size_t lanes, engine::ThreadPool* pool) {
    std::vector<chain::ChainSpec> chains;
    chains.push_back(make_chain("a", 300.0, 20.0));
    chains.push_back(make_chain("b", 300.0, 20.0));
    chain::ChainSimOptions options;
    options.duration_hours = 24.0 * 8;
    options.policy = chain::MinerPolicy::kBetterResponse;
    options.seed = 24;
    options.epoch_lanes = lanes;
    options.epoch_shard_cutoff = 0;
    options.epoch_pool = pool;
    chain::MultiChainSimulator sim({10.0, 20.0, 30.0, 40.0, 50.0},
                                   std::move(chains), options,
                                   {0, 1, 0, 1, 0});
    sim.set_reward_hook([](std::size_t c, double t) {
      return 20.0 + (c == 0 ? 1.0 : -1.0) * 5.0 * std::sin(t / 24.0);
    });
    return sim.run();
  };
  engine::ThreadPool pool(3);
  expect_chain_results_equal(build(1, nullptr), build(4, &pool));
}

// ------------------------------------------------ pinned legacy trajectories
// The simulators once shipped a second, reference event engine (a
// std::function callback queue with full-population block scans, and a
// rebuild-per-epoch market loop) and checked the event core against it run
// by run. That engine is gone; its answers stay, recorded here. Each value
// was produced by the reference engine on the scenario below, and the event
// core reproduced it (the same table passed on both engines before the
// reference was deleted). Hashes are exact. `share_prediction_mae` is
// compared to 1e-9: the reference engine added each miner's prediction per
// block, the event core settles a stint integral, and the two sums round
// differently.

struct PinnedRun {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;  ///< chain runs: events_dispatched
  double mae = std::numeric_limits<double>::quiet_NaN();  ///< chain runs
};

PinnedRun pin(const chain::ChainSimResult& result) {
  return {chain_result_hash(result), result.events_dispatched,
          result.share_prediction_mae};
}

PinnedRun pin(const std::vector<market::EpochRecord>& records) {
  PinnedRun run;
  run.hash = market_records_hash(records);
  return run;
}

/// The scenarios, in table order.
std::vector<std::pair<std::string, std::function<PinnedRun()>>>
pinned_scenarios() {
  std::vector<std::pair<std::string, std::function<PinnedRun()>>> out;
  out.emplace_back("chain/static", [] {
    chain::ChainSimOptions options;
    options.duration_hours = 24.0 * 10;
    options.policy = chain::MinerPolicy::kStatic;
    options.seed = 11;
    return pin(run_chain(options));
  });
  // Migrations invalidate in-flight block races mid-flight.
  out.emplace_back("chain/better-response-invalidation", [] {
    chain::ChainSimOptions options;
    options.duration_hours = 24.0 * 15;
    options.policy = chain::MinerPolicy::kBetterResponse;
    options.reevaluation_fraction = 0.5;
    options.seed = 12;
    return pin(run_chain(options));
  });
  out.emplace_back("chain/myopic-eda-sawtooth", [] {
    chain::ChainSimOptions options;
    options.duration_hours = 24.0 * 10;
    options.policy = chain::MinerPolicy::kMyopicDifficulty;
    options.reevaluation_fraction = 0.5;
    options.myopic_hysteresis = 0.05;
    options.seed = 13;
    return pin(run_chain(options, /*eda=*/true));
  });
  out.emplace_back("chain/reward-hook-initial-assignment", [] {
    std::vector<chain::ChainSpec> chains;
    chains.push_back(make_chain("a", 300.0, 20.0));
    chains.push_back(make_chain("b", 300.0, 20.0));
    chain::ChainSimOptions options;
    options.duration_hours = 24.0 * 8;
    options.policy = chain::MinerPolicy::kBetterResponse;
    options.seed = 14;
    chain::MultiChainSimulator sim({10.0, 20.0, 30.0, 40.0, 50.0},
                                   std::move(chains), options, {0, 1, 0, 1, 0});
    sim.set_reward_hook([](std::size_t c, double t) {
      return 20.0 + (c == 0 ? 1.0 : -1.0) * 5.0 * std::sin(t / 24.0);
    });
    return pin(sim.run());
  });
  out.emplace_back("chain/sharded-4-lanes", [] {
    return pin(
        run_chain(sharded_options(4, chain::MinerPolicy::kBetterResponse, 23)));
  });
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    out.emplace_back("chain/eda-seed-" + std::to_string(seed), [seed] {
      chain::ChainSimOptions options;
      options.duration_hours = 24.0 * 12;
      options.policy = chain::MinerPolicy::kMyopicDifficulty;
      options.reevaluation_fraction = 0.5;
      options.seed = seed;
      return pin(run_chain(options, /*eda=*/true));
    });
  }
  out.emplace_back("fig1/replay", [] {
    market::Fig1ReplayParams params;
    params.miners = 24;
    params.days = 8.0;
    params.shock_day = 3.0;
    params.revert_day = 5.0;
    params.seed = 99;
    PinnedRun run;
    run.hash = market::fig1_result_hash(market::run_fig1_replay(params));
    return run;
  });
  out.emplace_back("market/epoch-records", [] {
    market::MarketOptions options;
    options.epochs = 24 * 6;
    options.seed = 77;
    return pin(build_market(options).run());
  });
  out.emplace_back("market/whale-injection", [] {
    market::MarketOptions options;
    options.epochs = 24 * 3;
    options.seed = 78;
    options.br_steps_per_epoch = 0;  // run to convergence each epoch
    return pin(build_market(options, /*whale=*/true).run());
  });
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    out.emplace_back("market/scheduler-" + scheduler_kind_name(kind), [kind] {
      market::MarketOptions options;
      options.epochs = 24 * 2;
      options.seed = 80 + static_cast<std::uint64_t>(kind);
      options.scheduler = kind;
      return pin(build_market(options).run());
    });
  }
  return out;
}

struct PinnedValues {
  const char* name;
  std::uint64_t hash;
  std::uint64_t events;
  double mae;
};

constexpr double kNoMae = std::numeric_limits<double>::quiet_NaN();

// Recorded from the reference engine; see the section comment.
constexpr PinnedValues kPinned[] = {
    {"chain/static", 6492623016476424595ULL, 310, 0.018535586277521787},
    {"chain/better-response-invalidation", 17780613903069505010ULL, 455, 0.023235814370011376},
    {"chain/myopic-eda-sawtooth", 9756711445178017504ULL, 3049, 0.0054489180092608417},
    {"chain/reward-hook-initial-assignment", 10202793117409352092ULL, 296, 0.046503945894445425},
    {"chain/sharded-4-lanes", 8701192556741131492ULL, 332, 0.021962157045545053},
    {"chain/eda-seed-100", 2169748435066047818ULL, 3784, 0.0046142076419176782},
    {"chain/eda-seed-101", 15576344102550215067ULL, 3938, 0.003987807148466989},
    {"chain/eda-seed-102", 4280956760654867071ULL, 3692, 0.0069524901037479291},
    {"chain/eda-seed-103", 8903328076492578129ULL, 3816, 0.0041997345109259865},
    {"chain/eda-seed-104", 9258589291356467040ULL, 3921, 0.0059697459305340338},
    {"chain/eda-seed-105", 11642910200222351156ULL, 3895, 0.0035433369286745598},
    {"chain/eda-seed-106", 8850698542157805081ULL, 3814, 0.004522035552428718},
    {"chain/eda-seed-107", 11797325717172566771ULL, 3917, 0.0039970534575095732},
    {"fig1/replay", 4873852542653740286ULL, 0, kNoMae},
    {"market/epoch-records", 15730023970706507474ULL, 0, kNoMae},
    {"market/whale-injection", 17970232122422400821ULL, 0, kNoMae},
    {"market/scheduler-random-move", 13521181831354141195ULL, 0, kNoMae},
    {"market/scheduler-random-miner", 2323079514000714507ULL, 0, kNoMae},
    {"market/scheduler-round-robin", 7791414735108636785ULL, 0, kNoMae},
    {"market/scheduler-max-gain", 6620611765559061083ULL, 0, kNoMae},
    {"market/scheduler-min-gain", 12122187912539657354ULL, 0, kNoMae},
    {"market/scheduler-largest-first", 17690786063172751089ULL, 0, kNoMae},
    {"market/scheduler-smallest-first", 12617805208235931459ULL, 0, kNoMae},
    {"market/scheduler-lexicographic", 6797867931723232600ULL, 0, kNoMae},
};

TEST(PinnedTrajectories, FlatEngineMatchesRecordedLegacyValues) {
  const auto scenarios = pinned_scenarios();
  ASSERT_EQ(scenarios.size(), std::size(kPinned));
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const PinnedValues& want = kPinned[i];
    ASSERT_EQ(scenarios[i].first, want.name);
    const PinnedRun got = scenarios[i].second();
    EXPECT_EQ(got.hash, want.hash) << want.name;
    EXPECT_EQ(got.events, want.events) << want.name;
    if (std::isnan(want.mae)) {
      EXPECT_TRUE(std::isnan(got.mae)) << want.name;
    } else {
      EXPECT_NEAR(got.mae, want.mae, 1e-9) << want.name;
    }
  }
}

// ------------------------------------------------ Monte Carlo stress (slow)
// These run in the `test_sim_slow` CTest entry (label `slow`): Debug/ASan
// lanes skip them, the Release lanes run everything.

TEST(SimSlow, Fig1BatchThreadInvariance) {
  market::Fig1ReplayParams params;
  params.miners = 16;
  params.days = 6.0;
  params.shock_day = 2.0;
  params.revert_day = 4.0;
  TrajectoryBatchOptions options;
  options.replicas = 6;
  options.root_seed = 1711;
  options.threads = 1;
  const TrajectoryBatchResult serial =
      market::run_fig1_replay_batch(params, options);
  options.threads = 4;
  const TrajectoryBatchResult wide =
      market::run_fig1_replay_batch(params, options);
  EXPECT_TRUE(serial.deterministic_equals(wide));
  // The shock pulls hashrate toward the minor chain in every replica.
  EXPECT_GT(serial.summary("flip_window_share").min,
            serial.summary("pre_shock_share").mean);
}

TEST(SimSlow, ChainBatchAggregatesValidateModel) {
  TrajectoryBatchOptions options;
  options.replicas = 12;
  options.threads = 0;  // all cores
  options.root_seed = 9;
  const TrajectoryBatchResult result = run_chain_batch(
      [](std::uint64_t seed) {
        std::vector<chain::ChainSpec> chains;
        chains.push_back(make_chain("solo", 600.0, 10.0));
        chain::ChainSimOptions options;
        options.duration_hours = 24.0 * 30;
        options.policy = chain::MinerPolicy::kStatic;
        options.seed = seed;
        options.record_timeline = false;
        return chain::MultiChainSimulator({100.0, 50.0, 30.0, 20.0},
                                          std::move(chains), options);
      },
      options);
  // Law of large numbers: the proportional-split MAE is small in mean and
  // its CI is tight across replicas (the E9 claim, now variance-quantified).
  const MetricSummary& mae = result.summary("share_mae");
  EXPECT_LT(mae.mean, 0.02);
  EXPECT_LT(mae.ci95_halfwidth, 0.02);
  EXPECT_EQ(result.summary("migrations").max, 0.0);
}

}  // namespace
}  // namespace goc::sim
