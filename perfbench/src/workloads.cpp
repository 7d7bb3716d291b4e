#include "workloads.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "chain/chain_sim.hpp"
#include "core/enumerate.hpp"
#include "core/generators.hpp"
#include "equilibrium/enumerate.hpp"
#include "market/scenario.hpp"
#include "obs/registry.hpp"
#include "sim/scenarios.hpp"
#include "sim/trajectory.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using goc::engine::ThreadPool;
using goc::sim::ReferenceChainParams;
using goc::sim::TrajectoryBatchOptions;

double elapsed_ms(std::uint64_t since_ns) {
  return static_cast<double>(goc::obs::now_ns() - since_ns) / 1e6;
}

/// Seeds drawn for a workload's `count` distinct requests: 32-bit so
/// protocol lines stay short; the workload name is folded in so workloads
/// never share seeds.
std::vector<std::uint64_t> draw_seeds(const std::string& workload,
                                      std::uint64_t seed, std::size_t count) {
  std::uint64_t h = goc::fnv::kOffset;
  for (const char c : workload) {
    goc::fnv::mix_word(h, static_cast<unsigned char>(c));
  }
  goc::Rng rng(seed ^ h);
  std::vector<std::uint64_t> seeds(count);
  for (auto& s : seeds) s = rng.next() & 0xffffffffULL;
  return seeds;
}

// ------------------------------------------------------------------ chain

/// Replays one chain batch through `run_trajectory_batch`, splitting each
/// replica into construction, run and row extraction.
std::uint64_t replay_chain_batch(const ReplayContext& ctx,
                                 const ReferenceChainParams& params,
                                 const TrajectoryBatchOptions& options,
                                 std::size_t replica_lanes) {
  ScopedSpan batch(ctx.tracer, "sim.batch", ctx.parent, ctx.request);
  const std::uint64_t start = goc::obs::now_ns();
  const goc::sim::TrajectoryBatchResult result = goc::sim::run_trajectory_batch(
      goc::sim::chain_batch_metrics(), options,
      [&](std::size_t, std::uint64_t seed) {
        ScopedSpan replica(ctx.tracer, "sim.replica", batch.id(), ctx.request);
        goc::chain::MultiChainSimulator sim = [&] {
          ScopedSpan span(ctx.tracer, "chain.construct", replica.id(),
                          ctx.request);
          return goc::sim::make_reference_chain(
              params, goc::sim::EngineKind::kFlat, seed);
        }();
        const goc::chain::ChainSimResult run = [&] {
          ScopedSpan span(ctx.tracer, "chain.run", replica.id(), ctx.request);
          return sim.run();
        }();
        ScopedSpan span(ctx.tracer, "sim.replica_metrics", replica.id(),
                        ctx.request);
        return goc::sim::chain_replica_metrics(run);
      });
  std::lock_guard<std::mutex> lock(ctx.stats->mutex);
  ctx.stats->batch_lane_ms +=
      static_cast<double>(replica_lanes) * elapsed_ms(start);
  return result.values_hash();
}

struct ChainSize {
  ReferenceChainParams params;
  std::size_t replicas;
};

Spec chain_serve_spec(const ChainSize& size, std::uint64_t seed) {
  Spec spec;
  spec.jobs = {"submit batch --scenario=chain-reference --miners=" +
               std::to_string(size.params.miners) +
               " --chains=" + std::to_string(size.params.chains) +
               " --days=" + std::to_string(static_cast<int>(size.params.days)) +
               " --replicas=" + std::to_string(size.replicas) +
               " --seed=" + std::to_string(seed)};
  spec.replay = [size, seed](const ReplayContext& ctx) {
    TrajectoryBatchOptions options;
    options.pool = ctx.pool;
    options.replicas = size.replicas;
    options.root_seed = seed;
    return std::vector<std::uint64_t>{
        replay_chain_batch(ctx, size.params, options, ctx.lanes)};
  };
  return spec;
}

/// The epoch-scale study: one `run_chain_batch` call whose lanes
/// `plan_nested_lanes` splits between replicas and the sharded epoch.
struct EpochStudy {
  ReferenceChainParams params;
  TrajectoryBatchOptions options;
  std::size_t replica_lanes = 1;

  EpochStudy(const ChainSize& size, std::uint64_t seed, ThreadPool* pool,
             std::size_t lanes)
      : params(size.params) {
    const goc::sim::NestedLanePlan plan = goc::sim::plan_nested_lanes(
        size.replicas, lanes, params.miners,
        goc::chain::ChainSimOptions{}.epoch_shard_cutoff);
    params.epoch_lanes = plan.epoch_lanes;
    replica_lanes = plan.replica_lanes;
    options.replicas = size.replicas;
    options.root_seed = seed;
    if (plan.replica_lanes > 1) {
      options.pool = pool;
    } else {
      options.threads = 1;
    }
  }
};

Spec epoch_scale_spec(const ChainSize& size, std::uint64_t seed) {
  Spec spec;
  spec.direct = [size, seed](ThreadPool& pool, std::size_t lanes) {
    const EpochStudy study(size, seed, &pool, lanes);
    const auto factory = [&study](std::uint64_t replica_seed) {
      return goc::sim::make_reference_chain(
          study.params, goc::sim::EngineKind::kFlat, replica_seed);
    };
    Outcome outcome;
    outcome.hashes = {
        goc::sim::run_chain_batch(factory, study.options).values_hash()};
    return outcome;
  };
  spec.replay = [size, seed](const ReplayContext& ctx) {
    const EpochStudy study(size, seed, ctx.pool, ctx.lanes);
    return std::vector<std::uint64_t>{replay_chain_batch(
        ctx, study.params, study.options, study.replica_lanes)};
  };
  return spec;
}

// ----------------------------------------------------------------- market

struct MarketSize {
  std::size_t miners;
  std::size_t coins;
  int days;
  std::size_t replicas;
};

Spec market_serve_spec(const MarketSize& size, std::uint64_t seed) {
  Spec spec;
  spec.jobs = {"submit batch --scenario=market-random --miners=" +
               std::to_string(size.miners) +
               " --coins=" + std::to_string(size.coins) +
               " --days=" + std::to_string(size.days) +
               " --replicas=" + std::to_string(size.replicas) +
               " --seed=" + std::to_string(seed)};
  spec.replay = [size, seed](const ReplayContext& ctx) {
    const goc::market::Scenario proto = [&] {
      ScopedSpan span(ctx.tracer, "market.prototype", ctx.parent, ctx.request);
      return goc::market::random_market_prototype(
          size.miners, size.coins, static_cast<double>(size.days), seed);
    }();
    ScopedSpan batch(ctx.tracer, "sim.batch", ctx.parent, ctx.request);
    const std::uint64_t start = goc::obs::now_ns();
    TrajectoryBatchOptions options;
    options.pool = ctx.pool;
    options.replicas = size.replicas;
    options.root_seed = seed;
    const goc::sim::TrajectoryBatchResult result =
        goc::sim::run_trajectory_batch(
            goc::sim::market_batch_metrics(), options,
            [&](std::size_t, std::uint64_t replica_seed) {
              ScopedSpan replica(ctx.tracer, "sim.replica", batch.id(),
                                 ctx.request);
              goc::market::MarketSimulator sim = [&] {
                ScopedSpan span(ctx.tracer, "market.stamp", replica.id(),
                                ctx.request);
                return proto.make_simulator(replica_seed);
              }();
              const std::vector<goc::market::EpochRecord> records = [&] {
                ScopedSpan span(ctx.tracer, "market.run", replica.id(),
                                ctx.request);
                return sim.run();
              }();
              std::uint64_t steps = 0;
              for (const auto& record : records) steps += record.br_steps;
              {
                std::lock_guard<std::mutex> lock(ctx.stats->mutex);
                ctx.stats->market_epochs += records.size();
                ctx.stats->market_br_steps += steps;
                ++ctx.stats->market_replicas;
              }
              ScopedSpan span(ctx.tracer, "sim.replica_metrics", replica.id(),
                              ctx.request);
              return goc::sim::market_replica_metrics(records);
            });
    std::lock_guard<std::mutex> lock(ctx.stats->mutex);
    ctx.stats->batch_lane_ms +=
        static_cast<double>(ctx.lanes) * elapsed_ms(start);
    return std::vector<std::uint64_t>{result.values_hash()};
  };
  return spec;
}

// ------------------------------------------------------------------- game

struct GameSize {
  std::size_t sweep_miners;
  std::size_t sweep_coins;
  std::size_t sweep_trials;
  std::size_t enum_miners;
  std::size_t enum_coins;
};

/// The daemon's sweep `values_hash` (serve/server.cpp, sweep job).
std::uint64_t sweep_hash(const goc::engine::SweepResult& result) {
  std::uint64_t h = goc::fnv::kOffset;
  for (const auto& record : result.records()) {
    goc::fnv::mix_bytes(h, static_cast<std::uint64_t>(record.task.grid_index));
    goc::fnv::mix_bytes(h, record.steps);
    goc::fnv::mix_bytes(h, record.move_hash);
    goc::fnv::mix_bytes(h, std::uint64_t{record.converged ? 1u : 0u});
    goc::fnv::mix_bytes(h, record.welfare_efficiency);
    goc::fnv::mix_bytes(h, record.rpu_fairness);
    goc::fnv::mix_bytes(h, record.max_domination_share);
    goc::fnv::mix_bytes(
        h, static_cast<std::uint64_t>(record.majority_controlled));
    goc::fnv::mix_bytes(h, static_cast<std::uint64_t>(record.occupied_coins));
  }
  return h;
}

/// The daemon's enumerate `values_hash` (serve/server.cpp, enumerate job).
std::uint64_t enumerate_hash(const goc::CanonicalEquilibria& found) {
  std::uint64_t h = goc::fnv::kOffset;
  for (std::size_t i = 0; i < found.representatives.size(); ++i) {
    goc::fnv::mix_bytes(
        h, static_cast<std::uint64_t>(found.representatives[i].hash()));
    goc::fnv::mix_bytes(h, found.orbit_sizes[i]);
  }
  return h;
}

/// One random game family: a sweep job (better-response learning under all
/// eight schedulers) and an enumerate job, submitted together.
Spec game_serve_spec(const GameSize& size, goc::PowerShape power,
                     goc::RewardShape reward, std::uint64_t sweep_seed,
                     std::uint64_t enum_seed) {
  std::string schedulers;
  for (const goc::SchedulerKind kind : goc::all_scheduler_kinds()) {
    if (!schedulers.empty()) schedulers += ",";
    schedulers += goc::scheduler_kind_name(kind);
  }
  const std::string& power_name = goc::power_shape_name(power);
  const std::string& reward_name = goc::reward_shape_name(reward);
  Spec spec;
  spec.jobs = {
      "submit sweep --miners=" + std::to_string(size.sweep_miners) +
          " --coins=" + std::to_string(size.sweep_coins) +
          " --power-shapes=" + power_name + " --reward-shapes=" + reward_name +
          " --schedulers=" + schedulers +
          " --trials=" + std::to_string(size.sweep_trials) +
          " --seed=" + std::to_string(sweep_seed),
      "submit enumerate --miners=" + std::to_string(size.enum_miners) +
          " --coins=" + std::to_string(size.enum_coins) +
          " --power-shape=" + power_name + " --reward-shape=" + reward_name +
          " --seed=" + std::to_string(enum_seed)};
  spec.replay = [=](const ReplayContext& ctx) {
    goc::engine::SweepSpec sweep;
    sweep.miner_counts = {size.sweep_miners};
    sweep.coin_counts = {size.sweep_coins};
    sweep.power_shapes = {power};
    sweep.reward_shapes = {reward};
    sweep.scheduler_kinds = goc::all_scheduler_kinds();
    sweep.trials = size.sweep_trials;
    sweep.root_seed = sweep_seed;
    goc::engine::SweepRunner::Options options;
    options.pool = ctx.pool;
    const goc::engine::SweepResult swept = [&] {
      ScopedSpan span(ctx.tracer, "engine.sweep", ctx.parent, ctx.request);
      return goc::engine::SweepRunner(options).run(sweep);
    }();

    goc::GameSpec game_spec;
    game_spec.num_miners = size.enum_miners;
    game_spec.num_coins = size.enum_coins;
    game_spec.power_shape = power;
    game_spec.reward_shape = reward;
    goc::Rng rng(enum_seed);
    const goc::Game game = [&] {
      ScopedSpan span(ctx.tracer, "core.random_game", ctx.parent, ctx.request);
      return goc::random_game(game_spec, rng);
    }();
    goc::EnumerationOptions enum_options;
    enum_options.pool = ctx.pool;
    const goc::CanonicalEquilibria found = [&] {
      ScopedSpan span(ctx.tracer, "equilibrium.enumerate", ctx.parent,
                      ctx.request);
      return goc::enumerate_canonical_equilibria(game, enum_options);
    }();
    const auto configs = goc::canonical_count(
        game.system(), goc::classes_for(game, enum_options));
    {
      std::lock_guard<std::mutex> lock(ctx.stats->mutex);
      ctx.stats->sweep_records.insert(ctx.stats->sweep_records.end(),
                                      swept.records().begin(),
                                      swept.records().end());
      ctx.stats->enumerate_configs += configs.value_or(0);
    }
    return std::vector<std::uint64_t>{sweep_hash(swept), enumerate_hash(found)};
  };
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"chain-serve", "epoch-scale",
                                                  "market-serve", "game-serve"};
  return kNames;
}

Workload make_workload(const std::string& name, bool small,
                       std::uint64_t seed) {
  // Each distinct request recurs (the client sends at least two rounds), and
  // a run's cost mix averages over all of them: the cheaper the request and
  // the more its cost varies with its seed, the more distinct requests.
  Workload workload;
  workload.name = name;
  const auto seeds = [&](std::size_t count) {
    return draw_seeds(name, seed, count);
  };
  if (name == "chain-serve") {
    const ChainSize size = small ? ChainSize{{32, 4, 2.0, 0}, 4}
                                 : ChainSize{{128, 8, 20.0, 0}, 16};
    for (const std::uint64_t s : seeds(16)) {
      workload.specs.push_back(chain_serve_spec(size, s));
    }
  } else if (name == "epoch-scale") {
    workload.via_serve = false;
    const ChainSize size = small ? ChainSize{{20000, 32, 1.0, 0}, 1}
                                 : ChainSize{{200000, 128, 0.25, 0}, 1};
    for (const std::uint64_t s : seeds(32)) {
      workload.specs.push_back(epoch_scale_spec(size, s));
    }
  } else if (name == "market-serve") {
    const MarketSize size = small ? MarketSize{16, 2, 5, 2}
                                  : MarketSize{48, 3, 10, 4};
    for (const std::uint64_t s : seeds(64)) {
      workload.specs.push_back(market_serve_spec(size, s));
    }
  } else if (name == "game-serve") {
    const GameSize size = small ? GameSize{30, 3, 2, 6, 3}
                                : GameSize{50, 4, 16, 13, 3};
    // Every run studies the same seven families, each four times; the seed
    // draws the games within each family, so the cost mix does not swing
    // with the seed. Uniform powers with uniform rewards are left out: their
    // equilibrium count is heavy-tailed (up to ~25k canonical equilibria,
    // ~12 MB, at 13 miners x 3 coins), so peak RSS would follow the seed's
    // worst game.
    using goc::PowerShape;
    using goc::RewardShape;
    const std::pair<PowerShape, RewardShape> families[] = {
        {PowerShape::kEqual, RewardShape::kUniform},
        {PowerShape::kZipf, RewardShape::kUniform},
        {PowerShape::kPareto, RewardShape::kUniform},
        {PowerShape::kEqual, RewardShape::kMajors},
        {PowerShape::kUniform, RewardShape::kMajors},
        {PowerShape::kZipf, RewardShape::kMajors},
        {PowerShape::kPareto, RewardShape::kMajors}};
    const std::vector<std::uint64_t> drawn = seeds(28);
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      const auto& [power, reward] = families[i % 7];
      workload.specs.push_back(game_serve_spec(
          size, power, reward, drawn[i],
          drawn[(i + 1) % drawn.size()] ^ 0x5eedULL));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

}  // namespace perfbench
