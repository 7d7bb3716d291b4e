#include "sim/trajectory.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace goc::sim {

namespace {

struct BatchMetrics {
  obs::Counter& batches;
  obs::Counter& replicas_run;
  obs::Counter& replicas_saved;
  obs::Histogram& wave_ns;
  obs::Histogram& checkpoint_write_ns;
  obs::Histogram& wall_ns;

  static BatchMetrics& get() {
    static BatchMetrics m{
        obs::Registry::instance().counter("sim.batch.batches"),
        obs::Registry::instance().counter("sim.batch.replicas_run"),
        obs::Registry::instance().counter("sim.batch.replicas_saved"),
        obs::Registry::instance().histogram("sim.batch.wave_ns"),
        obs::Registry::instance().histogram("sim.batch.checkpoint_write_ns"),
        obs::Registry::instance().histogram("sim.batch.wall_ns"),
    };
    return m;
  }
};

}  // namespace

const char* stop_reason_name(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kFixedReplicas:
      return "fixed";
    case StopReason::kToleranceMet:
      return "tolerance";
    case StopReason::kMaxReplicas:
      return "max-replicas";
  }
  return "unknown";
}

NestedLanePlan plan_nested_lanes(std::size_t replicas, std::size_t lanes,
                                 std::size_t miners,
                                 std::size_t epoch_cutoff) noexcept {
  NestedLanePlan plan;
  if (lanes == 0) lanes = engine::ThreadPool::default_threads();
  if (lanes <= 1) return plan;  // serial everywhere: {1, 1}
  if (miners < epoch_cutoff) {
    plan.replica_lanes = lanes;  // population too small to shard an epoch
    return plan;
  }
  // Both levels could use the pool; give it to the replica fan-out whenever
  // the batch is wide enough to keep at least half the lanes busy (replica
  // parallelism has no serial apply phase, so it scales strictly better).
  // Only a batch too narrow to feed the lanes hands the pool down to the
  // epoch evaluate shards.
  if (replicas * 2 >= lanes) {
    plan.replica_lanes = lanes;
  } else {
    plan.epoch_lanes = lanes;
  }
  return plan;
}

TrajectoryBatchResult::TrajectoryBatchResult(
    std::vector<std::string> metric_names, std::size_t replicas,
    std::vector<double> values, std::uint64_t root_seed,
    std::size_t replicas_requested, StopReason stop_reason)
    : names_(std::move(metric_names)),
      replicas_(replicas),
      root_seed_(root_seed),
      replicas_requested_(replicas_requested == 0 ? replicas
                                                  : replicas_requested),
      stop_reason_(stop_reason),
      values_(std::move(values)) {
  GOC_CHECK_ARG(replicas_ >= 1, "a batch needs at least one replica");
  GOC_CHECK_ARG(!names_.empty(), "a batch needs at least one metric");
  GOC_CHECK_ARG(values_.size() == replicas_ * names_.size(),
                "value matrix arity mismatch");
  // Welford in replica order: the summaries are a pure function of the
  // value matrix, so they inherit its thread-count invariance.
  summaries_.resize(names_.size());
  for (std::size_t m = 0; m < names_.size(); ++m) {
    MetricSummary& s = summaries_[m];
    s.name = names_[m];
    s.replicas = replicas_;
    double mean = 0.0, m2 = 0.0;
    for (std::size_t r = 0; r < replicas_; ++r) {
      const double x = value(r, m);
      if (r == 0) {
        s.min = s.max = x;
      } else {
        s.min = std::min(s.min, x);
        s.max = std::max(s.max, x);
      }
      const double delta = x - mean;
      mean += delta / static_cast<double>(r + 1);
      m2 += delta * (x - mean);
    }
    s.mean = mean;
    if (replicas_ > 1) {
      s.variance = m2 / static_cast<double>(replicas_ - 1);
      s.stddev = std::sqrt(s.variance);
      s.ci95_halfwidth = 1.959963984540054 * s.stddev /
                         std::sqrt(static_cast<double>(replicas_));
    }
  }
}

const MetricSummary& TrajectoryBatchResult::summary(
    const std::string& name) const {
  for (const MetricSummary& s : summaries_) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown metric name: " + name);
}

std::uint64_t TrajectoryBatchResult::values_hash() const noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const double v : values_) fnv::mix_bytes(h, v);
  return h;
}

Table TrajectoryBatchResult::to_table(int precision) const {
  Table table({"metric", "mean", "ci95", "sd", "min", "max", "replicas"});
  for (const MetricSummary& s : summaries_) {
    table.row() << s.name << fmt_double(s.mean, precision)
                << fmt_double(s.ci95_halfwidth, precision)
                << fmt_double(s.stddev, precision)
                << fmt_double(s.min, precision) << fmt_double(s.max, precision)
                << std::uint64_t(s.replicas);
  }
  return table;
}

bool TrajectoryBatchResult::deterministic_equals(
    const TrajectoryBatchResult& other) const {
  if (names_ != other.names_ || replicas_ != other.replicas_ ||
      values_.size() != other.values_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(values_[i]) !=
        std::bit_cast<std::uint64_t>(other.values_[i])) {
      return false;
    }
  }
  return true;
}

TrajectoryBatchResult run_trajectory_batch(
    std::vector<std::string> metric_names,
    const TrajectoryBatchOptions& options,
    const std::function<std::vector<double>(std::size_t replica,
                                            std::uint64_t seed)>& replica) {
  GOC_CHECK_ARG(replica != nullptr, "a batch needs a replica function");
  const std::size_t metrics = metric_names.size();
  GOC_CHECK_ARG(metrics >= 1, "a batch needs at least one metric");

  std::size_t metric_index = 0;
  std::size_t requested = options.replicas;
  if (options.stopping.has_value()) {
    const StoppingRule& rule = *options.stopping;
    GOC_CHECK_ARG(std::isfinite(rule.tolerance) && rule.tolerance >= 0.0,
                  "stopping tolerance must be finite and non-negative");
    GOC_CHECK_ARG(rule.min_replicas >= 2,
                  "stopping needs min_replicas >= 2 (a CI needs a variance)");
    GOC_CHECK_ARG(rule.max_replicas >= rule.min_replicas,
                  "stopping needs max_replicas >= min_replicas");
    GOC_CHECK_ARG(rule.wave >= 1, "stopping needs a wave of >= 1 replicas");
    const auto it =
        std::find(metric_names.begin(), metric_names.end(), rule.metric);
    GOC_CHECK_ARG(it != metric_names.end(),
                  "stopping metric is not one of the batch's metrics");
    metric_index = static_cast<std::size_t>(it - metric_names.begin());
    requested = rule.max_replicas;
  } else {
    GOC_CHECK_ARG(options.replicas >= 1, "a batch needs at least one replica");
  }

  const replay::CheckpointOptions* ckpt =
      options.checkpoint.has_value() ? &*options.checkpoint : nullptr;
  if (ckpt != nullptr) {
    GOC_CHECK_ARG(!ckpt->path.empty(), "checkpointing needs a path");
    GOC_CHECK_ARG(ckpt->interval >= 1, "checkpoint interval must be >= 1");
  }
  if (options.on_progress) {
    GOC_CHECK_ARG(options.progress_interval >= 1,
                  "progress reporting needs an interval of >= 1 replicas");
  }

  BatchMetrics& metrics_obs = BatchMetrics::get();
  metrics_obs.batches.add();
  obs::Span wall(metrics_obs.wall_ns);

  const auto report = [&](std::size_t done, double ci) {
    if (options.on_progress) {
      BatchProgress progress;
      progress.completed = done;
      progress.requested = requested;
      progress.ci_halfwidth = ci;
      options.on_progress(progress);
    }
  };

  // Slot writes into a pre-sized matrix: replica r's value row depends only
  // on (root_seed, r), never on scheduling.
  std::vector<double> values(requested * metrics, 0.0);

  // Resume: a checkpoint's row prefix is ground truth (rows are pure
  // functions of (root_seed, r)), so adopting it and re-entering the wave
  // loop reproduces the uninterrupted run bit-for-bit. Salvage mode keeps
  // a damaged artifact's longest valid prefix — losing at most one wave —
  // while magic/version/header damage still surfaces as a typed error.
  std::size_t completed = 0;
  if (ckpt != nullptr && ckpt->resume && replay::file_exists(ckpt->path)) {
    const replay::BatchCheckpoint loaded =
        replay::BatchCheckpoint::load(ckpt->path, /*salvage=*/true);
    const auto mismatch = [&](const char* what) {
      throw replay::ReplayException(
          replay::ReplayError::kHeaderMismatch,
          std::string("checkpoint does not match this batch: ") + what);
    };
    if (loaded.root_seed != options.root_seed) mismatch("root seed differs");
    if (loaded.metric_names != metric_names) mismatch("metric names differ");
    if (loaded.adaptive != options.stopping.has_value()) {
      mismatch("fixed/adaptive mode differs");
    }
    if (loaded.replicas_requested != requested) {
      mismatch("replica ceiling differs");
    }
    if (options.config_hash != 0 && loaded.config_hash != options.config_hash) {
      mismatch("scenario config hash differs");
    }
    completed = std::min(loaded.completed, requested);
    std::copy(loaded.values.begin(),
              loaded.values.begin() +
                  static_cast<std::ptrdiff_t>(completed * metrics),
              values.begin());
  }

  const auto write_checkpoint = [&](std::size_t done) {
    replay::BatchCheckpoint cp;
    cp.root_seed = options.root_seed;
    cp.config_hash = options.config_hash;
    cp.metric_names = metric_names;
    cp.replicas_requested = requested;
    cp.adaptive = options.stopping.has_value();
    cp.completed = done;
    cp.values.assign(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(done * metrics));
    obs::Span span(metrics_obs.checkpoint_write_ns);
    cp.save(ckpt->path);
    if (ckpt->on_write) ckpt->on_write(done);
  };

  // Cancellation granularity is one replica: `parallel_for` stops handing
  // out indices after the first throw, so a cancel lands within one unit
  // of replica work plus whatever is already in flight.
  const auto run_range = [&](engine::ThreadPool& pool, std::size_t begin,
                             std::size_t end) {
    obs::Span span(metrics_obs.wave_ns);
    metrics_obs.replicas_run.add(end - begin);
    pool.parallel_for(end - begin, [&](std::size_t k) {
      options.cancel.throw_if_stale("trajectory batch cancelled");
      const std::size_t r = begin + k;
      const std::uint64_t seed = engine::task_seed(options.root_seed, r, 0);
      const std::vector<double> row = replica(r, seed);
      GOC_CHECK_ARG(row.size() == metrics,
                    "replica returned the wrong number of metrics");
      std::copy(row.begin(), row.end(), values.begin() + r * metrics);
    });
  };

  std::optional<engine::ThreadPool> owned;
  engine::ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    const std::size_t lanes =
        engine::ThreadPool::resolve_lanes(options.threads);
    owned.emplace(engine::ThreadPool::workers_for(lanes));
    pool = &*owned;
  }

  options.cancel.throw_if_stale("trajectory batch cancelled before start");

  std::size_t run_count = 0;
  StopReason reason = StopReason::kFixedReplicas;
  if (!options.stopping.has_value()) {
    if (ckpt == nullptr && !options.on_progress) {
      run_range(*pool, 0, requested);
    } else {
      // Interval chunks aligned to multiples of `interval` regardless of
      // where a salvaged prefix landed, so the persisted boundaries are
      // the same whether or not the batch was ever interrupted. Progress
      // reporting reuses the same chunking (checkpoint interval when both
      // are on — one wave, two observers); slot writes keep the value
      // matrix bit-identical however the range is carved up.
      const std::size_t interval =
          ckpt != nullptr ? ckpt->interval : options.progress_interval;
      while (completed < requested) {
        const std::size_t next =
            std::min(requested, ((completed / interval) + 1) * interval);
        run_range(*pool, completed, next);
        completed = next;
        if (ckpt != nullptr) write_checkpoint(completed);
        report(completed, 0.0);
      }
    }
    run_count = requested;
  } else {
    const StoppingRule& rule = *options.stopping;
    reason = StopReason::kMaxReplicas;
    while (run_count < rule.max_replicas) {
      options.cancel.throw_if_stale("trajectory batch cancelled");
      // Wave boundaries depend only on (min_replicas, max_replicas, wave):
      // the first wave jumps straight to min_replicas, later ones add a
      // fixed `wave` — never a lane-count-derived amount.
      const std::size_t next =
          run_count == 0 ? rule.min_replicas
                         : std::min(rule.max_replicas, run_count + rule.wave);
      if (next > completed) {
        // A resumed prefix can end mid-wave (a salvaged artifact keeps
        // whatever rows survived); only the missing tail runs.
        run_range(*pool, completed, next);
        completed = next;
        if (ckpt != nullptr) write_checkpoint(completed);
      }
      run_count = next;
      // Welford over the replica-ordered prefix [0, run_count): the stop
      // decision is a pure function of the prefix, so the chosen R is
      // identical at any thread count.
      double mean = 0.0;
      double m2 = 0.0;
      for (std::size_t r = 0; r < run_count; ++r) {
        const double x = values[r * metrics + metric_index];
        const double delta = x - mean;
        mean += delta / static_cast<double>(r + 1);
        m2 += delta * (x - mean);
      }
      const double variance = m2 / static_cast<double>(run_count - 1);
      const double ci = 1.959963984540054 * std::sqrt(variance) /
                        std::sqrt(static_cast<double>(run_count));
      const double bound =
          rule.relative ? rule.tolerance * std::abs(mean) : rule.tolerance;
      report(run_count, ci);
      if (ci <= bound) {
        reason = StopReason::kToleranceMet;
        break;
      }
    }
    values.resize(run_count * metrics);
    metrics_obs.replicas_saved.add(requested - run_count);
  }
  return TrajectoryBatchResult(std::move(metric_names), run_count,
                               std::move(values), options.root_seed, requested,
                               reason);
}

// ------------------------------------------------------- simulator adapters

const std::vector<std::string>& chain_batch_metrics() {
  static const std::vector<std::string> kNames = {
      "blocks_total", "blocks_share_chain0", "migrations", "share_mae",
      "reward_total_fiat"};
  return kNames;
}

std::vector<double> chain_replica_metrics(const chain::ChainSimResult& result) {
  std::uint64_t blocks = 0;
  for (const std::uint64_t b : result.blocks_per_chain) blocks += b;
  double reward = 0.0;
  for (const double r : result.miner_rewards_fiat) reward += r;
  const double share0 =
      blocks > 0 ? static_cast<double>(result.blocks_per_chain[0]) /
                       static_cast<double>(blocks)
                 : 0.0;
  return {static_cast<double>(blocks), share0,
          static_cast<double>(result.migrations), result.share_prediction_mae,
          reward};
}

TrajectoryBatchResult run_chain_batch(
    const std::function<chain::MultiChainSimulator(std::uint64_t seed)>&
        make_replica,
    const TrajectoryBatchOptions& options) {
  GOC_CHECK_ARG(make_replica != nullptr, "chain batch needs a factory");
  return run_trajectory_batch(
      chain_batch_metrics(), options,
      [&make_replica](std::size_t, std::uint64_t seed) {
        chain::MultiChainSimulator sim = make_replica(seed);
        return chain_replica_metrics(sim.run());
      });
}

const std::vector<std::string>& market_batch_metrics() {
  static const std::vector<std::string> kNames = {
      "mean_share_coin0", "final_share_coin0", "equilibrium_fraction",
      "br_steps_total", "final_price_coin0"};
  return kNames;
}

std::vector<double> market_replica_metrics(
    const std::vector<market::EpochRecord>& records) {
  double share_sum = 0.0;
  double at_eq = 0.0;
  double steps = 0.0;
  for (const market::EpochRecord& r : records) {
    share_sum += r.hashrate_share[0];
    if (r.at_equilibrium) at_eq += 1.0;
    steps += static_cast<double>(r.br_steps);
  }
  const double n = records.empty() ? 1.0 : static_cast<double>(records.size());
  const double final_share =
      records.empty() ? 0.0 : records.back().hashrate_share[0];
  const double final_price = records.empty() ? 0.0 : records.back().prices[0];
  return {share_sum / n, final_share, at_eq / n, steps, final_price};
}

TrajectoryBatchResult run_market_batch(
    const std::function<market::MarketSimulator(std::uint64_t seed)>&
        make_replica,
    const TrajectoryBatchOptions& options) {
  GOC_CHECK_ARG(make_replica != nullptr, "market batch needs a factory");
  return run_trajectory_batch(
      market_batch_metrics(), options,
      [&make_replica](std::size_t, std::uint64_t seed) {
        market::MarketSimulator sim = make_replica(seed);
        return market_replica_metrics(sim.run());
      });
}

TrajectoryBatchResult run_market_batch(const market::Scenario& scenario,
                                       const TrajectoryBatchOptions& options) {
  return run_market_batch(
      [&scenario](std::uint64_t seed) { return scenario.make_simulator(seed); },
      options);
}

// ------------------------------------------------------- trajectory hashes

std::uint64_t chain_result_hash(const chain::ChainSimResult& result) noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const std::uint64_t b : result.blocks_per_chain) fnv::mix_bytes(h, b);
  for (const double r : result.miner_rewards_fiat) fnv::mix_bytes(h, r);
  for (const std::uint64_t b : result.miner_blocks) fnv::mix_bytes(h, b);
  // share_prediction_mae is deliberately NOT hashed: the committed
  // GOLDEN_chain.gocr frames carry this hash and were recorded without it,
  // so adding it would invalidate every recorded chain trajectory.
  fnv::mix_bytes(h, result.migrations);
  for (const chain::TimelinePoint& p : result.timeline) {
    fnv::mix_bytes(h, p.t_hours);
    for (const double d : p.difficulty) fnv::mix_bytes(h, d);
    for (const double m : p.hashrate) fnv::mix_bytes(h, m);
    for (const std::uint64_t b : p.blocks) fnv::mix_bytes(h, b);
    for (const double w : p.reward_fiat) fnv::mix_bytes(h, w);
  }
  return h;
}

std::uint64_t market_records_hash(
    const std::vector<market::EpochRecord>& records) noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const market::EpochRecord& r : records) {
    fnv::mix_bytes(h, r.t_hours);
    for (const double p : r.prices) fnv::mix_bytes(h, p);
    for (const double w : r.weights) fnv::mix_bytes(h, w);
    for (const double s : r.hashrate_share) fnv::mix_bytes(h, s);
    fnv::mix_bytes(h, r.br_steps);
    fnv::mix_bytes(h, r.at_equilibrium ? std::uint64_t{1} : std::uint64_t{0});
  }
  return h;
}

}  // namespace goc::sim
