/// \file bench_chain_validation.cpp
/// Experiment E9 — grounding the model: proof-of-work reward shares and
/// difficulty dynamics.
///
/// The paper's model assumes each coin divides its reward in proportion to
/// invested power. Part A validates that abstraction from first principles
/// as a Monte Carlo batch: R independent block-race replicas per horizon,
/// fanned across the thread pool by the trajectory engine, each miner's
/// realized fiat share converging to its power share (law of large numbers
/// over block lotteries) — now with the variance quantified (mean ± 95% CI
/// across replicas, bit-identical at any `--threads`). Part B shows the
/// migration equilibrium of the induced game emerging from chain-level
/// dynamics. Part C exhibits what the abstraction hides: the EDA
/// difficulty rule plus myopic profitability-chasers yields the 2017
/// hashrate sawtooth (Figure 1b's fine structure), while game-semantics
/// miners settle.

#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "chain/chain_sim.hpp"
#include "chain/difficulty.hpp"
#include "sim/trajectory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  using namespace goc::chain;
  const Cli cli(argc, argv);
  const std::uint64_t seed0 = cli.get_u64("seed", 9);
  const bool quick = cli.get_bool("quick", false);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores
  const std::size_t replicas = cli.get_u64("replicas", quick ? 4 : 16);
  // --adaptive: replace the fixed replica count with a CI-driven stopping
  // rule on share_mae — replicas is then the floor, 8x replicas the cap.
  const bool adaptive = cli.get_bool("adaptive", false);

  bench::banner("E9 — chain-level validation of the proportional-reward "
                "model",
                "Exponential block races with power-proportional winner "
                "lotteries; difficulty adjustment per real protocols. "
                "Part A is a Monte Carlo batch (mean ± 95% CI over " +
                    std::to_string(replicas) + " replicas).");

  // Builds the Part A single-chain validation scenario.
  const auto make_validation = [&](double days, std::uint64_t seed) {
    std::vector<ChainSpec> chains;
    chains.push_back(ChainSpec{"solo", 600.0, 1.0 / 6.0, 10.0,
                               std::make_unique<FixedWindowRetarget>(
                                   10, 1.0 / 6.0)});
    ChainSimOptions opts;
    opts.duration_hours = days * 24.0;
    opts.policy = MinerPolicy::kStatic;
    opts.seed = seed;
    opts.record_timeline = false;
    return MultiChainSimulator({100.0, 50.0, 30.0, 20.0}, std::move(chains),
                               opts);
  };

  // Part A: realized vs predicted reward share, by horizon — batched.
  Table share({"horizon_days", "replicas", "stop", "blocks_mean",
               "share_MAE_mean", "share_MAE_ci95", "largest_realized_mean",
               "largest_power_share"});
  for (const double days : {2.0, 10.0, 60.0, 240.0}) {
    sim::TrajectoryBatchOptions batch;
    batch.replicas = replicas;
    batch.root_seed = seed0 + static_cast<std::uint64_t>(days);
    batch.threads = threads;
    if (adaptive) {
      sim::StoppingRule rule;
      rule.metric = "share_mae";
      rule.tolerance = 0.25;  // 25% relative half-width on the MAE trend
      rule.relative = true;
      rule.min_replicas = std::max<std::size_t>(2, replicas);
      rule.max_replicas = 8 * std::max<std::size_t>(2, replicas);
      rule.wave = std::max<std::size_t>(2, replicas);
      batch.stopping = rule;
    }
    // --stop-* / --checkpoint override the --adaptive preset; the horizon
    // suffix keeps the four studies from sharing one checkpoint file
    // (their root seeds differ, so a shared file would refuse to resume).
    bench::apply_batch_cli(cli, batch);
    if (batch.checkpoint.has_value()) {
      batch.checkpoint->path +=
          "." + std::to_string(static_cast<int>(days)) + "d";
    }
    const sim::TrajectoryBatchResult result = sim::run_trajectory_batch(
        {"blocks", "share_mae", "largest_realized"}, batch,
        [&](std::size_t, std::uint64_t seed) {
          MultiChainSimulator sim = make_validation(days, seed);
          const ChainSimResult r = sim.run();
          double total = 0.0;
          for (const double v : r.miner_rewards_fiat) total += v;
          return std::vector<double>{
              static_cast<double>(r.blocks_per_chain[0]),
              r.share_prediction_mae,
              total > 0.0 ? r.miner_rewards_fiat[0] / total : 0.0};
        });
    share.row() << fmt_double(days, 0)
                << (fmt_group(result.replicas()) + "/" +
                    fmt_group(result.replicas_requested()))
                << sim::stop_reason_name(result.stop_reason())
                << fmt_double(result.summary("blocks").mean, 0)
                << fmt_double(result.summary("share_mae").mean, 4)
                << fmt_double(result.summary("share_mae").ci95_halfwidth, 4)
                << fmt_double(result.summary("largest_realized").mean, 3)
                << fmt_double(0.5, 3);
  }
  bench::emit(cli, share,
              "Part A — reward share vs power share, Monte Carlo "
              "(theory: MAE -> 0 as horizon grows)",
              "share");

  // Part B: migration equilibrium from chain dynamics.
  Table split({"weights", "predicted_heavy_share", "simulated_heavy_share"});
  for (const auto& [heavy, light] :
       std::vector<std::pair<double, double>>{{30, 10}, {20, 20}, {50, 10}}) {
    const auto result = [&, heavy = heavy, light = light] {
      std::vector<ChainSpec> chains;
      chains.push_back(
          ChainSpec{"heavy", 600.0, 1.0 / 6.0, heavy,
                    std::make_unique<FixedWindowRetarget>(10, 1.0 / 6.0)});
      chains.push_back(
          ChainSpec{"light", 600.0, 1.0 / 6.0, light,
                    std::make_unique<FixedWindowRetarget>(10, 1.0 / 6.0)});
      ChainSimOptions opts;
      opts.duration_hours = 24.0 * 20;
      opts.policy = MinerPolicy::kBetterResponse;
      opts.reevaluation_fraction = 0.5;
      opts.seed = seed0 + 1;
      std::vector<double> powers(16, 10.0);
      return MultiChainSimulator(std::move(powers), std::move(chains), opts)
          .run();
    }();
    const auto& last = result.timeline.back();
    const double total = last.hashrate[0] + last.hashrate[1];
    split.row() << (fmt_double(heavy, 0) + ":" + fmt_double(light, 0))
                << fmt_double(heavy / (heavy + light), 3)
                << fmt_double(last.hashrate[0] / total, 3);
  }
  bench::emit(cli, split,
              "Part B — hashrate split at migration equilibrium "
              "(theory: proportional to coin weights)",
              "split");

  // Part C: EDA sawtooth vs game-semantics stability.
  Table churn({"policy", "migrations", "late_share_changes", "bch_share_sd%"});
  for (const MinerPolicy policy :
       {MinerPolicy::kMyopicDifficulty, MinerPolicy::kBetterResponse}) {
    const auto result = [&] {
      std::vector<ChainSpec> chains;
      chains.push_back(
          ChainSpec{"btc", 20.0, 1.0 / 6.0, 60.0,
                    std::make_unique<SmaRetarget>(20, 1.0 / 6.0, 1.2)});
      chains.push_back(ChainSpec{"bch", 20.0, 1.0 / 6.0, 10.0,
                                 std::make_unique<EmergencyAdjuster>(
                                     20, 1.0 / 6.0, 0.5, 0.20)});
      ChainSimOptions opts;
      opts.duration_hours = 24.0 * 20;
      opts.policy = policy;
      opts.reevaluation_fraction = 0.5;
      opts.seed = seed0 + 2;
      std::vector<double> powers(12, 10.0);
      return MultiChainSimulator(std::move(powers), std::move(chains), opts)
          .run();
    }();
    std::size_t late_changes = 0;
    double mean = 0.0, m2 = 0.0;
    std::size_t count = 0;
    for (std::size_t i = result.timeline.size() / 2;
         i < result.timeline.size(); ++i) {
      const auto& p = result.timeline[i];
      const double bch_share = p.hashrate[1] / (p.hashrate[0] + p.hashrate[1]);
      ++count;
      const double delta = bch_share - mean;
      mean += delta / static_cast<double>(count);
      m2 += delta * (bch_share - mean);
      if (i + 1 < result.timeline.size() &&
          std::fabs(result.timeline[i + 1].hashrate[1] - p.hashrate[1]) >
              1e-9) {
        ++late_changes;
      }
    }
    const double sd =
        count > 1 ? std::sqrt(m2 / static_cast<double>(count - 1)) : 0.0;
    churn.row() << (policy == MinerPolicy::kMyopicDifficulty
                        ? "myopic (reward/difficulty)"
                        : "game better-response")
                << result.migrations << std::uint64_t(late_changes)
                << fmt_double(100.0 * sd, 2);
  }
  bench::emit(cli, churn,
              "Part C — EDA sawtooth: myopic chasers churn forever, "
              "game-semantics miners settle",
              "churn");

  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
