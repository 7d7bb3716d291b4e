/// \file bench_fig1_market.cpp
/// Experiment E1/E2 — Figure 1a/1b reproduction.
///
/// The paper's Figure 1 shows (a) the BTC and BCH exchange rates around
/// November 12, 2017 and (b) the corresponding hashrates, documenting a
/// reward-driven miner migration. The authors used public market data; we
/// regenerate the phenomenon with the scripted fork-flip market scenario
/// (DESIGN.md, Substitutions): a shock multiplies the minor coin's price
/// while the major dips, flipping the weight ordering, and the simulated
/// miner population's better-response dynamics produce the hashrate
/// crossover — then partially unwind after the reversal.
///
/// Expected shape (paper): BCH price spikes ≈3×, BTC dips ≈20%; BCH
/// hashrate share surges from a small fraction to a majority for the flip
/// window, then recedes. Absolute magnitudes are calibration, not claims.

#include <algorithm>

#include "bench_common.hpp"
#include "market/fig1_replay.hpp"
#include "market/scenario.hpp"
#include "sim/trajectory.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace goc;
  using namespace goc::market;
  const Cli cli(argc, argv);
  ForkFlipParams params;
  params.days = cli.get_double("days", 30.0);
  params.shock_day = cli.get_double("shock-day", 12.0);
  params.revert_day = cli.get_double("revert-day", 15.0);
  params.miners = cli.get_u64("miners", 64);
  params.seed = cli.get_u64("seed", 1711);
  const bool quick = cli.get_bool("quick", false);
  const std::size_t threads = cli.get_u64("threads", 0);  // 0 = all cores
  const std::size_t replicas = cli.get_u64("replicas", quick ? 4 : 12);
  // --adaptive: stop the replay batch once the flip-window share's 95% CI
  // is inside 2 percentage points (replicas = floor, 8x replicas = cap).
  const bool adaptive = cli.get_bool("adaptive", false);

  bench::banner("E1/E2 — Figure 1a/1b: BTC/BCH fork-flip migration",
                "Scripted exchange-rate shock at day " +
                    fmt_double(params.shock_day, 0) + ", reversal at day " +
                    fmt_double(params.revert_day, 0) +
                    "; miners follow better-response dynamics on coin weights.");

  MarketSimulator sim = fork_flip_scenario(params);
  const auto records = sim.run();

  // Figure 1a analogue: exchange rates; Figure 1b analogue: hashrate.
  Table series({"day", "btc_price", "bch_price", "bch/btc", "btc_hash%",
                "bch_hash%", "at_eq"});
  const std::size_t stride = 24;  // daily samples
  for (std::size_t i = stride - 1; i < records.size(); i += stride) {
    const auto& r = records[i];
    series.row() << fmt_double(r.t_hours / 24.0, 0)
                 << fmt_double(r.prices[0], 0) << fmt_double(r.prices[1], 0)
                 << fmt_double(r.prices[1] / r.prices[0], 3)
                 << fmt_double(100.0 * r.hashrate_share[0], 1)
                 << fmt_double(100.0 * r.hashrate_share[1], 1)
                 << (r.at_equilibrium ? "y" : "n");
  }
  bench::emit(cli, series, "Daily series (Fig 1a: prices; Fig 1b: hashrate)",
              "series");

  // Shape summary, the checkable claims.
  const auto share_at = [&](double day) {
    const std::size_t idx =
        std::min(records.size() - 1,
                 static_cast<std::size_t>(day * 24.0) - 1);
    return records[idx].hashrate_share[1];
  };
  const double pre = share_at(params.shock_day - 2.0);
  const double peak = share_at(params.shock_day + 2.0);
  const double post = share_at(params.days - 1.0);
  Table summary({"phase", "bch_hash_share%"});
  summary.row() << "pre-shock" << fmt_double(100.0 * pre, 1);
  summary.row() << "post-shock peak window" << fmt_double(100.0 * peak, 1);
  summary.row() << "after reversal" << fmt_double(100.0 * post, 1);
  bench::emit(cli, summary, "Migration shape (paper: small -> surge -> recede)",
              "summary");

  std::cout << "shape check: surge " << (peak > pre ? "OK" : "FAIL")
            << ", recede " << (post < peak ? "OK" : "FAIL") << "\n\n";

  // High-fidelity replay: the same price shock driving the discrete-event
  // chain simulator (EDA difficulty + myopic profit-chasers) — this is
  // where Fig 1b's fine structure lives: the pre-shock sawtooth (the real
  // BCH EDA era), transient hashrate *crossovers*, and the elevated flip
  // window. Run as a Monte Carlo batch on the trajectory engine: R
  // replicas across the thread pool, phase shares reported with 95% CIs
  // (bit-identical at any --threads).
  Fig1ReplayParams replay_params;
  replay_params.days = params.days;
  replay_params.shock_day = params.shock_day;
  replay_params.revert_day = params.revert_day;
  replay_params.seed = params.seed;
  // --epoch-lanes=N runs the replay's decision rounds as sharded
  // simultaneous-move epochs (0 keeps the sequential scan default).
  replay_params.epoch_lanes = bench::epoch_lanes_from_cli(cli);
  sim::TrajectoryBatchOptions batch;
  batch.replicas = replicas;
  batch.root_seed = params.seed;
  batch.threads = threads;
  if (adaptive) {
    sim::StoppingRule rule;
    rule.metric = "flip_window_share";
    rule.tolerance = 0.04;  // 4 hashrate-share points, absolute
    rule.min_replicas = std::max<std::size_t>(2, replicas);
    rule.max_replicas = 8 * std::max<std::size_t>(2, replicas);
    rule.wave = std::max<std::size_t>(2, replicas);
    batch.stopping = rule;
  }
  bench::apply_batch_cli(cli, batch);  // --stop-*/--checkpoint override
  const sim::TrajectoryBatchResult replay =
      run_fig1_replay_batch(replay_params, batch);
  if (adaptive) {
    std::cout << "[adaptive: " << replay.replicas() << " of "
              << replay.replicas_requested() << " replicas ("
              << sim::stop_reason_name(replay.stop_reason()) << ")]\n\n";
  }

  Table fidelity({"phase", "avg_bch_hash_share%", "ci95", "min", "max"});
  const auto phase_row = [&](const std::string& label,
                             const std::string& metric) {
    const sim::MetricSummary& s = replay.summary(metric);
    fidelity.row() << label << fmt_double(100.0 * s.mean, 1)
                   << fmt_double(100.0 * s.ci95_halfwidth, 1)
                   << fmt_double(100.0 * s.min, 1)
                   << fmt_double(100.0 * s.max, 1);
  };
  phase_row("pre-shock (EDA sawtooth era)", "pre_shock_share");
  phase_row("flip window [shock, revert]", "flip_window_share");
  phase_row("after reversal", "post_revert_share");
  bench::emit(cli, fidelity,
              "Chain-level replay, " + std::to_string(replay.replicas()) +
                  " Monte Carlo replicas (difficulty dynamics + myopic "
                  "miners)",
              "replay");
  const sim::MetricSummary& peak_share = replay.summary("peak_minor_share");
  std::cout << "replay peak BCH share: mean "
            << fmt_double(100.0 * peak_share.mean, 1) << "% (max "
            << fmt_double(100.0 * peak_share.max, 1) << "%; crossover in "
            << (peak_share.max > 0.5 ? "at least one" : "no") << " replica); "
            << fmt_double(replay.summary("migrations").mean, 0)
            << " migrations/replica\n";

  const sim::MetricSummary& pre_s = replay.summary("pre_shock_share");
  const sim::MetricSummary& flip_s = replay.summary("flip_window_share");
  const sim::MetricSummary& post_s = replay.summary("post_revert_share");
  const bool replay_ok =
      flip_s.mean > pre_s.mean && post_s.mean < flip_s.mean;
  std::cout << "replay shape check: " << (replay_ok ? "OK" : "FAIL") << "\n";
  return (peak > pre && post < peak && replay_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
