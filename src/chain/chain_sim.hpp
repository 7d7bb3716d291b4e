#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chain/difficulty.hpp"
#include "engine/thread_pool.hpp"
#include "sim/event_core.hpp"
#include "util/rng.hpp"

/// \file chain_sim.hpp
/// Multi-chain proof-of-work simulator (experiment E9, and the mechanism
/// behind Figure 1b's hashrate series).
///
/// Each chain runs an exponential block race: with aggregate hashrate M_c
/// and difficulty D_c, the next block arrives after Exp(M_c/D_c) hours and
/// is won by a miner on c with probability proportional to its power —
/// the mechanism the paper abstracts as "reward divided in proportion to
/// power". The simulator validates that abstraction (realized reward share
/// → m_p/M_c) and exposes the difficulty-adjustment dynamics the
/// abstraction hides.
///
/// Miner policies at decision epochs:
///  * kStatic          — never move (pure validation of the reward split);
///  * kBetterResponse  — the paper's game semantics: coin weight is the
///    protocol reward rate F(c) = reward·/target_interval, miners take
///    better responses on F(c)·m/(M+m) vs F(c)·m/M;
///  * kMyopicDifficulty — chase instantaneous per-hash profitability
///    reward/D_c (what whattomine-style dashboards report); with an EDA
///    chain this produces the famous hashrate sawtooth.
///
/// The simulator runs on `sim::EventCore` (POD events, enum-switch
/// dispatch, generation invalidation in the core) and keeps a sorted member
/// list per chain, so a block costs O(miners on that chain) instead of
/// O(all miners). Its trajectories are pinned against values recorded from
/// the retired callback-queue engine (`tests/test_sim.cpp`,
/// `PinnedTrajectories`) and by the `GOLDEN_chain.gocr` replay anchor.

namespace goc::chain {

struct ChainSpec {
  std::string name;
  double initial_difficulty;      ///< hash-units per block
  double target_interval_hours;   ///< protocol cadence
  double block_reward_fiat;       ///< fiat value per block
  std::unique_ptr<DifficultyAdjuster> adjuster;
};

enum class MinerPolicy { kStatic, kBetterResponse, kMyopicDifficulty };

struct ChainSimOptions {
  double duration_hours = 24.0 * 30;
  double decision_interval_hours = 1.0;
  MinerPolicy policy = MinerPolicy::kBetterResponse;
  /// Fraction of miners re-evaluating per decision epoch (inertia).
  double reevaluation_fraction = 0.25;
  /// Myopic policy only: switch only when the best alternative beats the
  /// current chain by this relative margin (switching costs / friction).
  double myopic_hysteresis = 0.0;
  std::uint64_t seed = 42;
  /// Record a timeline sample at every decision epoch.
  bool record_timeline = true;
  /// Decision-epoch execution mode. 0 (default) keeps the original
  /// sequential policy scan: miners re-evaluate one at a time against the
  /// *live* state (earlier movers shift the masses later miners see) with
  /// reevaluation draws from the main RNG stream. Any value >= 1 selects
  /// the **sharded epoch**: a simultaneous-move dynamics where every miner
  /// evaluates against the frozen pre-epoch state with a counter-based
  /// per-epoch reevaluation substream (evaluate phase, parallel over
  /// contiguous miner shards) and moves replay serially in miner order
  /// (apply phase). The two modes are *different dynamics* — equally valid
  /// discretizations of the paper's epoch game — so their trajectories are
  /// not comparable; within sharded mode, results are bit-identical at ANY
  /// lane count (epoch_lanes = 1 is the serial reference).
  ///
  /// The sequential mode stays the default, although the sharded one is
  /// much faster on large populations: `chain-reference` (sim/scenarios.hpp)
  /// runs on it, so the committed `GOLDEN_chain.gocr`, the serve-smoke CI
  /// hash and perfbench's recorded `chain-serve` hashes are all pinned on
  /// it. Changing the default would move every one of those anchors.
  std::size_t epoch_lanes = 0;
  /// Shared pool for the sharded evaluate phase (e.g. handed down by
  /// `sim::plan_nested_lanes` arbitration). When null, the simulator owns a
  /// pool of `epoch_lanes` lanes — unless the population is smaller than
  /// `epoch_shard_cutoff`, where shard dispatch costs more than the scan it
  /// saves and the evaluate runs inline. Never affects results, only
  /// scheduling.
  engine::ThreadPool* epoch_pool = nullptr;
  /// Minimum miner count before an owned pool spawns workers (see above).
  std::size_t epoch_shard_cutoff = 8192;
};

/// Recomputes a chain's fiat block reward at a decision epoch — the
/// coupling point for exchange-rate processes (fiat reward = subsidy ×
/// price(t)). Called per chain with the simulation clock; the returned
/// value must be positive.
using RewardHook = std::function<double(std::size_t chain, double t_hours)>;

struct TimelinePoint {
  double t_hours = 0.0;
  std::vector<double> difficulty;      ///< per chain
  std::vector<double> hashrate;        ///< per chain (hash-units)
  std::vector<std::uint64_t> blocks;   ///< cumulative per chain
  std::vector<double> reward_fiat;     ///< per chain (as of this epoch)
};

struct ChainSimResult {
  std::vector<std::uint64_t> blocks_per_chain;
  std::vector<double> miner_rewards_fiat;       ///< per miner
  std::vector<std::uint64_t> miner_blocks;      ///< per miner
  std::vector<TimelinePoint> timeline;
  /// Mean absolute error between each miner's realized reward share and
  /// its within-chain power share prediction, over miners with nonzero
  /// predicted share (the E9 validation number). The prediction accrues
  /// through the per-chain reward-per-power integral (O(1) per block,
  /// settled per stint); `sim::chain_result_hash` does not cover it.
  double share_prediction_mae = 0.0;
  std::uint64_t migrations = 0;  ///< total miner moves across the run
  /// Live events dispatched (blocks + decision epochs; stale races are
  /// skipped before dispatch). The throughput denominator of `bench_des`.
  std::uint64_t events_dispatched = 0;
};

class MultiChainSimulator {
 public:
  /// `miner_powers` in hash-units/hour; `initial_assignment[i]` is the
  /// starting chain of miner i (empty → all on chain 0).
  MultiChainSimulator(std::vector<double> miner_powers,
                      std::vector<ChainSpec> chains, ChainSimOptions options,
                      std::vector<std::size_t> initial_assignment = {});

  /// Installs a per-epoch fiat-reward recomputation (price coupling). Must
  /// be called before run().
  void set_reward_hook(RewardHook hook) { reward_hook_ = std::move(hook); }

  ChainSimResult run();

 private:
  void arm_block_race(std::size_t chain);
  void on_block(std::size_t chain);
  void decision_epoch();
  void decision_epoch_sharded();
  void move_miner(std::size_t miner, std::size_t to_chain);
  double expected_rpu_game(std::size_t miner, std::size_t chain, bool joining) const;

  std::vector<double> powers_;
  std::vector<ChainSpec> chains_;
  ChainSimOptions options_;
  Rng rng_;

  sim::EventCore core_;
  std::vector<std::size_t> assignment_;     // miner -> chain
  // Per-chain member lists, ascending miner index: the winner lottery walks
  // only the chain's own miners, in miner order.
  std::vector<std::vector<std::uint32_t>> members_;
  std::vector<double> mass_;                // per chain
  std::vector<double> difficulty_;          // per chain
  std::vector<double> reward_fiat_;         // per chain (hook-updated)
  RewardHook reward_hook_;                  // optional price coupling
  ChainSimResult result_;
  // Accumulated (power-share × chain reward) prediction per miner, settled
  // lazily from the stint integral below.
  std::vector<double> predicted_rewards_;
  // reward_per_power_[c] = Σ over c's blocks of reward/M_c — the
  // cumulative fiat a unit of hashpower parked on c would have been
  // predicted to earn. A block then costs O(1) accrual (bump the integral)
  // instead of O(chain members); a miner's prediction for one stint on c
  // is m_i · (integral at leave − integral at join), with the join value
  // kept in stint_base_[i]. Settled on every move and at the end of run().
  std::vector<double> reward_per_power_;
  std::vector<double> stint_base_;

  // Sharded decision epochs (options_.epoch_lanes >= 1). The evaluate
  // phase is a pure per-miner function of the frozen pre-epoch state, so
  // two key memoizations apply: powers_ is immutable, so a miner's best
  // *alternative* chain under kBetterResponse depends only on its power
  // value — per epoch we compute, per distinct power, the top-2 chains by
  // join value (first-argmax tie rule, matching a first-wins strict-`>`
  // scan) and each miner compares against top1 (or top2 when top1 is its
  // own chain); kMyopicDifficulty values are power-independent, so one
  // top-2 serves everyone. All scratch is sized once in the constructor —
  // steady-state epochs allocate nothing.
  struct TopTwo {
    std::uint32_t c1, c2;  // kNoChain when absent
    double v1, v2;
  };
  std::unique_ptr<engine::ThreadPool> owned_epoch_pool_;
  engine::ThreadPool* epoch_pool_ = nullptr;
  std::uint64_t epoch_index_ = 0;           // decision epochs completed
  std::vector<std::uint32_t> epoch_target_; // kNoChain = stay put
  std::vector<double> unique_powers_;       // sorted distinct power values
  std::vector<std::uint32_t> power_class_;  // miner -> unique_powers_ index
  std::vector<double> epoch_chain_value_;   // frozen per-chain scratch
  std::vector<TopTwo> epoch_top2_;          // per power class (myopic: [0])
};

}  // namespace goc::chain
