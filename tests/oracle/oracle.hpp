#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/moves.hpp"
#include "dynamics/learning.hpp"
#include "engine/sweep.hpp"
#include "equilibrium/assumptions.hpp"
#include "potential/exact_potential.hpp"

/// \file oracle.hpp
/// Brute-force reference implementations, kept out of `libgoc`. Each one
/// recomputes its answer from scratch with exact `Rational` payoffs over
/// the full space: no index, no comparator tiers, no symmetry reduction, no
/// sharding. The tests and the `--compare-scan` benches check the library
/// against them on small games.

namespace goc::oracle {

/// Miners with at least one better response, in miner-id order.
std::vector<MinerId> unstable_miners(const Game& game, const Configuration& s);

/// The reference rule of every `SchedulerKind`, rescanning the game at each
/// call and ignoring the index. It draws the same random variates as
/// `make_scheduler(kind, seed)`, so both pick the same move sequence.
class ScanScheduler final : public Scheduler {
 public:
  explicit ScanScheduler(SchedulerKind kind, std::uint64_t seed = 0)
      : kind_(kind), rng_(seed) {}

  std::optional<Move> pick(const Game& game, const Configuration& s,
                           const dynamics::BestResponseIndex&) override;
  std::string name() const override { return scheduler_kind_name(kind_); }
  void reset() override { cursor_ = 0; }

 private:
  SchedulerKind kind_;
  Rng rng_;
  std::size_t cursor_ = 0;  ///< round-robin position
};

/// `run_learning_to_epsilon` by a scan of every move per step. Fills the
/// final configuration, steps, converged and move_hash; records no trace.
LearningResult run_learning_to_epsilon(const Game& game, Configuration start,
                                       const Rational& epsilon,
                                       const LearningOptions& options = {});

/// Replays one sweep task as `engine::SweepRunner::run_task` sets it up
/// (same game, same start) under the task's `ScanScheduler`.
LearningResult replay_task(const engine::SweepTask& task,
                           const LearningOptions& options);

/// Invokes `visit` on every configuration in odometer order (miner 0 is the
/// fastest-changing digit) until it returns false. Throws
/// std::invalid_argument when |C|^n > max_configs.
void for_each_configuration(
    const std::shared_ptr<const System>& system, std::uint64_t max_configs,
    const std::function<bool(const Configuration&)>& visit);

/// All pure equilibria, in odometer order.
std::vector<Configuration> enumerate_equilibria_scan(
    const Game& game, std::uint64_t max_configs = 1u << 22);

/// The first Assumption 1 violation in odometer order.
std::optional<NeverAloneViolation> find_never_alone_violation_scan(
    const Game& game, std::uint64_t max_configs = 1u << 22);

/// The first nonzero 4-cycle of the first `max_bases` bases in odometer
/// order, in (base, p, q, a', b') order.
std::optional<FourCycleWitness> find_nonzero_four_cycle_scan(
    const Game& game, std::uint64_t max_bases = 4096);

/// True iff every 4-cycle of the full space sums to zero.
bool has_exact_potential_scan(const Game& game,
                              std::uint64_t max_configs = 1u << 20);

}  // namespace goc::oracle
