#pragma once

#include <string>
#include <vector>

#include "sim/trajectory.hpp"
#include "util/cli.hpp"

/// \file batch_cli.hpp
/// The shared Monte Carlo batch flags, single-sourced: every surface that
/// fans replicas — the benches, the examples and the serve daemon — maps
/// them onto `sim::TrajectoryBatchOptions` through `apply_batch_cli`. They
/// come in two groups:
///
/// - `batch_cli_flags()`: `--replicas` and the CI-driven sequential
///   stopping rule `--stop-metric/-tol/-rel/-min/-max/-wave`, as a table;
/// - the host group: `--threads` (this run's own pool) and `--checkpoint=
///   PATH [--checkpoint-interval=N]` (crash-safe wave-boundary writes).
///   They name threads and a file on the machine that runs the batch, so
///   the benches accept them and the serve daemon does not.
///
/// Contract: values already present in `options` act as defaults, so
/// callers can pre-seed workload-specific rules — including a pre-seeded
/// `stopping->max_replicas`, which survives unless `--stop-max` is passed
/// explicitly. Only when the caller did *not* pre-seed a stopping rule
/// does `--stop-max` default to `--replicas` ("the same study, adaptive"
/// stays one extra flag).

namespace goc::sim {

/// Applies both flag groups onto `options` (see file comment for the
/// grammar and the pre-seeding contract). Throws std::invalid_argument
/// when the resulting `--stop-max` is below `--stop-min`.
void apply_batch_cli(const Cli& cli, TrajectoryBatchOptions& options);

/// The replica and stopping flags as a table; `metrics` are the names
/// `--stop-metric` accepts (the scenario's batch metrics).
FlagTable batch_cli_flags(const std::vector<std::string>& metrics);

/// The names of both groups — callers splice these into the known-name
/// list they hand `Cli::unknown` to fail fast.
const std::vector<std::string>& batch_cli_names();

}  // namespace goc::sim
