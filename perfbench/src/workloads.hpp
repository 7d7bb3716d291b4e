#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "trace.hpp"

/// \file workloads.hpp
/// The four benchmark workloads and the library replay of their requests.
///
/// A workload is a small set of distinct requests (`Spec`s) generated from
/// the run's seed; the client cycles through them, so every distinct
/// request is sent several times per run. A request either goes through
/// the daemon protocol (`jobs`, one `submit` line per job) or, on
/// `epoch-scale`, is one direct library study call (`direct`). `replay`
/// re-runs the request once through the library's public functions with
/// benchmark spans around every layer boundary; it must return the same
/// `values_hash` list the daemon (or the direct call) returned.

namespace perfbench {

/// What one request returned: one `values_hash` per job, or an error.
struct Outcome {
  std::vector<std::uint64_t> hashes;
  std::string error;
};

/// Counters the replay gathers beside its spans (times come from spans).
struct ReplayStats {
  std::mutex mutex;
  /// Σ over batches of (replica lanes × batch wall), for sim.batch.idle_frac.
  double batch_lane_ms = 0.0;
  std::uint64_t market_epochs = 0;
  std::uint64_t market_br_steps = 0;
  std::uint64_t market_replicas = 0;
  std::vector<goc::engine::SweepRecord> sweep_records;
  std::uint64_t enumerate_configs = 0;
};

struct ReplayContext {
  goc::engine::ThreadPool* pool = nullptr;
  std::size_t lanes = 1;
  Tracer* tracer = nullptr;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  ReplayStats* stats = nullptr;
};

struct Spec {
  /// Protocol lines, one per job (`submit ...`); empty for direct calls.
  std::vector<std::string> jobs;
  /// The direct library call (epoch-scale only): pool of `lanes` lanes.
  std::function<Outcome(goc::engine::ThreadPool& pool, std::size_t lanes)>
      direct;
  std::function<std::vector<std::uint64_t>(const ReplayContext&)> replay;
};

struct Workload {
  std::string name;
  /// Distinct requests; the stream cycles through them.
  std::vector<Spec> specs;
  /// True when requests go through `serve::Server::handle_line`.
  bool via_serve = true;
};

/// Seed whose request hashes are recorded in expected_hashes.txt. The
/// untimed warm-up request of every run is spec 0 of this seed, so every
/// run checks at least one recorded hash whatever its own seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

const std::vector<std::string>& workload_names();

/// Builds `name`'s requests from `seed`; `small` selects the self-test
/// input sizes. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, bool small,
                       std::uint64_t seed);

}  // namespace perfbench
