#pragma once

#include <cstdint>

#include "chain/chain_sim.hpp"
#include "sim/event_core.hpp"

/// \file scenarios.hpp
/// Canonical Monte Carlo reference workloads, single-sourced.
///
/// The reference chain scenario used to live inside bench_des.cpp; the
/// serve daemon needs the *same* workload so that a daemon-submitted batch
/// and the one-shot bench run produce bit-identical `values_hash` — the
/// determinism contract CI asserts. Moving the factory here makes that
/// identity true by construction: both callers stamp replicas from one
/// definition, and any change to the workload changes both sides at once.

namespace goc::sim {

/// Shape of the reference chain workload (defaults are the full-size
/// bench_des batch scenario; `bench_des --quick` passes 128/8/10).
struct ReferenceChainParams {
  std::size_t miners = 256;
  std::size_t chains = 8;
  double days = 20.0;
  /// 0 = sequential decision epochs; >= 1 = the sharded frozen-state
  /// epoch (bit-identical at any lane count).
  std::size_t epoch_lanes = 0;
};

/// The reference chain workload: a heavy-tailed population spread over
/// many chains under game-semantics migration — block events dominate.
/// Deterministic in (params, seed). `EngineKind` has the one value `kFlat`
/// (see sim/event_core.hpp); the parameter stays because perfbench calls
/// this signature.
chain::MultiChainSimulator make_reference_chain(
    const ReferenceChainParams& params, EngineKind engine, std::uint64_t seed);

}  // namespace goc::sim
