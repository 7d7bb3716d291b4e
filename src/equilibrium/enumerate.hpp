#pragma once

#include <cstdint>
#include <vector>

#include "core/configuration.hpp"
#include "core/enumerate.hpp"
#include "core/game.hpp"
#include "util/rng.hpp"

/// \file enumerate.hpp
/// Finding *all* (or many) pure equilibria of a game.
///
/// Exhaustive enumeration runs on the symmetry-reduced parallel engine of
/// core/enumerate.hpp: only canonical representatives are walked (i128
/// equilibrium checks inside the walk), and the full equilibrium set is
/// recovered by orbit expansion — bit-identical to a full-space walk at any
/// thread count. Sampled enumeration runs better-response
/// learning from random starts (convergence guaranteed by Theorem 1) on
/// the incremental `BestResponseIndex` and deduplicates the reached
/// equilibria — sound but possibly incomplete. Section 4's experiments use
/// the exhaustive form; benchmark sweeps use the sampled form.

namespace goc {

/// Canonical equilibrium representatives (one per symmetry orbit) with
/// their orbit sizes — the compact answer when only counts or per-orbit
/// statistics are needed.
struct CanonicalEquilibria {
  /// In canonical odometer order.
  std::vector<Configuration> representatives;
  /// orbit_sizes[i] = |orbit of representatives[i]| (1 when symmetry off
  /// or the class partition is trivial).
  std::vector<std::uint64_t> orbit_sizes;

  /// Total number of pure equilibria (Σ orbit sizes).
  std::uint64_t total() const;
};

/// One canonical representative per equilibrium orbit. Throws
/// std::invalid_argument when |C|^n > opts.max_configs.
CanonicalEquilibria enumerate_canonical_equilibria(const Game& game,
                                                   const EnumerationOptions& opts);

/// All pure equilibria in odometer order (canonical walk + orbit expansion;
/// identical output at any `opts.threads`). Throws std::invalid_argument
/// when |C|^n > max_configs.
std::vector<Configuration> enumerate_equilibria(const Game& game,
                                                std::uint64_t max_configs = 1u << 22);
std::vector<Configuration> enumerate_equilibria(const Game& game,
                                                const EnumerationOptions& opts);

/// Distinct equilibria reached by best-response learning from `attempts`
/// uniformly random starting configurations, driven by the incremental
/// `BestResponseIndex` and deduplicated through a hash-bucket index.
/// Sound (every result is an equilibrium) but possibly incomplete.
std::vector<Configuration> sample_equilibria(const Game& game, Rng& rng,
                                             std::size_t attempts,
                                             std::uint64_t max_steps_per_attempt = 1u << 20);

}  // namespace goc
