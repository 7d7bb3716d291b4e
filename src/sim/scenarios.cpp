#include "sim/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "chain/difficulty.hpp"
#include "util/rng.hpp"

namespace goc::sim {

chain::MultiChainSimulator make_reference_chain(
    const ReferenceChainParams& params, EngineKind /*engine*/,
    std::uint64_t seed) {
  const std::size_t miners = params.miners;
  const std::size_t num_chains = params.chains;
  Rng setup(seed ^ 0xDE5ULL);
  std::vector<double> powers;
  powers.reserve(miners);
  for (std::size_t i = 0; i < miners; ++i) {
    powers.push_back(std::min(4000.0, std::ceil(setup.pareto(10.0, 1.16))));
  }
  std::vector<std::size_t> assignment;
  assignment.reserve(miners);
  for (std::size_t i = 0; i < miners; ++i) {
    assignment.push_back(i % num_chains);
  }
  std::vector<double> mass(num_chains, 0.0);
  for (std::size_t i = 0; i < miners; ++i) mass[assignment[i]] += powers[i];

  std::vector<chain::ChainSpec> chains;
  for (std::size_t c = 0; c < num_chains; ++c) {
    // Difficulty calibrated to the initial split (protocol cadence 6/h);
    // rewards spread 3:1 so better-response migration stays busy.
    const double reward = 10.0 + 20.0 * static_cast<double>(c) /
                                     static_cast<double>(num_chains);
    chains.push_back(chain::ChainSpec{
        "c" + std::to_string(c), std::max(1.0, mass[c] / 6.0), 1.0 / 6.0,
        reward,
        std::make_unique<chain::FixedWindowRetarget>(72, 1.0 / 6.0)});
  }
  chain::ChainSimOptions options;
  options.duration_hours = params.days * 24.0;
  options.decision_interval_hours = 4.0;
  options.policy = chain::MinerPolicy::kBetterResponse;
  options.reevaluation_fraction = 0.15;
  options.seed = seed;
  options.record_timeline = false;
  options.epoch_lanes = params.epoch_lanes;
  return chain::MultiChainSimulator(std::move(powers), std::move(chains),
                                    options, std::move(assignment));
}

}  // namespace goc::sim
