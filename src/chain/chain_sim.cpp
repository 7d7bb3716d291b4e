#include "chain/chain_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace goc::chain {

namespace {

/// "Stay put" sentinel in epoch_target_ / absent-chain marker in TopTwo.
constexpr std::uint32_t kNoChain = std::numeric_limits<std::uint32_t>::max();

/// Shard grain sizes for the parallel evaluate phase: large enough that a
/// chunk amortizes its dispatch, small enough that the cursor balances
/// uneven progress. Pure scheduling — results never depend on them.
constexpr std::size_t kMinerGrain = 4096;
constexpr std::size_t kClassGrain = 512;

}  // namespace

MultiChainSimulator::MultiChainSimulator(std::vector<double> miner_powers,
                                         std::vector<ChainSpec> chains,
                                         ChainSimOptions options,
                                         std::vector<std::size_t> initial_assignment)
    : powers_(std::move(miner_powers)),
      chains_(std::move(chains)),
      options_(options),
      rng_(options.seed) {
  GOC_CHECK_ARG(!powers_.empty(), "need at least one miner");
  GOC_CHECK_ARG(!chains_.empty(), "need at least one chain");
  for (const double m : powers_) {
    GOC_CHECK_ARG(m > 0.0, "miner powers must be positive");
  }
  for (const ChainSpec& c : chains_) {
    GOC_CHECK_ARG(c.initial_difficulty > 0.0, "difficulty must be positive");
    GOC_CHECK_ARG(c.target_interval_hours > 0.0, "target interval must be positive");
    GOC_CHECK_ARG(c.block_reward_fiat > 0.0, "block reward must be positive");
    GOC_CHECK_ARG(c.adjuster != nullptr, "every chain needs a DAA");
  }
  if (initial_assignment.empty()) {
    assignment_.assign(powers_.size(), 0);
  } else {
    GOC_CHECK_ARG(initial_assignment.size() == powers_.size(),
                  "assignment arity must match miners");
    for (const std::size_t c : initial_assignment) {
      GOC_CHECK_ARG(c < chains_.size(), "assignment references unknown chain");
    }
    assignment_ = std::move(initial_assignment);
  }
  mass_.assign(chains_.size(), 0.0);
  for (std::size_t i = 0; i < powers_.size(); ++i) {
    mass_[assignment_[i]] += powers_[i];
  }
  members_.resize(chains_.size());
  for (auto& m : members_) m.reserve(powers_.size());  // alloc-free moves
  for (std::size_t i = 0; i < powers_.size(); ++i) {
    members_[assignment_[i]].push_back(static_cast<std::uint32_t>(i));
  }
  reward_per_power_.assign(chains_.size(), 0.0);
  stint_base_.assign(powers_.size(), 0.0);
  core_.declare_streams(sim::EventType::kBlockFound, chains_.size());
  core_.declare_streams(sim::EventType::kDecisionEpoch, 1);
  difficulty_.resize(chains_.size());
  reward_fiat_.resize(chains_.size());
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    difficulty_[c] = chains_[c].initial_difficulty;
    reward_fiat_[c] = chains_[c].block_reward_fiat;
  }
  if (options_.epoch_lanes >= 1) {
    // Sharded-epoch scratch, sized once so epochs never allocate.
    unique_powers_ = powers_;
    std::sort(unique_powers_.begin(), unique_powers_.end());
    unique_powers_.erase(
        std::unique(unique_powers_.begin(), unique_powers_.end()),
        unique_powers_.end());
    power_class_.resize(powers_.size());
    for (std::size_t i = 0; i < powers_.size(); ++i) {
      power_class_[i] = static_cast<std::uint32_t>(
          std::lower_bound(unique_powers_.begin(), unique_powers_.end(),
                           powers_[i]) -
          unique_powers_.begin());
    }
    epoch_target_.assign(powers_.size(), kNoChain);
    epoch_chain_value_.resize(chains_.size());
    epoch_top2_.resize(unique_powers_.size());
    if (options_.epoch_pool != nullptr) {
      epoch_pool_ = options_.epoch_pool;
    } else {
      const std::size_t lanes = powers_.size() >= options_.epoch_shard_cutoff
                                    ? options_.epoch_lanes
                                    : 1;
      owned_epoch_pool_ = std::make_unique<engine::ThreadPool>(
          engine::ThreadPool::workers_for(lanes));
      epoch_pool_ = owned_epoch_pool_.get();
    }
  }
  result_.blocks_per_chain.assign(chains_.size(), 0);
  result_.miner_rewards_fiat.assign(powers_.size(), 0.0);
  result_.miner_blocks.assign(powers_.size(), 0);
  predicted_rewards_.assign(powers_.size(), 0.0);
}

void MultiChainSimulator::arm_block_race(std::size_t chain) {
  if (mass_[chain] <= 0.0) return;  // re-armed when a miner joins
  // The next block faces the prospective difficulty (EDA discounts apply).
  const double difficulty =
      chains_[chain].adjuster->prospective(core_.now(), difficulty_[chain]);
  const double rate = mass_[chain] / difficulty;  // blocks per hour
  const double at = core_.now() + rng_.exponential(rate);
  core_.schedule(at, sim::EventType::kBlockFound,
                 static_cast<std::uint32_t>(chain));
}

void MultiChainSimulator::on_block(std::size_t chain) {
  const ChainSpec& spec = chains_[chain];
  ++result_.events_dispatched;
  ++result_.blocks_per_chain[chain];

  // Winner lottery ∝ power among the chain's miners, walked in ascending
  // miner order. The proportional-split prediction the paper's model
  // assumes accrues as one O(1) bump of the chain's reward-per-power
  // integral (settled per stint).
  const double ticket = rng_.uniform01() * mass_[chain];
  double acc = 0.0;
  std::size_t winner = powers_.size();
  reward_per_power_[chain] += reward_fiat_[chain] / mass_[chain];
  for (const std::uint32_t i : members_[chain]) {
    acc += powers_[i];
    if (ticket < acc) {
      winner = i;
      break;
    }
  }
  if (winner == powers_.size() && !members_[chain].empty()) {
    // Numeric edge (ticket == mass): award the last member.
    winner = members_[chain].back();
  }
  GOC_ASSERT(winner < powers_.size(), "block found on a chain with no miners");
  result_.miner_rewards_fiat[winner] += reward_fiat_[chain];
  ++result_.miner_blocks[winner];

  difficulty_[chain] = spec.adjuster->on_block(core_.now(), difficulty_[chain]);
  GOC_ASSERT(difficulty_[chain] > 0.0, "DAA produced nonpositive difficulty");
  arm_block_race(chain);
}

double MultiChainSimulator::expected_rpu_game(std::size_t miner,
                                              std::size_t chain,
                                              bool joining) const {
  // The paper's weight: protocol reward rate in fiat per hour.
  const double weight =
      reward_fiat_[chain] / chains_[chain].target_interval_hours;
  const double mass = mass_[chain] + (joining ? powers_[miner] : 0.0);
  return weight * powers_[miner] / mass;
}

void MultiChainSimulator::move_miner(std::size_t miner, std::size_t to_chain) {
  const std::size_t from = assignment_[miner];
  if (from == to_chain) return;
  mass_[from] -= powers_[miner];
  if (mass_[from] < 0.0) mass_[from] = 0.0;  // float dust
  mass_[to_chain] += powers_[miner];
  assignment_[miner] = to_chain;
  ++result_.migrations;
  // Settle the finished stint on `from` and start a new one on `to`.
  predicted_rewards_[miner] +=
      powers_[miner] * (reward_per_power_[from] - stint_base_[miner]);
  stint_base_[miner] = reward_per_power_[to_chain];
  const auto id = static_cast<std::uint32_t>(miner);
  auto& src = members_[from];
  src.erase(std::lower_bound(src.begin(), src.end(), id));
  auto& dst = members_[to_chain];
  dst.insert(std::lower_bound(dst.begin(), dst.end(), id), id);
  // Both races now run at the wrong rate; memorylessness makes a fresh
  // exponential draw exact. The core drops the stale races at pop time.
  core_.invalidate(sim::EventType::kBlockFound,
                   static_cast<std::uint32_t>(from));
  core_.invalidate(sim::EventType::kBlockFound,
                   static_cast<std::uint32_t>(to_chain));
  arm_block_race(from);
  arm_block_race(to_chain);
}

void MultiChainSimulator::decision_epoch() {
  ++result_.events_dispatched;
  if (reward_hook_) {
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      const double updated = reward_hook_(c, core_.now());
      GOC_ASSERT(updated > 0.0, "reward hook produced a nonpositive reward");
      reward_fiat_[c] = updated;
    }
  }
  if (options_.policy != MinerPolicy::kStatic &&
      options_.epoch_lanes >= 1) {
    decision_epoch_sharded();
  } else if (options_.policy != MinerPolicy::kStatic) {
    for (std::size_t i = 0; i < powers_.size(); ++i) {
      if (!rng_.bernoulli(options_.reevaluation_fraction)) continue;
      const std::size_t cur = assignment_[i];
      std::size_t best = cur;
      if (options_.policy == MinerPolicy::kBetterResponse) {
        double best_value = expected_rpu_game(i, cur, /*joining=*/false);
        for (std::size_t c = 0; c < chains_.size(); ++c) {
          if (c == cur) continue;
          const double v = expected_rpu_game(i, c, /*joining=*/true);
          if (v > best_value) {
            best_value = v;
            best = c;
          }
        }
      } else {  // kMyopicDifficulty: chase fiat per hash at the difficulty
        // the next block would face (incl. prospective EDA discounts).
        const auto myopic_value = [&](std::size_t c) {
          const double d =
              chains_[c].adjuster->prospective(core_.now(), difficulty_[c]);
          return reward_fiat_[c] / d;
        };
        // Hysteresis models switching friction: stay unless an alternative
        // clears the current chain by the configured relative margin.
        double best_value =
            myopic_value(cur) * (1.0 + options_.myopic_hysteresis);
        for (std::size_t c = 0; c < chains_.size(); ++c) {
          if (c == cur) continue;
          const double v = myopic_value(c);
          if (v > best_value) {
            best_value = v;
            best = c;
          }
        }
      }
      move_miner(i, best);
    }
  }
  ++epoch_index_;

  if (options_.record_timeline) {
    TimelinePoint point;
    point.t_hours = core_.now();
    point.difficulty = difficulty_;
    point.hashrate = mass_;
    point.blocks = result_.blocks_per_chain;
    point.reward_fiat = reward_fiat_;
    result_.timeline.push_back(std::move(point));
  }

  const double next = core_.now() + options_.decision_interval_hours;
  if (next <= options_.duration_hours) {
    core_.schedule(next, sim::EventType::kDecisionEpoch, 0);
  }
}

void MultiChainSimulator::decision_epoch_sharded() {
  const std::size_t n = powers_.size();
  const std::size_t num_chains = chains_.size();
  const double now = core_.now();
  const bool better_response = options_.policy == MinerPolicy::kBetterResponse;

  // --- Freeze the per-chain values every evaluation reads. -----------------
  // kBetterResponse: the paper's weight F(c) = reward / target interval;
  // kMyopicDifficulty: fiat per hash at the prospective difficulty. The
  // myopic loop stays serial — adjusters are not required to tolerate
  // concurrent prospective() calls, and it is O(|C|) anyway.
  if (better_response) {
    for (std::size_t c = 0; c < num_chains; ++c) {
      epoch_chain_value_[c] =
          reward_fiat_[c] / chains_[c].target_interval_hours;
    }
    // Per distinct power p: top-2 chains by join value F(c)·p/(M_c + p),
    // first-argmax ties — exactly what a first-wins strict-`>` scan over
    // chains picks. Join values read only frozen state, so classes shard
    // freely.
    epoch_pool_->parallel_for_chunks(
        unique_powers_.size(), kClassGrain,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            const double p = unique_powers_[k];
            TopTwo t{kNoChain, kNoChain, 0.0, 0.0};
            for (std::uint32_t c = 0; c < num_chains; ++c) {
              const double v = epoch_chain_value_[c] * p / (mass_[c] + p);
              if (t.c1 == kNoChain || v > t.v1) {
                t.c2 = t.c1;
                t.v2 = t.v1;
                t.c1 = c;
                t.v1 = v;
              } else if (t.c2 == kNoChain || v > t.v2) {
                t.c2 = c;
                t.v2 = v;
              }
            }
            epoch_top2_[k] = t;
          }
        });
  } else {
    TopTwo t{kNoChain, kNoChain, 0.0, 0.0};
    for (std::uint32_t c = 0; c < num_chains; ++c) {
      const double v = reward_fiat_[c] /
                       chains_[c].adjuster->prospective(now, difficulty_[c]);
      epoch_chain_value_[c] = v;
      if (t.c1 == kNoChain || v > t.v1) {
        t.c2 = t.c1;
        t.v2 = t.v1;
        t.c1 = c;
        t.v1 = v;
      } else if (t.c2 == kNoChain || v > t.v2) {
        t.c2 = c;
        t.v2 = v;
      }
    }
    epoch_top2_[0] = t;
  }

  // --- Evaluate: pure per-miner, parallel over contiguous shards. ----------
  // Reevaluation draws come from a counter-based per-epoch splitmix64
  // substream — miner i's draw is a function of (seed, epoch, i) alone, so
  // it is decision-order-stable no matter how the range is sharded (the
  // main RNG stream is untouched; it serves only the block races the apply
  // phase re-arms, in miner order as before).
  std::uint64_t epoch_state =
      options_.seed + 0x9E3779B97F4A7C15ULL * (epoch_index_ + 1);
  const std::uint64_t epoch_seed = splitmix64(epoch_state);
  const double fraction = options_.reevaluation_fraction;
  const double hysteresis = 1.0 + options_.myopic_hysteresis;
  epoch_pool_->parallel_for_chunks(
      n, kMinerGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          epoch_target_[i] = kNoChain;
          std::uint64_t s =
              epoch_seed +
              0xBF58476D1CE4E5B9ULL * (static_cast<std::uint64_t>(i) + 1);
          const double u =
              static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
          if (!(u < fraction)) continue;
          const auto cur = static_cast<std::uint32_t>(assignment_[i]);
          const TopTwo& t =
              better_response ? epoch_top2_[power_class_[i]] : epoch_top2_[0];
          const std::uint32_t cand = t.c1 != cur ? t.c1 : t.c2;
          if (cand == kNoChain) continue;
          const double cand_value = t.c1 != cur ? t.v1 : t.v2;
          // Stay value against the frozen state; myopic hysteresis models
          // switching friction exactly as in the sequential scan.
          const double stay =
              better_response
                  ? epoch_chain_value_[cur] * powers_[i] / mass_[cur]
                  : epoch_chain_value_[cur] * hysteresis;
          if (cand_value > stay) epoch_target_[i] = cand;
        }
      });

  // --- Apply: replay the moves serially in miner order. --------------------
  // Mass updates, member-list edits, race invalidation and the fresh
  // exponential draws all happen in ascending miner order, so the apply
  // phase is a pure function of the target vector — identical at any lane
  // count.
  for (std::size_t i = 0; i < n; ++i) {
    if (epoch_target_[i] != kNoChain) move_miner(i, epoch_target_[i]);
  }
}

ChainSimResult MultiChainSimulator::run() {
  for (std::size_t c = 0; c < chains_.size(); ++c) arm_block_race(c);
  core_.schedule(options_.decision_interval_hours,
                 sim::EventType::kDecisionEpoch, 0);
  sim::Event event;
  while (core_.pop_until(event, options_.duration_hours)) {
    switch (event.type) {
      case sim::EventType::kBlockFound:
        on_block(event.subject);
        break;
      case sim::EventType::kDecisionEpoch:
        decision_epoch();
        break;
      default:
        GOC_ASSERT(false, "unexpected event type in the chain simulator");
    }
  }

  // Settle every miner's open stint into the prediction accumulator.
  for (std::size_t i = 0; i < powers_.size(); ++i) {
    predicted_rewards_[i] +=
        powers_[i] * (reward_per_power_[assignment_[i]] - stint_base_[i]);
  }

  // E9 validation: realized vs predicted reward shares.
  double total = 0.0;
  for (const double r : result_.miner_rewards_fiat) total += r;
  if (total > 0.0) {
    double mae = 0.0;
    for (std::size_t i = 0; i < powers_.size(); ++i) {
      const double realized = result_.miner_rewards_fiat[i] / total;
      const double predicted = predicted_rewards_[i] / total;
      mae += std::fabs(realized - predicted);
    }
    result_.share_prediction_mae = mae / static_cast<double>(powers_.size());
  }
  return std::move(result_);
}

}  // namespace goc::chain
