#include "sim/batch_cli.hpp"

#include <limits>
#include <stdexcept>

namespace goc::sim {

void apply_batch_cli(const Cli& cli, TrajectoryBatchOptions& options) {
  options.replicas = cli.get_u64("replicas", options.replicas);
  options.threads = cli.get_u64("threads", options.threads);
  const bool preseeded = options.stopping.has_value();
  const std::string metric =
      cli.get_string("stop-metric", preseeded ? options.stopping->metric : "");
  if (!metric.empty()) {
    StoppingRule rule;
    if (preseeded) rule = *options.stopping;
    rule.metric = metric;
    rule.tolerance = cli.get_double("stop-tol", rule.tolerance);
    rule.relative = cli.get_bool("stop-rel", rule.relative);
    rule.min_replicas = cli.get_u64("stop-min", rule.min_replicas);
    // A pre-seeded ceiling is a deliberate default and must survive (the
    // documented contract); only a rule born from the flags alone falls
    // back to --replicas, so "the same study, adaptive" is one extra flag.
    rule.max_replicas = cli.get_u64(
        "stop-max", preseeded ? rule.max_replicas : options.replicas);
    rule.wave = cli.get_u64("stop-wave", rule.wave);
    if (rule.max_replicas < rule.min_replicas) {
      throw std::invalid_argument(
          "option --stop-max (default --replicas) must be at least "
          "--stop-min (" + std::to_string(rule.min_replicas) + ")");
    }
    options.stopping = rule;
  }
  const std::string checkpoint = cli.get_string("checkpoint", "");
  if (!checkpoint.empty()) {
    replay::CheckpointOptions ckpt;
    ckpt.path = checkpoint;
    ckpt.interval = cli.get_u64("checkpoint-interval", ckpt.interval);
    options.checkpoint = ckpt;
  }
}

FlagTable batch_cli_flags(const std::vector<std::string>& metrics) {
  // 65536 bounds the requested × metrics value matrix a batch allocates.
  return {
      {"replicas", Flag::kU64, 1, 65536, "replicas (fixed R)"},
      {"stop-metric", Flag::kName, 0, 0, "stop on this metric's 95% CI",
       metrics},
      {"stop-tol", Flag::kDouble, 0, std::numeric_limits<double>::infinity(),
       "CI half-width target"},
      {"stop-rel", Flag::kBool, 0, 0, "--stop-tol is relative to |mean|"},
      {"stop-min", Flag::kU64, 2, 65536, "replicas before the first check"},
      {"stop-max", Flag::kU64, 2, 65536, "replica ceiling (--replicas)"},
      {"stop-wave", Flag::kU64, 1, 65536, "replicas per wave"}};
}

const std::vector<std::string>& batch_cli_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = {"threads", "checkpoint",
                                      "checkpoint-interval"};
    for (const Flag& flag : batch_cli_flags({})) names.push_back(flag.name);
    return names;
  }();
  return kNames;
}

}  // namespace goc::sim
