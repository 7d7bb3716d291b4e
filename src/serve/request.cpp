#include "serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/generators.hpp"
#include "dynamics/scheduler.hpp"
#include "sim/batch_cli.hpp"

namespace goc::serve {

namespace {

std::string joined(const std::vector<std::string>& names, const char* sep) {
  std::string text;
  for (const std::string& name : names) {
    text += (text.empty() ? "" : sep) + name;
  }
  return text;
}

/// " in [lo, hi]" or " >= lo" for a number kind; empty for an unbounded
/// integer.
std::string range_text(const Flag& flag) {
  std::ostringstream text;
  text.precision(7);
  if (!std::isinf(flag.max)) {
    text << " in [" << flag.min << ", " << flag.max << "]";
  } else if (flag.min > 0 || flag.kind == Flag::kDouble) {
    text << " >= " << flag.min;
  }
  return text.str();
}

/// One item of `flag`'s value, parsed strictly and checked against the
/// flag's bounds or names; a name parses to its index in `names`.
std::size_t parse_item(const Flag& flag, const std::string& item) {
  const std::string what = "option --" + flag.name;
  if (flag.kind == Flag::kBool) return parse_bool(what, item);
  if (flag.kind >= Flag::kName) {
    const auto it = std::find(flag.names.begin(), flag.names.end(), item);
    if (it == flag.names.end()) {
      throw std::invalid_argument(what + " expects one of " +
                                  joined(flag.names, ", ") + ", got '" +
                                  clip_input(item) + "'");
    }
    return static_cast<std::size_t>(it - flag.names.begin());
  }
  const bool real = flag.kind == Flag::kDouble;
  const std::uint64_t whole = real ? 0 : parse_u64(what, item);
  const double value =
      real ? parse_double(what, item) : static_cast<double>(whole);
  if (!std::isfinite(value) || value < flag.min || value > flag.max) {
    throw std::invalid_argument(what + " expects a value" + range_text(flag) +
                                ", got '" + clip_input(item) + "'");
  }
  return whole;
}

/// The parsed items of `flag`'s value in `cli`: one for a scalar, one per
/// comma-separated item for a list (an empty list value is no items).
std::vector<std::size_t> parse_items(const Cli& cli, const Flag& flag) {
  const std::string text = cli.get_string(flag.name, "");
  if (flag.kind != Flag::kU64List && flag.kind != Flag::kNameList) {
    return {parse_item(flag, text)};
  }
  std::vector<std::size_t> items;
  for (std::size_t start = 0; !text.empty() && start <= text.size();) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    items.push_back(parse_item(flag, text.substr(start, comma - start)));
    start = comma + 1;
  }
  return items;
}

/// A `Cli` over `args` named `goc-serve:<command>`, so option errors name
/// the command that failed.
Cli cli_for(const std::string& command, const std::vector<std::string>& args) {
  const std::string program = "goc-serve:" + command;
  std::vector<const char*> argv = {program.c_str()};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

void reject_unknown(const Cli& cli, const FlagTable& flags) {
  std::vector<std::string> known;
  for (const Flag& flag : flags) known.push_back(flag.name);
  const std::vector<std::string> stray = cli.unknown(known);
  if (stray.empty()) return;
  std::string message = "unknown option(s) for " + cli.program() + ":";
  for (const auto& name : stray) message += " --" + clip_input(name);
  throw std::invalid_argument(message);
}

}  // namespace

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  for (std::string token; stream >> token;) tokens.push_back(token);
  return tokens;
}

std::vector<Command> command_tables(std::size_t lanes) {
  // Name lists follow enumerator order, so an item's index is its value.
  std::vector<std::string> powers, rewards, schedulers;
  for (const PowerShape shape : {PowerShape::kEqual, PowerShape::kUniform,
                                 PowerShape::kZipf, PowerShape::kPareto}) {
    powers.push_back(power_shape_name(shape));
  }
  for (const RewardShape shape :
       {RewardShape::kEqual, RewardShape::kUniform, RewardShape::kMajors}) {
    rewards.push_back(reward_shape_name(shape));
  }
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    schedulers.push_back(scheduler_kind_name(kind));
  }
  const double inf = std::numeric_limits<double>::infinity();
  // 2^18 miners x 256 chains of 4-byte members: one replica's chain
  // membership reservation stays within 256 MiB.
  const Flag miners{"miners", Flag::kU64, 1, 1 << 18, "miners"};
  const Flag coins{"coins", Flag::kU64, 1, 256, "coins"};
  const Flag days{"days", Flag::kDouble, 1.0 / 24, 365,
                  "simulated days (one hourly epoch at least)"};
  const Flag seed{"seed", Flag::kU64, 0, inf, "root seed"};
  const auto batch = [](std::string scenario, FlagTable own,
                        const std::vector<std::string>& metrics) {
    own.insert(own.begin(), {"scenario", Flag::kName, 0, 0, "the workload",
                             {std::move(scenario)}});
    for (Flag& flag : sim::batch_cli_flags(metrics)) own.push_back(flag);
    return Command{"batch", std::move(own)};
  };
  return {
      batch("chain-reference",
            {miners,
             {"chains", Flag::kU64, 1, 256, "chains"},
             days,
             {"epoch-lanes", Flag::kU64, 0, static_cast<double>(lanes),
              "sharded decision-epoch lanes (0 = sequential)"},
             seed},
            sim::chain_batch_metrics()),
      batch("market-random", {miners, coins, days, seed},
            sim::market_batch_metrics()),
      batch("market-fork", {miners, days, seed}, sim::market_batch_metrics()),
      {"sweep",
       {{"miners", Flag::kU64List, 1, 1 << 18, "miners axis"},
        {"coins", Flag::kU64List, 1, 256, "coins axis"},
        {"power-shapes", Flag::kNameList, 0, 0, "power axis", powers},
        {"reward-shapes", Flag::kNameList, 0, 0, "reward axis", rewards},
        {"schedulers", Flag::kNameList, 0, 0, "scheduler axis", schedulers},
        {"trials", Flag::kU64, 1, 65536, "trials per grid point"},
        seed,
        {"max-steps", Flag::kU64, 0, inf, "learning step cap"}}},
      {"enumerate",
       {miners,
        coins,
        {"power-shape", Flag::kName, 0, 0, "(default uniform)", powers},
        {"reward-shape", Flag::kName, 0, 0, "(default uniform)", rewards},
        seed,
        {"max-configs", Flag::kU64, 1, 1 << 22, "cap on coins^miners"},
        {"symmetry", Flag::kBool, 0, 0, "walk one miner class per orbit"}}},
      {"watch <id>",
       {{"interval-ms", Flag::kU64, 1, 60000, "poll period (default 50)"}}},
      {"result <id>", {{"wait", Flag::kBool, 0, 0, "block until terminal"}}},
      {"stats", {{"json", Flag::kBool, 0, 0, "one JSON line"}}}};
}

std::vector<std::size_t> Request::items(const std::string& name) const {
  for (const Flag& flag : *flags) {
    if (flag.name == name) {
      return cli.has(name) ? parse_items(cli, flag)
                           : std::vector<std::size_t>{};
    }
  }
  throw std::logic_error("no flag --" + name + " in " + cli.program());
}

Request parse_request(const std::vector<Command>& commands,
                      const std::string& command,
                      const std::vector<std::string>& args) {
  Cli cli = cli_for(command, args);
  const std::string scenario = cli.get_string("scenario", "");
  std::vector<std::string> scenarios;
  for (const Command& entry : commands) {
    if (entry.name.substr(0, entry.name.find(' ')) != command) continue;
    const Flag& head = entry.flags.front();
    if (head.name == "scenario" && !scenario.empty() &&
        head.names.front() != scenario) {
      scenarios.push_back(head.names.front());
      continue;
    }
    reject_unknown(cli, entry.flags);
    for (const Flag& flag : entry.flags) {
      if (cli.has(flag.name)) parse_items(cli, flag);
    }
    return Request{std::move(cli), &entry.flags};
  }
  throw std::invalid_argument("option --scenario expects one of " +
                              joined(scenarios, ", ") + ", got '" +
                              clip_input(scenario) + "'");
}

void write_help(std::ostream& out, const std::vector<Command>& commands) {
  static const char* const kValue[] = {"=N", "=N,...", "=X", "", "=",
                                       "=NAME,... of "};
  for (const Command& command : commands) {
    out << "# " << command.name << "\n";
    for (const Flag& flag : command.flags) {
      const std::string range =
          flag.kind <= Flag::kDouble ? range_text(flag) : std::string();
      out << "#   --" << flag.name << kValue[flag.kind]
          << joined(flag.names, "|") << range << "  " << flag.help << "\n";
    }
  }
}

}  // namespace goc::serve
