#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cancel.hpp"
#include "obs/registry.hpp"
#include "core/generators.hpp"
#include "dynamics/scheduler.hpp"
#include "serve/job_table.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "sim/scenarios.hpp"
#include "sim/trajectory.hpp"

namespace goc::serve {
namespace {

// ------------------------------------------------------------ request

TEST(Request, TokenizeSplitsOnWhitespaceAndStripsCr) {
  EXPECT_EQ(tokenize("submit batch --replicas=4"),
            (std::vector<std::string>{"submit", "batch", "--replicas=4"}));
  EXPECT_EQ(tokenize("  status \t 7 \r"),
            (std::vector<std::string>{"status", "7"}));
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize(" \t \r").empty());
}

TEST(Request, ParseRequestSharesCliConventions) {
  const std::vector<Command> commands = {
      {"test", {{"replicas", Flag::kU64, 1, 64, ""},
                {"stop-rel", Flag::kBool, 0, 0, ""},
                {"seed", Flag::kU64, 0, 1e9, ""}}}};
  const Cli cli = parse_request(commands, "test",
                                {"--replicas=4", "--stop-rel", "--seed", "11"})
                      .cli;
  EXPECT_EQ(cli.program(), "goc-serve:test");
  EXPECT_EQ(cli.get_u64("replicas", 0), 4u);
  EXPECT_TRUE(cli.get_bool("stop-rel", false));
  EXPECT_EQ(cli.get_u64("seed", 0), 11u);
  EXPECT_THROW(parse_request(commands, "test", {"--replicas=4", "--stop-rew"}),
               std::invalid_argument);
}

/// Name items parse to their index in the flag's list, which is the
/// enumerator the server casts it to.
TEST(Request, NameItemsMapToTheirEnumerators) {
  const std::vector<Command> commands = command_tables(4);
  const auto index_of = [&](const std::string& kind, const std::string& arg,
                            const std::string& flag) {
    return parse_request(commands, kind, {arg}).items(flag).at(0);
  };
  for (const PowerShape shape : {PowerShape::kEqual, PowerShape::kUniform,
                                 PowerShape::kZipf, PowerShape::kPareto}) {
    const std::string& name = power_shape_name(shape);
    EXPECT_EQ(index_of("enumerate", "--power-shape=" + name, "power-shape"),
              static_cast<std::size_t>(shape));
    EXPECT_EQ(index_of("sweep", "--power-shapes=" + name, "power-shapes"),
              static_cast<std::size_t>(shape));
  }
  for (const RewardShape shape :
       {RewardShape::kEqual, RewardShape::kUniform, RewardShape::kMajors}) {
    const std::string& name = reward_shape_name(shape);
    EXPECT_EQ(index_of("enumerate", "--reward-shape=" + name, "reward-shape"),
              static_cast<std::size_t>(shape));
  }
  for (std::size_t i = 0; i < all_scheduler_kinds().size(); ++i) {
    const std::string& name = scheduler_kind_name(all_scheduler_kinds()[i]);
    EXPECT_EQ(index_of("sweep", "--schedulers=" + name, "schedulers"), i);
  }
  EXPECT_EQ(parse_request(commands, "sweep", {"--miners=4,8,16"})
                .items("miners"),
            (std::vector<std::size_t>{4, 8, 16}));
  EXPECT_TRUE(
      parse_request(commands, "sweep", {"--miners="}).items("miners").empty());
}

// ------------------------------------------------------------ job table

TEST(JobTable, LifecycleDoneAndFetchedOnce) {
  JobTable table;
  const std::uint64_t id = table.submit(
      "test", [](const engine::CancelView&, const JobTable::ProgressFn&) {
        JobOutcome outcome;
        outcome.json = "{}\n";
        outcome.values_hash = 42;
        outcome.summary = "answer";
        return outcome;
      });
  const auto fetched = table.fetch(id, /*wait=*/true);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->status.state, JobState::kDone);
  EXPECT_EQ(fetched->outcome.values_hash, 42u);
  // Retained-until-fetched: the entry is gone after the first fetch.
  EXPECT_FALSE(table.fetch(id, true).has_value());
  EXPECT_EQ(table.size(), 0u);
}

TEST(JobTable, FailedJobReportsDetail) {
  JobTable table;
  const std::uint64_t id = table.submit(
      "test",
      [](const engine::CancelView&, const JobTable::ProgressFn&) -> JobOutcome {
        throw std::runtime_error("boom");
      });
  const auto fetched = table.fetch(id, true);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->status.state, JobState::kFailed);
  EXPECT_NE(fetched->status.detail.find("boom"), std::string::npos);
}

TEST(JobTable, CancelMarksPromptlyAndWorkUnwinds) {
  JobTable table;
  std::atomic<bool> started{false};
  const std::uint64_t id = table.submit(
      "test",
      [&](const engine::CancelView& cancel,
          const JobTable::ProgressFn&) -> JobOutcome {
        started = true;
        for (;;) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          cancel.throw_if_stale("test job cancelled");
        }
      });
  while (!started) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // cancel returns immediately — the work is still inside its poll loop.
  EXPECT_TRUE(table.cancel(id));
  const auto status = table.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kCancelled);
  EXPECT_FALSE(table.cancel(id));  // already terminal
  const auto fetched = table.fetch(id, true);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->status.state, JobState::kCancelled);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.cancel(9999));  // unknown id
}

TEST(JobTable, ShutdownCancelsEverything) {
  JobTable table;
  for (int i = 0; i < 3; ++i) {
    table.submit(
        "test",
        [](const engine::CancelView& cancel,
           const JobTable::ProgressFn&) -> JobOutcome {
          for (;;) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            cancel.throw_if_stale("shutdown");
          }
        });
  }
  table.shutdown();
  EXPECT_EQ(table.size(), 0u);
}

// ------------------------------------------------------------ protocol

std::string respond(Server& server, const std::string& line) {
  std::ostringstream out;
  server.handle_line(line, out);
  return out.str();
}

std::uint64_t values_hash_of(const std::string& reply) {
  const std::string key = "values_hash=";
  const std::size_t pos = reply.find(key);
  EXPECT_NE(pos, std::string::npos) << "no values_hash in: " << reply;
  if (pos == std::string::npos) return 0;
  return std::stoull(reply.substr(pos + key.size()));
}

TEST(Server, PingHelpAndUnknownCommand) {
  Server server(ServerOptions{2});
  EXPECT_EQ(respond(server, "ping"), "ok pong\n");
  EXPECT_EQ(respond(server, ""), "");          // blank: no response
  EXPECT_EQ(respond(server, "# comment"), ""); // comment: no response
  const std::string help = respond(server, "help");
  EXPECT_NE(help.find("ok help"), std::string::npos);
  const std::string err = respond(server, "frobnicate 1");
  EXPECT_EQ(err.rfind("err ", 0), 0u);
  std::ostringstream out;
  EXPECT_FALSE(server.handle_line("quit", out));
  EXPECT_EQ(out.str(), "ok bye\n");
}

TEST(Server, RejectsUnknownFlagsAndKinds) {
  Server server(ServerOptions{2});
  const std::string err = respond(server, "submit batch --replicaz=4");
  EXPECT_EQ(err.rfind("err ", 0), 0u);
  EXPECT_NE(err.find("replicaz"), std::string::npos);
  EXPECT_EQ(respond(server, "submit frob").rfind("err ", 0), 0u);
  EXPECT_EQ(respond(server, "status nope").rfind("err ", 0), 0u);
  EXPECT_EQ(respond(server, "result 99 --wait").rfind("err unknown job", 0),
            0u);
  // Bad numbers and zero sizes are refused at submit, naming the flag,
  // instead of creating a job that fails inside the simulator.
  const std::pair<const char*, const char*> rejected[] = {
      {"submit batch --scenario=chain-reference --miners=0", "--miners"},
      {"submit batch --scenario=chain-reference --chains=0", "--chains"},
      {"submit batch --scenario=market-random --miners=0", "--miners"},
      {"submit batch --scenario=market-random --coins=0", "--coins"},
      {"submit batch --scenario=chain-reference --miners=-5", "--miners"},
      {"submit batch --scenario=chain-reference --miners=12abc", "--miners"},
      {"submit batch --scenario=chain-reference --engine=legacy", "engine"},
      {"submit enumerate --miners=0 --coins=3", "--miners"},
      {"submit enumerate --miners=4 --coins=0", "--coins"},
      {"submit sweep --miners=5 --coins=2 --trials=0", "--trials"},
      {"submit sweep --miners=5,0 --coins=2 --trials=2", "--miners"},
      {"submit sweep --miners=5 --coins=0,3 --trials=2", "--coins"},
      {"submit batch --scenario=market-random --days=-1", "--days"},
      {"submit batch --scenario=chain-reference --days=nan", "--days"},
      {"submit batch --scenario=chain-reference --days=0", "--days"},
      {"submit batch --scenario=market-fork --days=-0.5", "--days"},
      {"submit batch --scenario=market-fork --days=inf", "--days"},
      {"submit batch --scenario=market-random --days=-inf", "--days"},
      // Horizons that are finite and positive but cannot work: the fork
      // reverses on day 15, and market-random runs hourly epochs.
      {"submit batch --scenario=market-fork --days=10", "--days"},
      {"submit batch --scenario=market-fork --days=15", "--days"},
      {"submit batch --scenario=market-random --days=0.01", "--days"},
  };
  for (const auto& [request, flag] : rejected) {
    const std::string reply = respond(server, request);
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << request << " -> " << reply;
    EXPECT_NE(reply.find(flag), std::string::npos) << request << " -> " << reply;
  }
  EXPECT_EQ(server.jobs().size(), 0u);
}

/// The request that puts `arg` on `command`'s table: the verb (with a job
/// id for watch and result) and a batch table's own `--scenario`.
std::string request_for(const Command& command, const std::string& arg) {
  const std::string verb = command.name.substr(0, command.name.find(' '));
  if (command.name != verb) return verb + " 1 " + arg;
  if (verb == "stats") return verb + " " + arg;
  const Flag& head = command.flags.front();
  if (head.name != "scenario") return "submit " + verb + " " + arg;
  return "submit batch --scenario=" + head.names.front() + " " + arg;
}

std::string number_text(double value) {
  std::ostringstream text;
  text.precision(17);
  text << value;
  return text.str();
}

/// Walks every command table: each flag is in `help`, each accepts a value
/// at both ends of its range (or each of its names), and each bound fails
/// one step past its end with an `err` naming the flag — before any job.
TEST(Server, EveryTableFlagIsListedAcceptedAndBounded) {
  Server server(ServerOptions{3});
  const std::string help = respond(server, "help");
  std::size_t rejected = 0;
  for (const Command& command : server.commands()) {
    const std::string verb = command.name.substr(0, command.name.find(' '));
    for (const Flag& flag : command.flags) {
      const std::string option = "--" + flag.name;
      EXPECT_NE(help.find("#   " + option), std::string::npos) << option;
      const bool integer =
          flag.kind == Flag::kU64 || flag.kind == Flag::kU64List;
      std::vector<std::string> valid;
      std::vector<std::string> invalid;
      if (flag.kind == Flag::kBool) {
        valid = {"true", "false"};
        invalid = {"maybe"};
      } else if (!flag.names.empty()) {
        valid = flag.names;
        invalid = {"bogus"};
      } else if (integer) {
        valid.push_back(number_text(flag.min));
        if (flag.min > 0) invalid.push_back(number_text(flag.min - 1));
        if (!std::isinf(flag.max)) {
          valid.push_back(number_text(flag.max));
          invalid.push_back(number_text(flag.max + 1));
        }
      } else {
        valid.push_back(number_text(flag.min));
        invalid.push_back(number_text(flag.min - 1e-9));
        if (!std::isinf(flag.max)) {
          valid.push_back(number_text(flag.max));
          invalid.push_back(number_text(flag.max + 1e-9));
        }
        invalid.push_back("inf");
      }
      const std::vector<std::string> scenario =
          verb == "batch" ? std::vector<std::string>{"--scenario=" +
                                                     command.flags[0].names[0]}
                          : std::vector<std::string>{};
      for (const std::string& value : valid) {
        std::vector<std::string> args = scenario;
        args.push_back(option + "=" + value);
        EXPECT_NO_THROW(parse_request(server.commands(), verb, args))
            << command.name << " " << option << "=" << value;
      }
      for (const std::string& value : invalid) {
        // The validator first, so a broken bound never starts a job.
        std::vector<std::string> args = scenario;
        args.push_back(option + "=" + value);
        EXPECT_THROW(parse_request(server.commands(), verb, args),
                     std::invalid_argument)
            << command.name << " " << option << "=" << value;
        if (HasFailure()) return;
        const std::string request =
            request_for(command, option + "=" + value);
        const std::string reply = respond(server, request);
        EXPECT_EQ(reply.rfind("err ", 0), 0u) << request << " -> " << reply;
        EXPECT_NE(reply.find(option), std::string::npos)
            << request << " -> " << reply;
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 40u);
  EXPECT_EQ(respond(server, "jobs"), "ok jobs=0\n");
}

/// Requests that used to be admitted and then ignored a flag, misread a
/// value, failed inside the job, or reached the host: each is one `err`
/// line naming the flag or limit, and no job exists afterwards.
TEST(Server, RefusesOutOfTableRequestsAtSubmit) {
  Server server(ServerOptions{2});
  const std::string checkpoint = testing::TempDir() + "goc_serve_probe.gocr";
  std::remove(checkpoint.c_str());
  const std::string lanes_past = std::to_string(server.lanes() + 1);
  const std::pair<std::string, const char*> rejected[] = {
      {"submit batch --scenario=chain-reference --miners=8 --coins=99",
       "--coins"},
      {"submit batch --scenario=market-random --chains=77", "--chains"},
      {"submit batch --scenario=market-random --epoch-lanes=5",
       "--epoch-lanes"},
      {"submit batch --scenario=market-fork --coins=2", "--coins"},
      {"submit batch --scenario=chain-ref", "--scenario"},
      {"submit sweep --miners=5x", "--miners"},
      {"submit sweep --miners=-1", "--miners"},
      {"submit sweep --miners=4,x --coins=2", "--miners"},
      {"submit sweep --miners=4, --coins=2", "--miners"},
      {"submit sweep --power-shapes=pareto,bogus", "--power-shapes"},
      {"submit sweep --reward-shapes=bogus", "--reward-shapes"},
      {"submit sweep --schedulers=max-gain,bogus", "--schedulers"},
      {"submit enumerate --power-shape=bogus", "--power-shape"},
      {"submit enumerate --reward-shape=bogus", "--reward-shape"},
      {"submit enumerate --symmetry=off", "--symmetry"},
      {"status 1abc", "status"},
      {"status -1", "status"},
      {"cancel 2x", "cancel"},
      {"submit batch --replicas=2 --checkpoint=" + checkpoint,
       "--checkpoint"},
      {"submit batch --replicas=2 --checkpoint-interval=1",
       "--checkpoint-interval"},
      {"submit batch --replicas=2 --threads=2", "--threads"},
      {"submit batch --scenario=chain-reference --epoch-lanes=" + lanes_past,
       "--epoch-lanes"},
      {"submit batch --replicas=0", "--replicas"},
      {"submit batch --replicas=65537 --miners=4 --chains=1 --days=0.05",
       "--replicas"},
      {"submit batch --stop-metric=blocks_total --stop-min=1", "--stop-min"},
      {"submit batch --stop-metric=bogus", "--stop-metric"},
      {"submit batch --scenario=market-random --stop-metric=blocks_total",
       "--stop-metric"},
      {"submit batch --replicas=4 --stop-metric=blocks_total", "--stop-max"},
      {"submit batch --stop-metric=blocks_total --stop-min=9 --stop-max=8",
       "--stop-max"},
      {"submit batch --stop-metric=blocks_total --stop-wave=0", "--stop-wave"},
      {"submit batch --stop-metric=blocks_total --stop-tol=nan", "--stop-tol"},
      {"submit batch --miners=262145 --replicas=1 --days=0.05", "--miners"},
      {"submit batch --chains=257 --replicas=1 --days=0.05", "--chains"},
      {"submit batch --days=366 --miners=4 --replicas=1", "--days"},
      {"submit enumerate --max-configs=0", "--max-configs"},
      {"submit enumerate --max-configs=4194305", "--max-configs"},
      {"submit enumerate --miners=20 --coins=3", "--max-configs"},
      {"submit enumerate --miners=4 --coins=3 --max-configs=80",
       "--max-configs"},
      {"watch 999 --interval-ms=0", "--interval-ms"},
      {"watch 999 --interval-ms=60001", "--interval-ms"},
  };
  for (const auto& [request, names] : rejected) {
    const std::string reply = respond(server, request);
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << request << " -> " << reply;
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << reply;  // one line
    EXPECT_NE(reply.find(names), std::string::npos)
        << request << " -> " << reply;
  }
  EXPECT_EQ(respond(server, "jobs"), "ok jobs=0\n");
  EXPECT_FALSE(std::ifstream(checkpoint).good());
  // The shortest admitted enumeration space: coins^miners = max-configs.
  EXPECT_EQ(respond(server, "enumerate --miners=4 --coins=3 --max-configs=81"),
            "ok id=1 kind=enumerate\n");
  EXPECT_NE(respond(server, "result 1 --wait").find("state=done"),
            std::string::npos);
}

/// Lists take comma-separated items with the scalar's parse and bounds; an
/// empty list keeps the sweep's default axis.
TEST(Server, SweepListsParseEveryItem) {
  Server server(ServerOptions{2});
  EXPECT_EQ(respond(server,
                    "sweep --miners=4,8,16 --coins=2 --trials=1 "
                    "--schedulers=max-gain --power-shapes=pareto"),
            "ok id=1 kind=sweep\n");
  EXPECT_EQ(respond(server,
                    "sweep --miners= --coins=2 --trials=1 "
                    "--schedulers=max-gain,min-gain --reward-shapes=majors"),
            "ok id=2 kind=sweep\n");
  EXPECT_NE(respond(server, "result 1 --wait").find(" tasks=3 "),
            std::string::npos);
  EXPECT_NE(respond(server, "result 2 --wait").find(" tasks=2 "),
            std::string::npos);
}

TEST(Server, HelpPrintsEveryTable) {
  Server server(ServerOptions{2});
  const std::string help = respond(server, "help");
  for (const char* option :
       {"--reward-shapes=", "--schedulers=", "--power-shapes=",
        "--scenario=market-fork", "--symmetry  ", "--stop-metric=",
        "--interval-ms=N in [1, 60000]", "--epoch-lanes=N in [0, 2]"}) {
    EXPECT_NE(help.find(option), std::string::npos) << option;
  }
  EXPECT_EQ(help.find("--checkpoint"), std::string::npos);
  EXPECT_EQ(help.find("--threads"), std::string::npos);
  EXPECT_EQ(help.substr(help.size() - 8), "ok help\n");
}

TEST(Server, ErrLinesClipEchoedInputToABoundedLength) {
  // A 1 MB value or verb is quoted back clipped, with its length.
  Server server(ServerOptions{2});
  const std::string huge(1u << 20, '7');
  const std::pair<std::string, const char*> rejected[] = {
      {"submit batch --scenario=chain-reference --miners=" + huge, "--miners"},
      {huge, "unknown command"},
  };
  for (const auto& [request, names] : rejected) {
    const std::string reply = respond(server, request);
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply.substr(0, 80);
    EXPECT_EQ(reply.find('\n'), reply.size() - 1);  // exactly one line
    EXPECT_LT(reply.size(), 256u) << reply.substr(0, 80);
    EXPECT_NE(reply.find(names), std::string::npos) << reply;
    EXPECT_NE(reply.find("[1048576 bytes]"), std::string::npos) << reply;
  }
  EXPECT_EQ(server.jobs().size(), 0u);
}

TEST(Server, AcceptsTheShortestWorkableMarketHorizons) {
  // Just past the limits the refusals above enforce: one hourly epoch for
  // market-random, half a day past the reversal for market-fork.
  Server server(ServerOptions{2});
  EXPECT_EQ(respond(server,
                    "submit batch --scenario=market-random --miners=4 "
                    "--days=0.05 --replicas=1"),
            "ok id=1 kind=batch\n");
  EXPECT_EQ(respond(server,
                    "submit batch --scenario=market-fork --miners=4 "
                    "--days=15.5 --replicas=1"),
            "ok id=2 kind=batch\n");
  EXPECT_NE(respond(server, "result 1 --wait").find("state=done"),
            std::string::npos);
  EXPECT_NE(respond(server, "result 2 --wait").find("state=done"),
            std::string::npos);
}

/// The acceptance criterion: a daemon-submitted trajectory batch produces
/// a bit-identical `values_hash` to the equivalent one-shot run — the
/// scenario factory and flag grammar are single-sourced (sim/scenarios.hpp,
/// sim/batch_cli.hpp), and the batch engine is thread-count-invariant, so
/// the warm shared pool changes nothing.
TEST(Server, BatchMatchesOneShotRunBitForBit) {
  sim::ReferenceChainParams params;
  params.miners = 32;
  params.chains = 4;
  params.days = 2.0;
  sim::TrajectoryBatchOptions options;
  options.replicas = 4;
  options.root_seed = 2017;
  options.threads = 1;
  const sim::TrajectoryBatchResult oneshot = sim::run_chain_batch(
      [&](std::uint64_t seed) {
        return sim::make_reference_chain(params, sim::EngineKind::kFlat, seed);
      },
      options);

  Server server(ServerOptions{4});
  const std::string submitted = respond(
      server,
      "submit batch --scenario=chain-reference --miners=32 --chains=4 "
      "--days=2 --replicas=4 --seed=2017");
  EXPECT_EQ(submitted, "ok id=1 kind=batch\n");
  const std::string reply = respond(server, "result 1 --wait");
  EXPECT_NE(reply.find("\"title\""), std::string::npos);
  EXPECT_NE(reply.find("ok id=1 kind=batch state=done"), std::string::npos);
  EXPECT_EQ(values_hash_of(reply), oneshot.values_hash());
  EXPECT_EQ(server.jobs().size(), 0u);
}

TEST(Server, AdaptiveBatchReportsStopReason) {
  Server server(ServerOptions{4});
  respond(server,
          "batch --scenario=chain-reference --miners=16 --chains=2 --days=1 "
          "--seed=3 --replicas=8 --stop-metric=blocks_total --stop-tol=1 "
          "--stop-rel --stop-min=4 --stop-wave=4 --stop-max=16");
  const std::string reply = respond(server, "result 1 --wait");
  EXPECT_NE(reply.find("state=done"), std::string::npos);
  EXPECT_NE(reply.find("stop=tolerance"), std::string::npos);
}

TEST(Server, SweepAndEnumerateAreDeterministicAcrossSubmissions) {
  Server server(ServerOptions{4});
  const std::string sweep =
      "sweep --miners=6 --coins=2 --trials=2 --seed=7 --schedulers=max-gain";
  respond(server, sweep);
  respond(server, sweep);
  const std::string first = respond(server, "result 1 --wait");
  const std::string second = respond(server, "result 2 --wait");
  EXPECT_NE(first.find("state=done"), std::string::npos);
  EXPECT_EQ(values_hash_of(first), values_hash_of(second));

  const std::string enumerate = "enumerate --miners=5 --coins=3 --seed=5";
  respond(server, enumerate);
  respond(server, enumerate);
  const std::string e1 = respond(server, "result 3 --wait");
  const std::string e2 = respond(server, "result 4 --wait");
  EXPECT_NE(e1.find("state=done"), std::string::npos);
  EXPECT_NE(e1.find("canonical="), std::string::npos);
  EXPECT_EQ(values_hash_of(e1), values_hash_of(e2));
}

TEST(Server, CancelInFlightJobReturnsPromptlyAndFetchReportsIt) {
  Server server(ServerOptions{2});
  // A batch big enough that cancel always lands mid-flight (hundreds of
  // replicas, each itself nontrivial); the cancel poll runs per replica.
  respond(server,
          "submit batch --scenario=chain-reference --miners=128 --chains=8 "
          "--days=20 --replicas=512 --seed=1");
  const auto before = std::chrono::steady_clock::now();
  const std::string cancelled = respond(server, "cancel 1");
  const double cancel_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - before)
          .count();
  EXPECT_EQ(cancelled, "ok id=1 state=cancelled\n");
  // "Promptly": cancel only flips state and bumps the token — it must not
  // wait for the batch (which would take seconds).
  EXPECT_LT(cancel_ms, 500.0);
  const std::string status = respond(server, "status 1");
  EXPECT_NE(status.find("state=cancelled"), std::string::npos);
  const std::string reply = respond(server, "result 1 --wait");
  EXPECT_EQ(reply.rfind("err ", 0), 0u);
  EXPECT_NE(reply.find("cancelled"), std::string::npos);
  EXPECT_EQ(server.jobs().size(), 0u);
  // Double-cancel after fetch: the id no longer exists.
  EXPECT_EQ(respond(server, "cancel 1").rfind("err unknown job", 0), 0u);
}

TEST(Server, ResultWithoutWaitOnRunningJobKeepsTheEntry) {
  Server server(ServerOptions{2});
  respond(server,
          "submit batch --scenario=chain-reference --miners=128 --chains=8 "
          "--days=20 --replicas=512 --seed=1");
  const std::string reply = respond(server, "result 1");
  EXPECT_EQ(reply.rfind("err ", 0), 0u);
  EXPECT_NE(reply.find("--wait"), std::string::npos);
  EXPECT_EQ(server.jobs().size(), 1u);
  respond(server, "cancel 1");
  respond(server, "result 1 --wait");
  EXPECT_EQ(server.jobs().size(), 0u);
}

TEST(Server, JobsListsLiveEntries) {
  Server server(ServerOptions{2});
  EXPECT_EQ(respond(server, "jobs"), "ok jobs=0\n");
  respond(server, "enumerate --miners=4 --coins=2 --seed=1");
  const std::string listing = respond(server, "jobs");
  EXPECT_NE(listing.find("job id=1 kind=enumerate"), std::string::npos);
  EXPECT_NE(listing.find("ok jobs=1"), std::string::npos);
  respond(server, "result 1 --wait");
  EXPECT_EQ(respond(server, "jobs"), "ok jobs=0\n");
}

TEST(Server, StatusReportsProgressAndElapsed) {
  Server server(ServerOptions{2});
  respond(server,
          "batch --scenario=chain-reference --miners=8 --chains=2 --days=1 "
          "--replicas=4 --seed=3");
  // Poll status (which never consumes the entry) until the job lands.
  std::string status;
  for (int i = 0; i < 2000; ++i) {
    status = respond(server, "status 1");
    if (status.find("state=done") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_NE(status.find("state=done"), std::string::npos);
  EXPECT_NE(status.find(" progress=4/4"), std::string::npos);
  EXPECT_NE(status.find(" ci="), std::string::npos);
  EXPECT_NE(status.find(" elapsed_ms="), std::string::npos);
  respond(server, "result 1 --wait");
}

TEST(Server, WatchStreamsMonotoneProgressRows) {
  Server server(ServerOptions{2});
  respond(server,
          "batch --scenario=chain-reference --miners=16 --chains=2 --days=2 "
          "--replicas=64 --seed=5");
  const std::string reply = respond(server, "watch 1 --interval-ms=2");
  std::istringstream lines(reply);
  std::string line;
  std::size_t rows = 0;
  std::uint64_t previous_done = 0;
  std::string last_row;
  while (std::getline(lines, line)) {
    if (line.rfind("progress id=1 ", 0) != 0) continue;
    ++rows;
    const std::size_t pos = line.find(" progress=");
    ASSERT_NE(pos, std::string::npos) << line;
    const std::uint64_t done =
        std::stoull(line.substr(pos + std::string(" progress=").size()));
    EXPECT_GE(done, previous_done) << line;  // monotone across rows
    previous_done = done;
    last_row = line;
  }
  // The protocol guarantee: an initial row plus a terminal row at minimum.
  EXPECT_GE(rows, 2u);
  EXPECT_NE(last_row.find("state=done"), std::string::npos);
  EXPECT_NE(last_row.find(" progress=64/64"), std::string::npos);
  EXPECT_NE(reply.find("ok id=1 rows="), std::string::npos);
  respond(server, "result 1 --wait");
  // After the fetch the id is gone; watch reports that instead of hanging.
  EXPECT_EQ(respond(server, "watch 1").rfind("err unknown job", 0), 0u);
  EXPECT_EQ(respond(server, "watch 1 --bogus=1").rfind("err ", 0), 0u);
}

TEST(Server, StatsExposesRegistryCounters) {
  Server server(ServerOptions{2});
  respond(server,
          "batch --scenario=chain-reference --miners=8 --chains=2 --days=1 "
          "--replicas=4 --seed=9");
  respond(server, "result 1 --wait");
  const std::string json = respond(server, "stats --json");
  // One compact JSON payload line, then the ok terminator.
  EXPECT_EQ(json.rfind("{\"counters\": ", 0), 0u);
  EXPECT_NE(json.find("\"serve.jobs.submitted\": "), std::string::npos);
  EXPECT_NE(json.find("\"engine.pool.tasks\": "), std::string::npos);
  EXPECT_NE(json.find("\nok stats counters="), std::string::npos);
  // The counters reflect the drained job.
  const obs::Snapshot snapshot = obs::Registry::instance().snapshot();
  const obs::CounterSnapshot* submitted =
      snapshot.find_counter("serve.jobs.submitted");
  ASSERT_NE(submitted, nullptr);
  EXPECT_GE(submitted->value, 1u);
  const obs::CounterSnapshot* pool_tasks =
      snapshot.find_counter("engine.pool.tasks");
  ASSERT_NE(pool_tasks, nullptr);
  EXPECT_GE(pool_tasks->value, 1u);
  // Default rendering is Prometheus-style exposition text.
  const std::string prom = respond(server, "stats");
  EXPECT_NE(prom.find("goc_serve_jobs_submitted "), std::string::npos);
  EXPECT_NE(prom.find("goc_engine_pool_task_run_ns_bucket{le="),
            std::string::npos);
  EXPECT_EQ(respond(server, "stats --frob").rfind("err ", 0), 0u);
}

TEST(Server, ServeLoopDrivesAFullSession) {
  Server server(ServerOptions{2});
  std::istringstream in(
      "ping\n"
      "enumerate --miners=4 --coins=2 --seed=9\n"
      "result 1 --wait\n"
      "quit\n"
      "ping\n");  // after quit: never reached
  std::ostringstream out;
  server.serve(in, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("ok pong"), std::string::npos);
  EXPECT_NE(text.find("values_hash="), std::string::npos);
  EXPECT_NE(text.find("ok bye"), std::string::npos);
  // The loop stopped at quit: exactly one pong.
  EXPECT_EQ(text.find("ok pong"), text.rfind("ok pong"));
}

TEST(Server, ServeRefusesAnOverlongLineOnceAndCarriesOn) {
  Server server(ServerOptions{2});
  std::istringstream in(std::string(1u << 20, 'x') + "\nping\n");
  std::ostringstream out;
  server.serve(in, out);
  EXPECT_EQ(out.str(), "err request line exceeds 65536 bytes\nok pong\n");

  // A line of exactly the limit is read whole; one past it is refused,
  // also when the input ends without a newline.
  const std::string verb(Server::kMaxLineBytes, 'y');
  std::istringstream at_limit(verb + "\n" + verb + "z");
  std::ostringstream replies;
  server.serve(at_limit, replies);
  const std::string text = replies.str();
  EXPECT_EQ(text.rfind("err unknown command 'yyy", 0), 0u);
  EXPECT_NE(text.find("[65536 bytes]"), std::string::npos);
  EXPECT_NE(text.find("\nerr request line exceeds 65536 bytes\n"),
            std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Server, ServeStopsOnceOutputFails) {
  Server server(ServerOptions{2});
  std::istringstream in("ping\nping\n");
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  server.serve(in, out);
  EXPECT_EQ(in.tellg(), 0);  // nothing read for a dead client
}

}  // namespace
}  // namespace goc::serve
