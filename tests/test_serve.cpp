#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cancel.hpp"
#include "obs/registry.hpp"
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

TEST(Request, CliFromTokensSharesCliConventions) {
  const Cli cli = cli_from_tokens(
      "goc-serve:batch", {"--replicas=4", "--stop-rel", "--seed", "11"});
  EXPECT_EQ(cli.get_u64("replicas", 0), 4u);
  EXPECT_TRUE(cli.get_bool("stop-rel", false));
  EXPECT_EQ(cli.get_u64("seed", 0), 11u);
  EXPECT_THROW(reject_unknown(cli, {"replicas", "seed"}),
               std::invalid_argument);
  EXPECT_NO_THROW(reject_unknown(cli, {"replicas", "stop-rel", "seed"}));
}

TEST(Request, ParseSizeList) {
  EXPECT_EQ(parse_size_list("4,8,16", "--miners"),
            (std::vector<std::size_t>{4, 8, 16}));
  EXPECT_TRUE(parse_size_list("", "--miners").empty());
  EXPECT_THROW(parse_size_list("4,x", "--miners"), std::invalid_argument);
}

TEST(Request, NameParsersRoundTripAndRejectUnknown) {
  EXPECT_EQ(power_shape_from_name("pareto"), PowerShape::kPareto);
  EXPECT_EQ(reward_shape_from_name("majors"), RewardShape::kMajors);
  EXPECT_EQ(scheduler_kind_from_name("max-gain"), SchedulerKind::kMaxGain);
  EXPECT_THROW(power_shape_from_name("bogus"), std::invalid_argument);
  EXPECT_THROW(reward_shape_from_name("bogus"), std::invalid_argument);
  EXPECT_THROW(scheduler_kind_from_name("bogus"), std::invalid_argument);
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
  };
  for (const auto& [request, flag] : rejected) {
    const std::string reply = respond(server, request);
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << request << " -> " << reply;
    EXPECT_NE(reply.find(flag), std::string::npos) << request << " -> " << reply;
  }
  EXPECT_EQ(server.jobs().size(), 0u);
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

}  // namespace
}  // namespace goc::serve
