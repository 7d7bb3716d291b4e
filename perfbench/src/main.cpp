// The repository benchmark: request latency of the Game of Coins engine,
// end to end through the `goc-serve` protocol and the library, plus a traced
// per-layer breakdown. See perfbench/README.md for the workloads, the metric
// map and how to run it; perfbench/run.py builds and invokes this binary.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.hpp"
#include "obs/registry.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Requests kept outstanding by the closed-loop client (K). Each serve job
/// gets its own job-table thread in the daemon, so K also bounds those (2K on
/// game-serve, whose requests are two jobs).
constexpr std::size_t kOutstanding = 2;
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 9;
/// The tail percentile is the highest one with this many samples beyond it.
constexpr std::size_t kTailBeyond = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string expected = "perfbench/expected_hashes.txt";
  std::string trace_out;
  std::string commit = "unknown";
  bool print_hashes = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S]\n"
            << "                 [--trace 0|1] [--small] [--expected PATH]\n"
            << "                 [--trace-out PATH] [--commit SHA]\n"
            << "                 [--print-hashes]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    const bool boolean = flag == "--small" || flag == "--print-hashes";
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (!boolean) {
      if (i + 1 >= argc) usage("missing value for " + flag);
      value = argv[++i];
    }
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--small") {
        args.small = true;
      } else if (flag == "--expected") {
        args.expected = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--print-hashes") {
        args.print_hashes = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("--workload must be one of chain-serve, epoch-scale, market-serve, "
          "game-serve");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(goc::obs::now_ns() - start_ns) / 1e9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// --------------------------------------------------------- expected hashes

std::string hash_key(const std::string& workload, bool small, std::size_t spec,
                     std::size_t job) {
  return workload + (small ? " small " : " full ") + std::to_string(spec) +
         " " + std::to_string(job);
}

/// expected_hashes.txt: `<workload> <full|small> <spec> <job> <values_hash>`
/// per line, for the requests of kDefaultSeed; `#` starts a comment.
std::map<std::string, std::uint64_t> load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected hashes " + path);
  std::map<std::string, std::uint64_t> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, size;
    std::size_t spec = 0, job = 0;
    std::uint64_t hash = 0;
    if (!(fields >> workload >> size >> spec >> job >> hash)) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    expected[hash_key(workload, size == "small", spec, job)] = hash;
  }
  return expected;
}

// ------------------------------------------------------------------ client

/// One request in flight.
struct Pending {
  const Spec* spec = nullptr;
  std::size_t spec_index = 0;
  std::uint64_t request = 0;  ///< trace request id
  std::uint64_t start_ns = 0;
  std::uint32_t span = 0;
  std::vector<std::uint64_t> job_ids;
  std::string submit_error;
  std::future<Outcome> future;
};

/// Sends requests through `serve::Server::handle_line` (the goc-serve
/// protocol), whose jobs share the daemon's pool of `lanes`, or, on
/// epoch-scale, as direct library calls on their own threads. There the
/// client's pool serves the replica level when `plan_nested_lanes` gives it
/// the lanes; otherwise each simulator starts its own epoch pool.
class Client {
 public:
  Client(bool via_serve, std::size_t lanes) : lanes_(lanes) {
    if (via_serve) {
      goc::serve::ServerOptions options;
      options.threads = lanes;
      server_.emplace(options);
    } else {
      pool_.emplace(goc::engine::ThreadPool::workers_for(lanes));
    }
  }

  void submit(Pending& pending, Tracer* tracer) {
    const Spec& spec = *pending.spec;
    if (!server_) {
      goc::engine::ThreadPool& pool = *pool_;
      const std::size_t lanes = lanes_;
      const std::uint32_t parent = pending.span;
      const std::uint64_t request = pending.request;
      pending.future = std::async(
          std::launch::async, [&spec, &pool, lanes, tracer, parent, request] {
            ScopedSpan span(tracer, "sim.run_chain_batch", parent, request);
            return spec.direct(pool, lanes);
          });
      return;
    }
    for (const std::string& line : spec.jobs) {
      std::string reply;
      {
        ScopedSpan span(tracer, "serve.submit", pending.span, pending.request);
        reply = call(line);
      }
      if (reply.rfind("ok id=", 0) != 0) {
        pending.submit_error = reply;
        continue;
      }
      pending.job_ids.push_back(std::stoull(reply.substr(6)));
    }
  }

  Outcome wait(Pending& pending, Tracer* tracer) {
    Outcome outcome;
    if (!server_) {
      try {
        outcome = pending.future.get();
      } catch (const std::exception& error) {
        outcome.error = error.what();
      }
      return outcome;
    }
    for (const std::uint64_t id : pending.job_ids) {
      std::string reply;
      {
        ScopedSpan span(tracer, "serve.result", pending.span, pending.request);
        reply = call("result " + std::to_string(id) + " --wait");
      }
      const std::size_t at = reply.find(" values_hash=");
      if (reply.rfind("ok ", 0) != 0 || at == std::string::npos) {
        outcome.error = reply;
        continue;
      }
      outcome.hashes.push_back(std::stoull(reply.substr(at + 13)));
    }
    if (!pending.submit_error.empty()) outcome.error = pending.submit_error;
    return outcome;
  }

 private:
  /// One protocol exchange; returns the terminating ok/err line.
  std::string call(const std::string& line) {
    std::ostringstream out;
    server_->handle_line(line, out);
    std::string text = out.str();
    while (!text.empty() && text.back() == '\n') text.pop_back();
    const std::size_t nl = text.rfind('\n');
    return nl == std::string::npos ? text : text.substr(nl + 1);
  }

  std::size_t lanes_;
  std::optional<goc::engine::ThreadPool> pool_;
  std::optional<goc::serve::Server> server_;
};

// ------------------------------------------------------------------ stream

struct Stream {
  std::vector<std::size_t> specs;  ///< spec index per request, send order
  std::vector<Outcome> outcomes;
  std::vector<double> latency_ms;
  double wall_s = 0.0;
};

/// The closed loop: keep kOutstanding requests in flight, wait for the
/// oldest, send the next. Sends until `seconds` have passed, or exactly
/// `count` requests when `count` > 0.
Stream run_stream(Client& client, const Workload& workload,
                  const std::vector<std::size_t>& order, double seconds,
                  std::size_t count, Tracer* tracer) {
  Stream stream;
  std::deque<Pending> inflight;
  // At least two rounds of the distinct requests, so each one recurs.
  const std::size_t min_requests = 2 * order.size();
  const std::uint64_t start = goc::obs::now_ns();
  std::size_t sent = 0;
  const auto more = [&] {
    if (count > 0) return sent < count;
    return sent < min_requests || seconds_since(start) < seconds;
  };
  const auto send = [&] {
    Pending& pending = inflight.emplace_back();
    pending.spec_index = order[sent % order.size()];
    pending.spec = &workload.specs[pending.spec_index];
    pending.request = sent + 1;
    pending.start_ns = goc::obs::now_ns();
    if (tracer != nullptr) {
      pending.span = tracer->begin("request", 0, pending.request);
    }
    client.submit(pending, tracer);
    ++sent;
  };
  while (inflight.size() < kOutstanding && more()) send();
  while (!inflight.empty()) {
    Pending& oldest = inflight.front();
    Outcome outcome = client.wait(oldest, tracer);
    if (tracer != nullptr) tracer->end(oldest.span);
    stream.latency_ms.push_back(seconds_since(oldest.start_ns) * 1e3);
    stream.specs.push_back(oldest.spec_index);
    stream.outcomes.push_back(std::move(outcome));
    inflight.pop_front();
    if (more()) send();
  }
  stream.wall_s = seconds_since(start);
  return stream;
}

/// Send order: the distinct requests in a seed-shuffled cycle.
std::vector<std::size_t> send_order(std::size_t distinct, std::uint64_t seed) {
  std::vector<std::size_t> order(distinct);
  for (std::size_t i = 0; i < distinct; ++i) order[i] = i;
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (std::size_t i = distinct; i > 1; --i) {
    state ^= state >> 33;
    state *= 0xff51afd7ed558ccdULL;
    state ^= state >> 29;
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

// ------------------------------------------------------------------ checks

/// Result checks. A request fails when it returned an error or a hash list
/// that differs from its reference: the recorded hash for the default seed,
/// else the first answer seen for the same request in this run.
class Checker {
 public:
  Checker(const Args& args, std::map<std::string, std::uint64_t> expected)
      : args_(args), expected_(std::move(expected)) {}

  /// Returns true when `outcome` is a correct answer to spec `spec` of
  /// `workload` (built from this run's seed, or from kDefaultSeed when
  /// `pinned`).
  bool check(const Workload& workload, std::size_t spec,
             const Outcome& outcome, bool pinned, const std::string& what) {
    if (!outcome.error.empty()) return fail(what + ": " + outcome.error);
    const std::size_t jobs =
        workload.via_serve ? workload.specs[spec].jobs.size() : 1;
    if (outcome.hashes.size() != jobs) return fail(what + ": wrong job count");
    if (!pinned) {
      const auto [it, first] = seen_.emplace(spec, outcome.hashes);
      if (!first && it->second != outcome.hashes) {
        return fail(what + ": spec " + std::to_string(spec) +
                    " returned a different values_hash than before");
      }
      if (args_.seed != kDefaultSeed) return true;
    }
    for (std::size_t j = 0; j < jobs; ++j) {
      const auto it =
          expected_.find(hash_key(workload.name, args_.small, spec, j));
      if (it == expected_.end()) {
        return fail(what + ": no expected hash recorded for spec " +
                    std::to_string(spec) + " job " + std::to_string(j));
      }
      if (it->second != outcome.hashes[j]) {
        return fail(what + ": values_hash " +
                    std::to_string(outcome.hashes[j]) + " != recorded " +
                    std::to_string(it->second) + " (spec " +
                    std::to_string(spec) + " job " + std::to_string(j) + ")");
      }
    }
    return true;
  }

  const std::map<std::size_t, std::vector<std::uint64_t>>& seen() const {
    return seen_;
  }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  bool fail(const std::string& problem) {
    if (problems_.size() < 20) problems_.push_back(problem);
    return false;
  }

  const Args& args_;
  std::map<std::string, std::uint64_t> expected_;
  std::map<std::size_t, std::vector<std::uint64_t>> seen_;
  std::vector<std::string> problems_;
};

/// Counts failed requests of `stream` (each checked against its reference).
std::size_t check_stream(Checker& checker, const Workload& workload,
                         const Stream& stream, const std::string& label) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < stream.outcomes.size(); ++i) {
    if (!checker.check(workload, stream.specs[i], stream.outcomes[i], false,
                       label + " request " + std::to_string(i + 1))) {
      ++failed;
    }
  }
  return failed;
}

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << "# " << title << "\n";
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "#   %-34s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }
}

/// Registry deltas between two snapshots.
struct ObsDelta {
  goc::obs::Snapshot before;
  goc::obs::Snapshot after;

  double counter(const std::string& name) const {
    const auto* a = after.find_counter(name);
    const auto* b = before.find_counter(name);
    return static_cast<double>((a ? a->value : 0) - (b ? b->value : 0));
  }
  double hist_count(const std::string& name) const {
    const auto* a = after.find_histogram(name);
    const auto* b = before.find_histogram(name);
    return static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
  }
  double hist_sum(const std::string& name) const {
    const auto* a = after.find_histogram(name);
    const auto* b = before.find_histogram(name);
    return static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0));
  }
  double hist_mean(const std::string& name) const {
    const double n = hist_count(name);
    return n > 0 ? hist_sum(name) / n : 0.0;
  }
};

goc::obs::Snapshot snapshot() {
  return goc::obs::Registry::instance().snapshot();
}

const char* const kEventTypes[] = {"block_found", "decision_epoch",
                                   "price_tick", "fee_update"};

double events_dispatched(const ObsDelta& delta) {
  double total = 0.0;
  for (const char* type : kEventTypes) {
    total += delta.counter(std::string("sim.events.dispatched.") + type);
  }
  return total;
}

struct TraceRun {
  Stream untraced;
  Stream traced;
  ObsDelta stream_obs;
  ObsDelta replay_obs;
  ReplayStats stats;
  Tracer tracer;
};

/// The per-layer table of a traced run, grouped by layer; only the layers
/// this workload runs are listed.
std::vector<Metric> layer_metrics(const Workload& workload, TraceRun& run,
                                  std::size_t lanes) {
  std::map<std::string, Tracer::LayerTime> layers;
  for (const auto& layer : run.tracer.layer_times()) layers[layer.name] = layer;
  const auto span_mean_ms = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.count);
  };
  const auto span_total_ms = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ms;
  };
  const auto ran = [&](const std::string& name) {
    return layers.count(name) > 0;
  };
  const ObsDelta& obs = run.stream_obs;
  std::vector<Metric> m;

  if (workload.via_serve) {
    const double run_ms = obs.hist_mean("serve.job.run_ns") / 1e6;
    m.push_back({"serve.submit_us", span_mean_ms("serve.submit") * 1e3, "us"});
    m.push_back({"serve.queue_wait_ms",
                 obs.hist_mean("serve.job.queue_wait_ns") / 1e6, "ms"});
    m.push_back({"serve.run_ms", run_ms, "ms"});
    m.push_back(
        {"serve.overhead_ms", mean(run.traced.latency_ms) - run_ms, "ms"});
  }

  m.push_back({"engine.pool.tasks", obs.counter("engine.pool.tasks"), "count"});
  m.push_back({"engine.pool.task_wait_us",
               obs.hist_mean("engine.pool.task_wait_ns") / 1e3, "us"});
  m.push_back({"engine.pool.task_run_us",
               obs.hist_mean("engine.pool.task_run_ns") / 1e3, "us"});
  m.push_back({"engine.pool.busy_frac",
               obs.hist_sum("engine.pool.task_run_ns") / 1e9 /
                   (static_cast<double>(lanes) * run.traced.wall_s),
               "ratio"});

  const auto& records = run.stats.sweep_records;
  if (!records.empty()) {
    double max_ms = 0.0, total_ms = 0.0, steps = 0.0;
    std::map<std::string, std::vector<double>> by_scheduler;
    for (const auto& r : records) {
      max_ms = std::max(max_ms, r.wall_ms);
      total_ms += r.wall_ms;
      steps += static_cast<double>(r.steps);
      by_scheduler[goc::scheduler_kind_name(r.task.scheduler)].push_back(
          r.wall_ms);
    }
    m.push_back({"engine.sweep.task_max_ms", max_ms, "ms"});
    m.push_back({"dynamics.steps", steps / static_cast<double>(records.size()),
                 "count"});
    m.push_back({"dynamics.steps_per_s", steps / (total_ms / 1e3), "1/s"});
    for (const auto& [name, times] : by_scheduler) {
      m.push_back({"dynamics.task_ms." + name, mean(times), "ms"});
    }
  }

  if (ran("sim.batch")) {
    const double dispatched = events_dispatched(obs);
    const double stale = obs.counter("sim.events.stale_dropped");
    const double run_s =
        (span_total_ms("chain.run") + span_total_ms("market.run")) / 1e3;
    m.push_back({"sim.batch.replicas_run",
                 obs.counter("sim.batch.replicas_run"), "count"});
    m.push_back({"sim.batch.idle_frac",
                 1.0 - span_total_ms("sim.replica") / run.stats.batch_lane_ms,
                 "ratio"});
    for (const char* type : kEventTypes) {
      const std::string name = std::string("sim.events.dispatched.") + type;
      m.push_back({name, obs.counter(name), "count"});
    }
    m.push_back({"sim.events.stale_frac",
                 dispatched + stale > 0 ? stale / (dispatched + stale) : 0.0,
                 "ratio"});
    m.push_back({"sim.events_per_s", events_dispatched(run.replay_obs) / run_s,
                 "1/s"});
  }

  if (ran("chain.construct")) {
    const double construct = span_mean_ms("chain.construct");
    const double chain_run = span_mean_ms("chain.run");
    m.push_back({"chain.construct_ms", construct, "ms"});
    m.push_back({"chain.run_ms", chain_run, "ms"});
    m.push_back(
        {"chain.setup_frac", construct / (construct + chain_run), "ratio"});
  }

  if (ran("market.stamp")) {
    m.push_back({"market.stamp_ms", span_mean_ms("market.stamp"), "ms"});
    m.push_back({"market.run_ms", span_mean_ms("market.run"), "ms"});
    m.push_back({"market.us_per_epoch",
                 span_total_ms("market.run") * 1e3 /
                     static_cast<double>(run.stats.market_epochs),
                 "us"});
    m.push_back({"market.br_steps",
                 static_cast<double>(run.stats.market_br_steps) /
                     static_cast<double>(run.stats.market_replicas),
                 "count"});
  }

  if (ran("equilibrium.enumerate")) {
    const double count =
        static_cast<double>(layers["equilibrium.enumerate"].count);
    const double configs = static_cast<double>(run.stats.enumerate_configs);
    m.push_back({"equilibrium.enumerate_ms",
                 span_mean_ms("equilibrium.enumerate"), "ms"});
    m.push_back({"core.configs", configs / count, "count"});
    m.push_back({"core.configs_per_s",
                 configs / (span_total_ms("equilibrium.enumerate") / 1e3),
                 "1/s"});
    m.push_back({"enum.shards_walked", obs.counter("enum.shards_walked"),
                 "count"});
  }

  m.push_back({"trace.overhead_frac",
               run.traced.wall_s / run.untraced.wall_s - 1.0, "ratio"});
  return m;
}

/// The per-layer metrics BENCHMARK.json lists: the ones every workload
/// measures (the full table above is printed for each workload).
const std::vector<std::string>& reported_layer_metrics() {
  static const std::vector<std::string> kNames = {
      "engine.pool.tasks", "engine.pool.task_wait_us",
      "engine.pool.task_run_us", "engine.pool.busy_frac",
      "trace.overhead_frac"};
  return kNames;
}

int run(const Args& args, std::uint64_t process_start_ns) {
#ifdef NDEBUG
  const bool optimized = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  const bool optimized = false;
#endif
  const std::size_t lanes = nproc();
  std::cout << "# provenance workload=" << args.workload
            << " size=" << (args.small ? "small" : "full")
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << " nproc=" << lanes
            << " pool_lanes=" << lanes << " K=" << kOutstanding
            << " compiler=\"" << kCompiler << "\""
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " obs=" << (goc::obs::enabled() ? "on" : "off")
            << " commit=" << args.commit << "\n";
  if (!optimized) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  if (args.trace && !goc::obs::enabled()) {
    std::cerr << "perfbench: the traced run reads the obs registry; unset "
                 "GOC_OBS_OFF\n";
    return 2;
  }

  // Set-up: pool start, input generation, one untimed warm-up request (spec
  // 0 of the default seed, whose hash is recorded). Repeated kSetups times;
  // the first is timed from process start, the last one's client is kept.
  Checker checker(args, load_expected(args.expected));
  std::optional<Client> client;
  std::optional<Workload> workload;
  std::vector<double> setup_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (std::size_t k = 0; k < kSetups; ++k) {
    client.reset();
    const std::uint64_t start = k == 0 ? process_start_ns : goc::obs::now_ns();
    workload.emplace(make_workload(args.workload, args.small, args.seed));
    client.emplace(workload->via_serve, lanes);
    const Workload pinned =
        make_workload(args.workload, args.small, kDefaultSeed);
    Pending pending;
    pending.spec = &pinned.specs[0];
    client->submit(pending, nullptr);
    const Outcome outcome = client->wait(pending, nullptr);
    setup_s.push_back(seconds_since(start));
    ++attempted;
    if (!checker.check(pinned, 0, outcome, true, "warm-up")) ++failed;
  }
  const std::vector<std::size_t> order =
      send_order(workload->specs.size(), args.seed);

  std::optional<TraceRun> trace;
  Stream timed;
  if (!args.trace) {
    timed = run_stream(*client, *workload, order, args.seconds, 0, nullptr);
  } else {
    // Untraced and traced halves send the same requests in the same order;
    // their wall-clock ratio is the tracing overhead.
    trace.emplace();
    trace->untraced =
        run_stream(*client, *workload, order, args.seconds / 2, 0, nullptr);
    trace->stream_obs.before = snapshot();
    trace->traced = run_stream(*client, *workload, order, 0,
                               trace->untraced.outcomes.size(), &trace->tracer);
    trace->stream_obs.after = snapshot();
  }
  client.reset();

  const auto account = [&](const Stream& stream, const std::string& label) {
    attempted += stream.outcomes.size();
    failed += check_stream(checker, *workload, stream, label);
  };
  if (!args.trace) {
    account(timed, "timed");
  } else {
    account(trace->untraced, "untraced");
    account(trace->traced, "traced");
    // Library replay: each distinct request once, on a pool of the same
    // lane count, with spans around every layer; it must reproduce the
    // hashes the daemon (or the direct call) returned.
    goc::engine::ThreadPool pool(goc::engine::ThreadPool::workers_for(lanes));
    trace->replay_obs.before = snapshot();
    for (std::size_t d = 0; d < workload->specs.size(); ++d) {
      const std::uint64_t request = 1000000 + d;
      ReplayContext ctx;
      ctx.pool = &pool;
      ctx.lanes = lanes;
      ctx.tracer = &trace->tracer;
      ctx.parent = trace->tracer.begin("replay", 0, request);
      ctx.request = request;
      ctx.stats = &trace->stats;
      Outcome outcome;
      try {
        outcome.hashes = workload->specs[d].replay(ctx);
      } catch (const std::exception& error) {
        outcome.error = error.what();
      }
      trace->tracer.end(ctx.parent);
      ++attempted;
      if (!checker.check(*workload, d, outcome, false,
                          "replay of spec " + std::to_string(d))) {
        ++failed;
      }
    }
    trace->replay_obs.after = snapshot();
  }
  const bool correct = failed == 0 && checker.problems().empty();
  for (const std::string& problem : checker.problems()) {
    std::cout << "# MISMATCH " << problem << "\n";
  }

  if (args.print_hashes) {
    for (const auto& [spec, hashes] : checker.seen()) {
      for (std::size_t j = 0; j < hashes.size(); ++j) {
        std::cout << args.workload << (args.small ? " small " : " full ")
                  << spec << " " << j << " " << hashes[j] << "\n";
      }
    }
  }

  if (!args.trace) {
    std::vector<double> sorted = timed.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const std::size_t tail_rank = n > kTailBeyond ? n - kTailBeyond - 1 : n - 1;
    const double tail_pct = 100.0 * static_cast<double>(tail_rank + 1) /
                            static_cast<double>(n);
    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s"},
        {"request_p50_ms", median(timed.latency_ms), "ms"},
        {"request_tail_ms", sorted[tail_rank], "ms"},
        {"requests_per_s", static_cast<double>(n) / timed.wall_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    print_table("end-to-end (untraced run)", metrics);
    char note[200];
    std::snprintf(note, sizeof(note),
                  "#   request_tail_ms is p%.2f: %zu of %zu samples beyond\n"
                  "#   failed_frac %.6g (%zu of %zu)\n",
                  tail_pct, n - tail_rank - 1, n,
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  failed, attempted);
    std::cout << note;
    print_json(correct, attempted, failed, metrics);
  } else {
    const std::vector<Metric> metrics = layer_metrics(*workload, *trace, lanes);
    print_table("per-layer (traced run)", metrics);
    std::cout << "# span self time (traced run and library replay)\n";
    for (const auto& layer : trace->tracer.layer_times()) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "#   %-24s n=%-6zu total_ms=%-12.3f self_ms=%.3f\n",
                    layer.name.c_str(), layer.count, layer.total_ms,
                    layer.self_ms);
      std::cout << line;
    }
    if (!args.trace_out.empty()) {
      if (!trace->tracer.write_chrome_json(args.trace_out)) {
        std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
        return 1;
      }
      std::cout << "# chrome trace written to " << args.trace_out << "\n";
    }
    std::vector<Metric> reported;
    for (const std::string& name : reported_layer_metrics()) {
      for (const Metric& metric : metrics) {
        if (metric.name == name) reported.push_back(metric);
      }
    }
    print_json(correct, attempted, failed, reported);
  }
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const std::uint64_t process_start_ns = goc::obs::now_ns();
  // One malloc arena. With glibc's per-thread arenas, the peak RSS of a run
  // depended on which daemon job threads landed in which arena: at a
  // fixed seed it moved by a third from run to run on game-serve, which says
  // nothing about the engine's memory. Request latency did not change.
  mallopt(M_ARENA_MAX, 1);
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args, process_start_ns);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
