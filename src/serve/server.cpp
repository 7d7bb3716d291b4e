#include "serve/server.hpp"

#include <chrono>
#include <exception>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/generators.hpp"
#include "engine/sweep.hpp"
#include "equilibrium/enumerate.hpp"
#include "io/serialize.hpp"
#include "obs/registry.hpp"
#include "market/scenario.hpp"
#include "serve/request.hpp"
#include "sim/batch_cli.hpp"
#include "sim/scenarios.hpp"
#include "sim/trajectory.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace goc::serve {

namespace {

/// Shared flag vocabulary, spliced per command for `reject_unknown`.
std::vector<std::string> with_batch_names(std::vector<std::string> names) {
  const auto& batch = sim::batch_cli_names();
  names.insert(names.end(), batch.begin(), batch.end());
  return names;
}

std::uint64_t parse_job_id(const std::vector<std::string>& args,
                           const char* verb) {
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    throw std::invalid_argument(std::string(verb) + " expects a job id");
  }
  try {
    return std::stoull(args[0]);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(verb) + " expects a job id, got '" +
                                args[0] + "'");
  }
}

/// A scenario size flag: zero would only fail later, inside the job, so it
/// is rejected at submit.
std::size_t size_flag(const Cli& cli, const std::string& name,
                      std::size_t fallback) {
  const std::uint64_t value = cli.get_u64(name, fallback);
  if (value == 0) {
    throw std::invalid_argument("option --" + name + " must be at least 1");
  }
  return value;
}

/// The shared progress vocabulary of `status` and `watch` — both render
/// the same fields from the same `JobStatus` snapshot, so a client parser
/// written against one reads the other.
void write_progress_fields(std::ostream& out, const JobStatus& status) {
  out << " progress=" << status.progress.done << "/" << status.progress.total
      << " ci=" << status.progress.ci_halfwidth
      << " elapsed_ms=" << status.elapsed_ms;
}

/// Adapts a batch's wave-boundary `sim::BatchProgress` reports into the
/// job table's progress slot.
sim::TrajectoryBatchOptions with_progress(sim::TrajectoryBatchOptions options,
                                          const engine::CancelView& cancel,
                                          const JobTable::ProgressFn& report) {
  options.cancel = cancel;
  if (report) {
    options.on_progress = [report](const sim::BatchProgress& progress) {
      JobProgress job_progress;
      job_progress.done = progress.completed;
      job_progress.total = progress.requested;
      job_progress.ci_halfwidth = progress.ci_halfwidth;
      report(job_progress);
    };
  }
  return options;
}

JobOutcome batch_outcome(const sim::TrajectoryBatchResult& result,
                         const std::string& title) {
  JobOutcome outcome;
  outcome.json = io::table_to_json(result.to_table(), title);
  outcome.values_hash = result.values_hash();
  outcome.summary = "replicas=" + std::to_string(result.replicas()) +
                    " stop=" + sim::stop_reason_name(result.stop_reason());
  return outcome;
}

}  // namespace

Server::Server(ServerOptions options)
    : lanes_(engine::ThreadPool::resolve_lanes(options.threads)),
      pool_(engine::ThreadPool::workers_for(lanes_)) {}

// ---------------------------------------------------------------- batch

JobTable::Work Server::make_batch_work(const Cli& cli) {
  reject_unknown(cli, with_batch_names({"scenario", "miners", "chains",
                                        "coins", "days", "epoch-lanes",
                                        "seed"}));
  sim::TrajectoryBatchOptions options;
  options.pool = &pool_;
  options.root_seed = cli.get_u64("seed", options.root_seed);
  sim::apply_batch_cli(cli, options);

  const std::string scenario = cli.get_string("scenario", "chain-reference");
  if (scenario == "chain-reference") {
    sim::ReferenceChainParams params;
    params.miners = size_flag(cli, "miners", params.miners);
    params.chains = size_flag(cli, "chains", params.chains);
    params.days = cli.get_double("days", params.days);
    params.epoch_lanes = sim::epoch_lanes_from_cli(cli, params.epoch_lanes);
    return [options, params](const engine::CancelView& cancel,
                             const JobTable::ProgressFn& progress) {
      const sim::TrajectoryBatchOptions opts =
          with_progress(options, cancel, progress);
      const auto factory = [&](std::uint64_t seed) {
        return sim::make_reference_chain(params, sim::EngineKind::kFlat, seed);
      };
      return batch_outcome(sim::run_chain_batch(factory, opts),
                           "goc-serve batch chain-reference");
    };
  }
  if (scenario == "market-random") {
    const std::size_t miners = size_flag(cli, "miners", 48);
    const std::size_t coins = size_flag(cli, "coins", 3);
    const double days = cli.get_double("days", 30.0);
    const std::uint64_t seed = options.root_seed;
    // market::Scenario is move-only (unique_ptr price processes), and a
    // JobTable::Work must be copyable — rebuild the prototype inside the
    // job from its deterministic parameters instead of capturing it.
    return [options, miners, coins, days, seed](
               const engine::CancelView& cancel,
               const JobTable::ProgressFn& progress) {
      const sim::TrajectoryBatchOptions opts =
          with_progress(options, cancel, progress);
      const market::Scenario proto =
          market::random_market_prototype(miners, coins, days, seed);
      return batch_outcome(sim::run_market_batch(proto, opts),
                           "goc-serve batch market-random");
    };
  }
  if (scenario == "market-fork") {
    market::ForkFlipParams params;
    params.miners = size_flag(cli, "miners", params.miners);
    params.days = cli.get_double("days", params.days);
    params.seed = cli.get_u64("seed", params.seed);
    return [options, params](const engine::CancelView& cancel,
                             const JobTable::ProgressFn& progress) {
      const sim::TrajectoryBatchOptions opts =
          with_progress(options, cancel, progress);
      const market::Scenario proto = market::fork_flip_prototype(params);
      return batch_outcome(sim::run_market_batch(proto, opts),
                           "goc-serve batch market-fork");
    };
  }
  throw std::invalid_argument(
      "unknown batch scenario '" + scenario +
      "' (chain-reference, market-random, market-fork)");
}

// ---------------------------------------------------------------- sweep

JobTable::Work Server::make_sweep_work(const Cli& cli) {
  reject_unknown(cli, {"miners", "coins", "power-shapes", "reward-shapes",
                       "schedulers", "trials", "seed", "max-steps"});
  engine::SweepSpec spec;
  spec.miner_counts = parse_size_list(cli.get_string("miners", ""), "--miners");
  spec.coin_counts = parse_size_list(cli.get_string("coins", ""), "--coins");
  const auto split_names = [](const std::string& text) {
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= text.size() && !text.empty()) {
      const std::size_t comma = text.find(',', start);
      const std::string item =
          text.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      if (!item.empty()) items.push_back(item);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return items;
  };
  for (const std::string& name :
       split_names(cli.get_string("power-shapes", ""))) {
    spec.power_shapes.push_back(power_shape_from_name(name));
  }
  for (const std::string& name :
       split_names(cli.get_string("reward-shapes", ""))) {
    spec.reward_shapes.push_back(reward_shape_from_name(name));
  }
  for (const std::string& name :
       split_names(cli.get_string("schedulers", ""))) {
    spec.scheduler_kinds.push_back(scheduler_kind_from_name(name));
  }
  spec.trials = cli.get_u64("trials", spec.trials);
  spec.root_seed = cli.get_u64("seed", spec.root_seed);
  spec.learning.max_steps =
      cli.get_u64("max-steps", spec.learning.max_steps);

  return [this, spec](const engine::CancelView& cancel,
                      const JobTable::ProgressFn&) {
    engine::SweepRunner::Options options;
    options.pool = &pool_;
    options.cancel = cancel;
    const engine::SweepResult result = engine::SweepRunner(options).run(spec);
    JobOutcome outcome;
    outcome.json = io::table_to_json(result.to_table(), "goc-serve sweep");
    std::uint64_t h = fnv::kOffset;
    std::size_t converged = 0;
    for (const auto& record : result.records()) {
      fnv::mix_bytes(h, static_cast<std::uint64_t>(record.task.grid_index));
      fnv::mix_bytes(h, record.steps);
      fnv::mix_bytes(h, record.move_hash);
      fnv::mix_bytes(h, record.converged ? std::uint64_t{1} : std::uint64_t{0});
      fnv::mix_bytes(h, record.welfare_efficiency);
      fnv::mix_bytes(h, record.rpu_fairness);
      fnv::mix_bytes(h, record.max_domination_share);
      fnv::mix_bytes(h, static_cast<std::uint64_t>(record.majority_controlled));
      fnv::mix_bytes(h, static_cast<std::uint64_t>(record.occupied_coins));
      converged += record.converged ? 1 : 0;
    }
    outcome.values_hash = h;
    outcome.summary = "tasks=" + std::to_string(result.records().size()) +
                      " converged=" + std::to_string(converged);
    return outcome;
  };
}

// ------------------------------------------------------------ enumerate

JobTable::Work Server::make_enumerate_work(const Cli& cli) {
  reject_unknown(cli, {"miners", "coins", "power-shape", "reward-shape",
                       "seed", "max-configs", "symmetry"});
  GameSpec spec;
  spec.num_miners = cli.get_u64("miners", spec.num_miners);
  spec.num_coins = cli.get_u64("coins", spec.num_coins);
  spec.power_shape =
      power_shape_from_name(cli.get_string("power-shape", "uniform"));
  spec.reward_shape =
      reward_shape_from_name(cli.get_string("reward-shape", "uniform"));
  const std::uint64_t seed = cli.get_u64("seed", 2021);
  EnumerationOptions options;
  options.pool = &pool_;
  options.max_configs = cli.get_u64("max-configs", options.max_configs);
  options.symmetry = cli.get_bool("symmetry", options.symmetry);

  return [spec, seed, options](const engine::CancelView& cancel,
                               const JobTable::ProgressFn&) {
    EnumerationOptions opts = options;
    opts.cancel = cancel;
    Rng rng(seed);
    const Game game = random_game(spec, rng);
    const CanonicalEquilibria found =
        enumerate_canonical_equilibria(game, opts);
    Table table({"metric", "value"});
    table.row() << "canonical_representatives"
                << static_cast<std::uint64_t>(found.representatives.size());
    table.row() << "equilibria_total" << found.total();
    JobOutcome outcome;
    outcome.json = io::table_to_json(table, "goc-serve enumerate");
    std::uint64_t h = fnv::kOffset;
    for (std::size_t i = 0; i < found.representatives.size(); ++i) {
      fnv::mix_bytes(
          h, static_cast<std::uint64_t>(found.representatives[i].hash()));
      fnv::mix_bytes(h, found.orbit_sizes[i]);
    }
    outcome.values_hash = h;
    outcome.summary =
        "canonical=" + std::to_string(found.representatives.size()) +
        " total=" + std::to_string(found.total());
    return outcome;
  };
}

// ------------------------------------------------------------- protocol

void Server::cmd_submit(const std::string& kind,
                        const std::vector<std::string>& args,
                        std::ostream& out) {
  const Cli cli = cli_from_tokens("goc-serve:" + kind, args);
  JobTable::Work work;
  if (kind == "batch") {
    work = make_batch_work(cli);
  } else if (kind == "sweep") {
    work = make_sweep_work(cli);
  } else if (kind == "enumerate") {
    work = make_enumerate_work(cli);
  } else {
    throw std::invalid_argument("unknown job kind '" + kind +
                                "' (batch, sweep, enumerate)");
  }
  const std::uint64_t id = jobs_.submit(kind, std::move(work));
  out << "ok id=" << id << " kind=" << kind << "\n";
}

void Server::cmd_status(const std::vector<std::string>& args,
                        std::ostream& out) {
  const std::uint64_t id = parse_job_id(args, "status");
  const auto status = jobs_.status(id);
  if (!status) {
    out << "err unknown job " << id << "\n";
    return;
  }
  out << "ok id=" << status->id << " kind=" << status->kind
      << " state=" << job_state_name(status->state);
  write_progress_fields(out, *status);
  if (!status->detail.empty()) out << " detail=" << status->detail;
  out << "\n";
}

void Server::cmd_watch(const std::vector<std::string>& args,
                       std::ostream& out) {
  const std::uint64_t id = parse_job_id(args, "watch");
  const Cli cli = cli_from_tokens(
      "goc-serve:watch",
      std::vector<std::string>(args.begin() + 1, args.end()));
  reject_unknown(cli, {"interval-ms"});
  const std::uint64_t interval_ms = cli.get_u64("interval-ms", 50);

  const auto write_row = [&out](const JobStatus& status) {
    out << "progress id=" << status.id
        << " state=" << job_state_name(status.state);
    write_progress_fields(out, status);
    // Linear-extrapolation ETA from the completed fraction; only once a
    // wave has landed (done > 0), so the row never divides by zero.
    if (status.progress.done > 0 &&
        status.progress.total >= status.progress.done) {
      out << " eta_ms="
          << status.elapsed_ms *
                 (status.progress.total - status.progress.done) /
                 status.progress.done;
    }
    out << "\n";
    out.flush();  // rows must stream, not buffer until the ok line
  };

  auto status = jobs_.status(id);
  if (!status) {
    out << "err unknown job " << id << "\n";
    return;
  }
  // One row immediately, one per observed progress change, one terminal —
  // a watcher always sees at least two rows with monotone `done`.
  std::uint64_t rows = 0;
  std::uint64_t last_done = status->progress.done;
  write_row(*status);
  ++rows;
  while (!job_state_terminal(status->state)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const auto next = jobs_.status(id);
    if (!next) break;  // fetched out from under the watch
    status = next;
    if (!job_state_terminal(status->state) &&
        status->progress.done != last_done) {
      last_done = status->progress.done;
      write_row(*status);
      ++rows;
    }
  }
  write_row(*status);
  ++rows;
  out << "ok id=" << id << " rows=" << rows
      << " state=" << job_state_name(status->state) << "\n";
}

void Server::cmd_stats(const std::vector<std::string>& args,
                       std::ostream& out) {
  const Cli cli = cli_from_tokens("goc-serve:stats", args);
  reject_unknown(cli, {"json"});
  const obs::Snapshot snapshot = obs::Registry::instance().snapshot();
  if (cli.get_bool("json", false)) {
    out << snapshot.to_json(/*compact=*/true) << "\n";
  } else {
    out << snapshot.to_prometheus();
  }
  out << "ok stats counters=" << snapshot.counters.size()
      << " gauges=" << snapshot.gauges.size()
      << " histograms=" << snapshot.histograms.size() << "\n";
}

void Server::cmd_result(const std::vector<std::string>& args,
                        std::ostream& out) {
  const std::uint64_t id = parse_job_id(args, "result");
  const Cli cli = cli_from_tokens(
      "goc-serve:result",
      std::vector<std::string>(args.begin() + 1, args.end()));
  reject_unknown(cli, {"wait"});
  const bool wait = cli.get_bool("wait", false);
  const auto fetched = jobs_.fetch(id, wait);
  if (!fetched) {
    out << "err unknown job " << id << "\n";
    return;
  }
  if (!job_state_terminal(fetched->status.state)) {
    out << "err job " << id
        << " state=" << job_state_name(fetched->status.state)
        << " (pass --wait to block)\n";
    return;
  }
  if (fetched->status.state != JobState::kDone) {
    out << "err job " << id
        << " state=" << job_state_name(fetched->status.state);
    if (!fetched->status.detail.empty()) {
      out << " detail=" << fetched->status.detail;
    }
    out << "\n";
    return;
  }
  // Payload first (the io::table_to_json document, newline-terminated),
  // then the ok line — a client reads until the ok/err terminator.
  out << fetched->outcome.json;
  if (fetched->outcome.json.empty() || fetched->outcome.json.back() != '\n') {
    out << "\n";
  }
  out << "ok id=" << fetched->status.id << " kind=" << fetched->status.kind
      << " state=done values_hash=" << fetched->outcome.values_hash;
  if (!fetched->outcome.summary.empty()) out << " " << fetched->outcome.summary;
  out << "\n";
}

void Server::cmd_cancel(const std::vector<std::string>& args,
                        std::ostream& out) {
  const std::uint64_t id = parse_job_id(args, "cancel");
  if (jobs_.cancel(id)) {
    out << "ok id=" << id << " state=cancelled\n";
  } else if (jobs_.status(id)) {
    out << "err job " << id << " already "
        << job_state_name(jobs_.status(id)->state) << "\n";
  } else {
    out << "err unknown job " << id << "\n";
  }
}

void Server::cmd_jobs(std::ostream& out) {
  const auto statuses = jobs_.list();
  for (const auto& status : statuses) {
    out << "job id=" << status.id << " kind=" << status.kind
        << " state=" << job_state_name(status.state) << "\n";
  }
  out << "ok jobs=" << statuses.size() << "\n";
}

void Server::cmd_help(std::ostream& out) {
  out << "# submit batch|sweep|enumerate [--flags...]  (bare kind works too)\n"
      << "# status <id> | result <id> [--wait] | cancel <id> | jobs\n"
      << "# watch <id> [--interval-ms=N]  streams progress rows until done\n"
      << "# stats [--json]  process metrics (Prometheus text or one JSON "
         "line)\n"
      << "# batch: --scenario=chain-reference|market-random|market-fork\n"
      << "#        --miners --chains --coins --days --epoch-lanes\n"
      << "#        --seed --replicas --stop-* --checkpoint[-interval]\n"
      << "# sweep: --miners=a,b --coins=a,b --power-shapes=... --trials\n"
      << "#        --seed --max-steps\n"
      << "# enumerate: --miners --coins --power-shape --reward-shape --seed\n"
      << "#            --max-configs --symmetry\n"
      << "ok help\n";
}

bool Server::handle_line(const std::string& line, std::ostream& out) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') return true;
  const std::string& verb = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  try {
    if (verb == "quit") {
      out << "ok bye\n";
      return false;
    }
    if (verb == "ping") {
      out << "ok pong\n";
    } else if (verb == "help") {
      cmd_help(out);
    } else if (verb == "submit") {
      if (args.empty()) {
        throw std::invalid_argument(
            "submit expects a job kind (batch, sweep, enumerate)");
      }
      cmd_submit(args[0],
                 std::vector<std::string>(args.begin() + 1, args.end()), out);
    } else if (verb == "batch" || verb == "sweep" || verb == "enumerate") {
      cmd_submit(verb, args, out);
    } else if (verb == "status") {
      cmd_status(args, out);
    } else if (verb == "result") {
      cmd_result(args, out);
    } else if (verb == "cancel") {
      cmd_cancel(args, out);
    } else if (verb == "jobs") {
      cmd_jobs(out);
    } else if (verb == "watch") {
      cmd_watch(args, out);
    } else if (verb == "stats") {
      cmd_stats(args, out);
    } else {
      out << "err unknown command '" << verb << "' (try help)\n";
    }
  } catch (const std::exception& error) {
    out << "err " << error.what() << "\n";
  }
  return true;
}

void Server::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    const bool keep_going = handle_line(line, out);
    out.flush();
    if (!keep_going) return;
  }
}

}  // namespace goc::serve
