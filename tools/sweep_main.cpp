// sweep: run a grid of synchronization scenarios in parallel and print
// aggregate error/ADEV tables.
//
//   sweep [--servers loc,int,ext] [--envs lab,machine] [--polls 16,64]
//         [--schedules steady,outage,switch,stress] [--duration-hours 24]
//         [--estimators robust,swntp,naive] [--fleet "fleet,fleet(n=16)"]
//         [--seed 42] [--threads 0]
//         [--warmup-s 3600] [--no-wire] [--exact-reduction]
//         [--shard I/N] [--checkpoint FILE] [--dump-results FILE]
//         [--trace-in FILE]... [--trace-out FILE]
//
// Cells reduce with the O(1)-memory streaming sink by default (P2 percentile
// sketch; counts, means, stddevs and ADEV are bit-identical to the exact
// reduction). --exact-reduction restores the buffered sink with exact
// percentiles for runs short enough to afford it.
//
// The default grid is the ISSUE's 3 servers × 2 environments × 2 poll
// periods = 12 scenarios over one simulated day. Named schedule variants
// layer the paper's §6 robustness events on every grid cell:
//   steady  — no events;
//   outage  — a 30-minute connectivity gap at 40% of the trace;
//   switch  — the §6.1 campaign: Server → Loc at 1/3, → Ext at 2/3;
//   stress  — outage + mid-trace switch + a 150 ms server fault window.
//
// --estimators fans every scenario's one exchange stream into the named
// estimator specs (see --list-estimators), grading them head-to-head on
// identical seeds and packets. A spec is a registered family name with
// optional key=value tunables — "robust", "robust(use_local_rate=0)",
// "offline(split=shifts)" — so parameter-ablated variants of one algorithm
// are first-class lanes of the axis; commas inside parentheses do not split
// the list. The `offline` family is the §5.3 two-sided smoother on the
// REPLAY lane: it is scored post-hoc over the recorded trace, so each of
// its estimates uses packets from the future. Its rows measure what
// post-processing can achieve on the identical packets — not what a
// deployable online clock achieves — and it reports steps = 0 and sw = 0
// by construction (nothing to step, no online server-change reaction).
//
// --fleet adds a fleet axis to the grid: each value simulates N clients
// polling the shared server pool through correlated path conditions —
// optionally with shared congestion windows hitting every client and a
// gPTP-style bridge hierarchy (client 0 serves clients 1..N-1 after its
// warm-up). `fleet` (all defaults) is the classic single-client cell and
// keeps its pre-fleet name and seed; see --list-topologies for the
// tunables. Fleet cells pool every client's evaluated samples into the
// summary columns and add population metrics (dispersion, worst-client
// p99, pairwise spread) to the report and the result dumps.
//
// Fleet-scale runs split the grid across processes: --shard I/N runs the
// 1-based I-th round-robin slice of the scenarios (replay lanes stay with
// their owning scenario's recording), --dump-results writes a versioned
// machine-readable result dump, and tools/sweep-merge reassembles N dumps
// into the exact single-process report. --checkpoint makes an interrupted
// shard resumable: committed scenarios are skipped on rerun and the final
// output is bit-identical to an uninterrupted run. See README
// "Fleet-scale sweeps".
//
// --trace-in appends imported trace files (tools/trace-import,
// tools/ntp-collect or a previous --trace-out) as extra grid cells named
// trace:<path>. Imported cells replay through the identical
// ReplaySession/reducer pipeline as the simulated cells and land in the
// same comparison tables, so internet data is graded side by side with the
// synthetic grid; they require replay estimator specs (e.g. offline) and
// are skipped by the by-server/by-environment aggregates. --trace-out
// exports a single-scenario run's recorded exchange stream as a
// reference-bearing trace file replayable via --trace-in. See README
// "Real-trace ingestion".
//
// Exit status: 0 on success, 1 when any grid cell FAILED (or the --csv
// dump, --dump-results dump or --checkpoint stream aborted mid-run), 2 on
// usage errors — including a malformed --shard, a checkpoint that does
// not belong to this invocation, and a --trace-in file that fails
// validation (diagnosed up front, before any scenario runs).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "harness/estimator_spec.hpp"
#include "sweep/sweep.hpp"
#include "trace/trace_io.hpp"

using namespace tscclock;

namespace {

double parse_double(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  // Non-finite values would sail through the downstream range checks
  // (NaN fails every comparison; inf makes the trace unbounded).
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "invalid number '%s' for %s\n", text.c_str(),
                 flag.c_str());
    std::exit(2);
  }
  return v;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  // strtoull silently wraps negative input to a huge value.
  if (end == text.c_str() || *end != '\0' ||
      text.find('-') != std::string::npos) {
    std::fprintf(stderr, "invalid integer '%s' for %s\n", text.c_str(),
                 flag.c_str());
    std::exit(2);
  }
  return v;
}

/// A plain comma list under the spec grammar's list rule: an empty item is
/// a usage error, never silently dropped.
std::vector<std::string> split_csv(const std::string& flag,
                                   const std::string& text) {
  try {
    const auto items = split_list(text, flag + " list '" + text + "'");
    return {items.begin(), items.end()};
  } catch (const SpecError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

sim::ServerKind parse_server(const std::string& name) {
  if (name == "loc") return sim::ServerKind::kLoc;
  if (name == "int") return sim::ServerKind::kInt;
  if (name == "ext") return sim::ServerKind::kExt;
  std::fprintf(stderr, "unknown server '%s' (expected loc|int|ext)\n",
               name.c_str());
  std::exit(2);
}

sim::Environment parse_environment(const std::string& name) {
  if (name == "lab") return sim::Environment::kLaboratory;
  if (name == "machine") return sim::Environment::kMachineRoom;
  std::fprintf(stderr, "unknown environment '%s' (expected lab|machine)\n",
               name.c_str());
  std::exit(2);
}

/// Run a --estimators/--fleet list parse. A malformed list — unbalanced
/// parens, unknown family, unknown/duplicated keys, ill-typed values, empty
/// items, repeated lanes — is a usage error (exit 2) with the spec grammar's
/// precise message, never a silent drop.
template <typename Parse>
auto parse_specs_or_die(Parse parse, const char* listing) {
  try {
    return parse();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s (see %s)\n", e.what(), listing);
    std::exit(2);
  }
}

[[noreturn]] void list_estimators() {
  const auto& registry = harness::estimator_registry();
  TablePrinter table({"estimator", "lane", "description"});
  for (const auto* family : registry.families()) {
    table.add_row({family->name, family->replay ? "replay" : "online",
                   family->description});
  }
  table.print(std::cout);

  print_banner(std::cout,
               "Tunable keys (spec syntax: family(key=value,...))");
  std::vector<TunableFamily> tunables;
  for (const auto* family : registry.families())
    tunables.push_back({family->name, family->tunables});
  print_tunables(std::cout, "estimator", tunables);
  std::cout << "\nexample: --estimators "
               "\"robust,robust(use_local_rate=0),offline(split=shifts)\"\n";
  std::exit(0);
}

[[noreturn]] void list_topologies() {
  const TunableFamily fleet[] = {{"fleet", sweep::fleet_tunables()}};
  print_tunables(std::cout, "fleet", fleet);
  std::cout <<
      "\nspec syntax: fleet[(key=value,...)], the --estimators grammar. "
      "'fleet' is the\nclassic single-client cell and keeps its pre-fleet "
      "name and seed; non-single\nvalues suffix the scenario name (and so "
      "its seed) with /fleet(...). Replay\nestimators (offline) cannot score "
      "multi-client cells: a fleet trace mixes\nclients.\n"
      "example: --fleet \"fleet,fleet(n=16),fleet(n=8,hierarchy=1)\"\n";
  std::exit(0);
}

/// Build one of the named schedule variants, with event times placed
/// relative to the trace duration.
sweep::ScheduleVariant make_schedule(const std::string& name,
                                     Seconds duration) {
  sweep::ScheduleVariant variant;
  variant.name = name;
  if (name == "steady") return variant;
  if (name == "outage") {
    variant.events.add_outage(0.4 * duration,
                              0.4 * duration + 30 * duration::kMinute);
    return variant;
  }
  if (name == "switch") {
    variant.server_switches = {
        {duration / 3, sim::ServerKind::kLoc},
        {2 * duration / 3, sim::ServerKind::kExt},
    };
    return variant;
  }
  if (name == "stress") {
    variant.events.add_outage(0.25 * duration,
                              0.25 * duration + 20 * duration::kMinute);
    variant.events.add_server_fault(0.55 * duration,
                                    0.55 * duration + 10 * duration::kMinute,
                                    150 * duration::kMillisecond);
    variant.server_switches = {{duration / 2, sim::ServerKind::kLoc}};
    return variant;
  }
  std::fprintf(stderr,
               "unknown schedule '%s' (expected steady|outage|switch|stress)\n",
               name.c_str());
  std::exit(2);
}

[[noreturn]] void usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: sweep [options]\n"
      "  --servers LIST     comma list of loc,int,ext      (default all)\n"
      "  --envs LIST        comma list of lab,machine      (default both)\n"
      "  --polls LIST       poll periods in seconds        (default 16,64)\n"
      "  --schedules LIST   steady,outage,switch,stress    (default steady)\n"
      "  --estimators LIST  estimator specs to grade head-to-head on each\n"
      "                     scenario's one exchange stream (default robust).\n"
      "                     A spec is family[(key=value,...)] - tunables\n"
      "                     with defaults per family, see --list-estimators.\n"
      "                     e.g. robust,robust(use_local_rate=0),offline\n"
      "                     Ablated variants share each scenario's seed and\n"
      "                     packets with every other lane by construction.\n"
      "                     'offline' is the s5.3 smoother replayed\n"
      "                     NON-CAUSALLY over the recorded trace: it sees\n"
      "                     future packets, so its rows bound\n"
      "                     post-processing, not online performance;\n"
      "                     offline(split=shifts) cuts the trace at detected\n"
      "                     level shifts before smoothing each segment\n"
      "  --fleet LIST       fleet-axis specs fleet[(key=value,...)] with\n"
      "                     keys n, shared_congestion, hierarchy,\n"
      "                     bridge_warmup - see --list-topologies. Each\n"
      "                     non-single value simulates its n clients per\n"
      "                     grid cell (correlated paths, optional bridge\n"
      "                     hierarchy), pools their samples into the\n"
      "                     summary columns and adds fleet dispersion /\n"
      "                     worst-client p99 / pairwise spread metrics.\n"
      "                     'fleet' alone is the classic single-client\n"
      "                     cell (default). Replay estimators cannot score\n"
      "                     multi-client cells.\n"
      "  --duration-hours H simulated hours per scenario   (default 24)\n"
      "  --seed N           master seed                    (default 42)\n"
      "  --threads N        worker threads, 0 = all cores  (default 0);\n"
      "                     fleet cells spread their clients, and trace\n"
      "                     cells their file parse and smoothing windows,\n"
      "                     over the same workers (results identical at\n"
      "                     any N)\n"
      "  --warmup-s S       discard first S seconds        (default 3600)\n"
      "  --no-wire          skip the NTP wire-format round trip\n"
      "  --check-wire       assert, for every produced stamp, that the\n"
      "                     algebraic wire quantization equals a real packet\n"
      "                     encode/decode round trip (slow; results are\n"
      "                     bit-identical with or without the flag, so it\n"
      "                     composes with --checkpoint/--shard artifacts)\n"
      "  --exact-reduction  buffer each cell's evaluated series for exact\n"
      "                     percentiles (default: O(1)-memory streaming\n"
      "                     reduction with a P2 percentile sketch;\n"
      "                     counts/means/stddevs/ADEV identical either way)\n"
      "  --csv PATH         dump every cell's per-exchange trace to a CSV\n"
      "                     file (grid order; lost/warm-up rows flagged)\n"
      "  --shard I/N        run only the I-th of N round-robin scenario\n"
      "                     slices (1-based, 1 <= I <= N); pair with\n"
      "                     --dump-results and merge the N dumps with\n"
      "                     sweep-merge to recover the exact single-process\n"
      "                     report\n"
      "  --dump-results F   write this run's results to F as a versioned\n"
      "                     machine-readable shard dump for sweep-merge\n"
      "  --checkpoint F     append each completed scenario to F; rerunning\n"
      "                     the identical command resumes, skipping the\n"
      "                     committed prefix, with bit-identical output\n"
      "  --trace-in PATH    append an imported trace file (trace-import,\n"
      "                     ntp-collect or a previous --trace-out) as an\n"
      "                     extra grid cell named trace:PATH, replayed\n"
      "                     through the identical pipeline into the same\n"
      "                     comparison tables; repeatable. Requires replay\n"
      "                     estimator specs (e.g. --estimators offline);\n"
      "                     malformed files are refused up front (exit 2)\n"
      "                     with the validator's message. Relative-only\n"
      "                     traces (no ground truth) report n/a absolute\n"
      "                     error columns and populated tracking/ADEV\n"
      "                     columns, suffixed (rel)\n"
      "  --trace-out PATH   export the run's recorded exchange stream as a\n"
      "                     reference-bearing trace file replayable via\n"
      "                     --trace-in (single-scenario single-client runs\n"
      "                     only - a trace holds one client's stream)\n"
      "  --list-estimators  list the available estimators and exit\n"
      "  --list-topologies  list the fleet-axis tunables and exit\n"
      "  --help             this text\n"
      "exit status: 0 ok; 1 any FAILED cell or aborted --csv/--dump-results/\n"
      "--checkpoint artifact; 2 usage (incl. malformed --trace-in files)\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  sweep::GridSpec grid;
  sweep::SweepOptions options;
  // The CLI defaults to the streaming reduction (month-scale sweeps must not
  // buffer every exchange); the library default stays exact so programmatic
  // consumers keep exact percentiles unless they opt out.
  options.streaming_reduction = true;
  std::vector<std::string> schedule_names = {"steady"};
  std::vector<harness::EstimatorSpec> estimator_specs = {
      harness::EstimatorSpec{"robust", {}}};
  double duration_hours = 24.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--list-estimators") list_estimators();
    else if (arg == "--list-topologies") list_topologies();
    else if (arg == "--servers") {
      grid.servers.clear();
      for (const auto& s : split_csv(arg, value()))
        grid.servers.push_back(parse_server(s));
    } else if (arg == "--envs") {
      grid.environments.clear();
      for (const auto& e : split_csv(arg, value()))
        grid.environments.push_back(parse_environment(e));
    } else if (arg == "--polls") {
      grid.poll_periods.clear();
      for (const auto& p : split_csv(arg, value()))
        grid.poll_periods.push_back(parse_double("--polls", p));
    } else if (arg == "--schedules") {
      schedule_names = split_csv(arg, value());
    } else if (arg == "--estimators") {
      const std::string text = value();
      estimator_specs = parse_specs_or_die(
          [&] { return harness::estimator_registry().parse_list(text); },
          "--list-estimators");
    } else if (arg == "--fleet") {
      const std::string text = value();
      grid.fleets = parse_specs_or_die(
          [&] { return sweep::parse_fleet_specs(text); }, "--list-topologies");
    } else if (arg == "--exact-reduction") {
      options.streaming_reduction = false;
    } else if (arg == "--duration-hours") {
      duration_hours = parse_double("--duration-hours", value());
    } else if (arg == "--seed") {
      grid.master_seed = parse_u64("--seed", value());
    } else if (arg == "--threads") {
      const std::uint64_t threads = parse_u64("--threads", value());
      if (threads > 4096) {
        std::fprintf(stderr, "--threads must be in [0, 4096] (0 = all cores)\n");
        return 2;
      }
      options.threads = static_cast<std::size_t>(threads);
    } else if (arg == "--warmup-s") {
      options.discard_warmup = parse_double("--warmup-s", value());
    } else if (arg == "--no-wire") {
      grid.use_wire_format = false;
    } else if (arg == "--check-wire") {
      grid.check_wire = true;
    } else if (arg == "--csv") {
      options.csv_path = value();
      if (options.csv_path.empty()) {
        std::fprintf(stderr, "--csv requires a non-empty path\n");
        return 2;
      }
    } else if (arg == "--shard") {
      try {
        options.shard = sweep::parse_shard(value());
      } catch (const sweep::SweepUsageError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg == "--checkpoint") {
      options.checkpoint_path = value();
      if (options.checkpoint_path.empty()) {
        std::fprintf(stderr, "--checkpoint requires a non-empty path\n");
        return 2;
      }
    } else if (arg == "--dump-results") {
      options.dump_path = value();
      if (options.dump_path.empty()) {
        std::fprintf(stderr, "--dump-results requires a non-empty path\n");
        return 2;
      }
    } else if (arg == "--trace-in") {
      const std::string path = value();
      if (path.empty()) {
        std::fprintf(stderr, "--trace-in requires a non-empty path\n");
        return 2;
      }
      // A duplicate path would collapse two cells onto one scenario name
      // (and expand_grid asserts on the collision); refuse it here with a
      // usage error instead.
      if (std::find(grid.trace_inputs.begin(), grid.trace_inputs.end(),
                    path) != grid.trace_inputs.end()) {
        std::fprintf(stderr, "duplicate --trace-in path '%s'\n", path.c_str());
        return 2;
      }
      grid.trace_inputs.push_back(path);
    } else if (arg == "--trace-out") {
      options.trace_out = value();
      if (options.trace_out.empty()) {
        std::fprintf(stderr, "--trace-out requires a non-empty path\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(2);
    }
  }

  if (grid.servers.empty() || grid.environments.empty() ||
      grid.poll_periods.empty() || schedule_names.empty() ||
      estimator_specs.empty()) {
    std::fprintf(stderr,
                 "--servers/--envs/--polls/--schedules/--estimators must not "
                 "be empty\n");
    return 2;
  }
  // Duplicate axis values would collapse two grid cells onto one scenario
  // name and therefore one RNG seed; reject them up front.
  const auto has_duplicates = [](auto values) {
    std::sort(values.begin(), values.end());
    return std::adjacent_find(values.begin(), values.end()) != values.end();
  };
  // Poll periods collide on their *formatted* form (the scenario-name
  // identity uses %g), so near-equal values must be rejected too. Repeated
  // estimator lanes are refused by the spec list parse.
  std::vector<std::string> poll_names;
  for (const auto poll : grid.poll_periods)
    poll_names.push_back(strfmt("%g", poll));
  if (has_duplicates(grid.servers) || has_duplicates(grid.environments) ||
      has_duplicates(poll_names) || has_duplicates(schedule_names)) {
    std::fprintf(stderr,
                 "--servers/--envs/--polls/--schedules entries must be "
                 "unique\n");
    return 2;
  }
  // Replay estimators score a recorded single-client trace; a multi-client
  // fleet cell has no such trace (it would mix clients, which ReplaySession
  // refuses). Catch the combination before any work runs instead of failing
  // every fleet cell.
  const bool any_multi_fleet =
      std::any_of(grid.fleets.begin(), grid.fleets.end(),
                  [](const sweep::FleetSpec& f) { return !f.single(); });
  if (any_multi_fleet) {
    for (const auto& spec : estimator_specs) {
      if (harness::estimator_registry().is_replay(spec)) {
        std::fprintf(stderr,
                     "estimator '%s' replays a recorded single-client trace "
                     "and cannot score multi-client fleet cells - drop the "
                     "fleet(...) value or the replay spec\n",
                     spec.label().c_str());
        return 2;
      }
    }
  }
  // Online estimators run inside the drive loop and cannot score an
  // imported trace cell — --trace-in files carry a finished exchange stream
  // that only the replay lane (e.g. offline) can grade. Catch the
  // combination before any work runs instead of failing every trace cell.
  if (!grid.trace_inputs.empty()) {
    for (const auto& spec : estimator_specs) {
      if (!harness::estimator_registry().is_replay(spec)) {
        std::fprintf(stderr,
                     "estimator '%s' runs online and cannot score imported "
                     "--trace-in cells - score traces with replay specs "
                     "(e.g. --estimators offline)\n",
                     spec.label().c_str());
        return 2;
      }
    }
    // Validate every trace file up front: a malformed file is a usage
    // error diagnosed with the reader's precise message, not a FAILED cell
    // discovered after the simulated grid already ran. The parse runs on
    // as many workers as the sweep; its message does not depend on them.
    ThreadPool validation_pool(options.threads);
    for (const auto& path : grid.trace_inputs) {
      try {
        trace::read_trace(path, &validation_pool);
      } catch (const trace::TraceIoError& e) {
        std::fprintf(stderr, "--trace-in %s: %s\n", path.c_str(), e.what());
        return 2;
      }
    }
  }
  if (duration_hours <= 0.0) {
    std::fprintf(stderr, "--duration-hours must be positive\n");
    return 2;
  }
  grid.duration = duration_hours * duration::kHour;
  if (options.discard_warmup < 0.0) {
    std::fprintf(stderr, "--warmup-s must be non-negative\n");
    return 2;
  }
  if (options.discard_warmup >= grid.duration) {
    std::fprintf(stderr,
                 "--warmup-s (%g) must be below the scenario duration (%g s)\n",
                 options.discard_warmup, grid.duration);
    return 2;
  }
  for (const auto poll : grid.poll_periods) {
    if (poll < sweep::kMinPollPeriod) {
      std::fprintf(stderr,
                   "--polls entries must be >= %g s (the simulated paths "
                   "have ms-scale heavy-tailed delays)\n",
                   sweep::kMinPollPeriod);
      return 2;
    }
  }
  grid.schedules.clear();
  for (const auto& name : schedule_names)
    grid.schedules.push_back(make_schedule(name, grid.duration));
  grid.estimators = estimator_specs;

  sweep::ScenarioSweep engine(grid);
  // The hours figure is recomputed from the stored duration (not the parsed
  // flag) so sweep-merge — which only sees the dump header's duration —
  // reprints a byte-identical banner for the unsharded shape.
  if (options.shard.whole()) {
    print_banner(std::cout,
                 strfmt("Scenario sweep: %zu scenarios x %zu estimator(s), "
                        "%.1f simulated hours each, master seed %llu",
                        engine.scenarios().size(), grid.estimators.size(),
                        grid.duration / duration::kHour,
                        static_cast<unsigned long long>(grid.master_seed)));
  } else {
    const std::size_t owned =
        sweep::shard_scenarios(engine.scenarios().size(), options.shard)
            .size();
    print_banner(
        std::cout,
        strfmt("Scenario sweep shard %s: %zu of %zu scenarios x %zu "
               "estimator(s), %.1f simulated hours each, master seed %llu",
               options.shard.label().c_str(), owned,
               engine.scenarios().size(), grid.estimators.size(),
               grid.duration / duration::kHour,
               static_cast<unsigned long long>(grid.master_seed)));
  }

  std::vector<sweep::ScenarioResult> results;
  try {
    results = engine.run(options);
  } catch (const sweep::SweepUsageError& e) {
    // Incompatible checkpoint (wrong grid/options/shard, or a trace CSV
    // that no longer matches the committed watermark): refused before any
    // scenario ran.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Per-scenario failures are contained in their grid cell and mid-run
    // artifact failures are reported via the engine's error accessors; only
    // setup errors (e.g. an unwritable --csv path, caught before any work
    // runs) reach here.
    std::fprintf(stderr, "sweep failed: %s\n", e.what());
    return 2;
  }
  print_sweep_report(std::cout, results);
  bool artifact_failed = false;
  if (!options.csv_path.empty()) {
    if (engine.csv_error().empty()) {
      std::cout << "\nper-exchange trace dump: " << options.csv_path << "\n";
    } else {
      std::fprintf(stderr, "trace dump to %s failed (file incomplete): %s\n",
                   options.csv_path.c_str(), engine.csv_error().c_str());
      artifact_failed = true;
    }
  }
  if (!options.checkpoint_path.empty() && !engine.checkpoint_error().empty()) {
    std::fprintf(stderr,
                 "checkpoint %s stopped mid-run (committed prefix intact): "
                 "%s\n",
                 options.checkpoint_path.c_str(),
                 engine.checkpoint_error().c_str());
    artifact_failed = true;
  }
  if (!options.dump_path.empty() && !engine.dump_error().empty()) {
    std::fprintf(stderr,
                 "result dump to %s failed (file unusable for sweep-merge): "
                 "%s\n",
                 options.dump_path.c_str(), engine.dump_error().c_str());
    artifact_failed = true;
  }
  if (artifact_failed) return 1;
  // A FAILED cell must fail the invocation (CI and scripts key off the exit
  // status, not the table text) — including one loaded from a checkpoint's
  // committed prefix on a resume.
  for (const auto& r : results) {
    if (r.failed) return 1;
  }
  return 0;
}
