#include "sweep/scenario_grid.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <string_view>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"
#include "sweep/shard.hpp"

namespace tscclock::sweep {

const std::vector<TunableSpec>& fleet_tunables() {
  static const std::vector<TunableSpec> tunables = [] {
    const sim::FleetConfig defaults;
    std::vector<TunableSpec> table = {
        {.key = "n", .type = TunableType::kCount,
         .default_value = format_count(defaults.n_clients),
         .description = "clients per cell; client k's scenario seed is "
                        "derived from the cell seed and k (client 0 keeps "
                        "the cell seed verbatim)",
         .min_value = 1, .max_value = 1024},
        TunableSpec::boolean(
            "shared_congestion", format_bool_value(defaults.shared_congestion),
            "overlay three fleet-wide congestion windows (every client's "
            "delays rise together) plus a per-client private asymmetric "
            "delay shift"),
        TunableSpec::boolean(
            "hierarchy", format_bool_value(defaults.hierarchy),
            "client 0 is a bridge: clients 1..n-1 sync to its served clock "
            "(master->bridge->slave) and lose every poll before "
            "bridge_warmup"),
        TunableSpec::number(
            "bridge_warmup", format_double_value(defaults.bridge_warmup),
            "seconds before the bridge starts serving time (hierarchy=1 "
            "only)",
            0.0),
    };
    validate_family("fleet", "fleet", table);
    return table;
  }();
  return tunables;
}

std::string FleetSpec::label() const {
  const std::string values[] = {format_count(config.n_clients),
                                format_bool_value(config.shared_congestion),
                                format_bool_value(config.hierarchy),
                                format_double_value(config.bridge_warmup)};
  return spec_from_values("fleet", fleet_tunables(), values).label();
}

std::vector<FleetSpec> parse_fleet_specs(const std::string& text) {
  const auto parse_one = [](std::string_view item) {
    const SpecSyntax syntax = parse_spec_syntax(item, "fleet");
    if (syntax.family != "fleet") {
      throw SpecError(syntax.context +
                      ": expected 'fleet' or 'fleet(...)', got '" +
                      syntax.family + "'");
    }
    return canonicalize(syntax, fleet_tunables(), "fleet");
  };
  std::vector<FleetSpec> fleets;
  try {
    for (const Spec& spec : parse_spec_list(text, "fleet", parse_one)) {
      const ResolvedSpec values(spec, fleet_tunables(), "fleet");
      FleetSpec fleet;
      fleet.config.n_clients = values.get_count("n");
      fleet.config.shared_congestion = values.get_bool("shared_congestion");
      fleet.config.hierarchy = values.get_bool("hierarchy");
      fleet.config.bridge_warmup = values.get_double("bridge_warmup");
      fleets.push_back(fleet);
    }
  } catch (const SpecError& error) {
    throw SweepUsageError(error.what());
  }
  return fleets;
}

std::string scenario_name(sim::ServerKind server, sim::Environment environment,
                          Seconds poll_period, const std::string& schedule) {
  return sim::to_string(server) + "/" + sim::to_string(environment) + "/" +
         strfmt("poll%g", poll_period) + "/" + schedule;
}

std::uint64_t scenario_seed(std::uint64_t master_seed,
                            const std::string& identity) {
  return splitmix64(master_seed ^ fnv1a64(identity));
}

std::vector<SweepScenario> expand_grid(const GridSpec& grid) {
  TSC_EXPECTS(!grid.servers.empty());
  TSC_EXPECTS(!grid.environments.empty());
  TSC_EXPECTS(!grid.poll_periods.empty());
  TSC_EXPECTS(!grid.schedules.empty());
  TSC_EXPECTS(!grid.fleets.empty());
  TSC_EXPECTS(grid.duration > 0.0);
  for (const auto poll : grid.poll_periods) TSC_EXPECTS(poll >= kMinPollPeriod);
  for (const auto& fleet : grid.fleets) {
    TSC_EXPECTS(fleet.config.n_clients >= 1);
    TSC_EXPECTS(fleet.config.n_clients <= 1024);
    TSC_EXPECTS(fleet.config.bridge_warmup >= 0.0);
    // A non-single cell is named (and seeded) by its label, which prints
    // the warm-up as %g: a warm-up %g does not print exactly would run
    // under another configuration's name.
    TSC_EXPECTS(parse_double_exact(format_double_value(
                    fleet.config.bridge_warmup)) == fleet.config.bridge_warmup);
  }
  // The estimator axis is not part of the expansion (it never touches the
  // seeds), but a sweep with no or duplicate estimators is still a grid
  // misconfiguration — reject it where every other axis is validated.
  // Identity is the canonical label, so `robust` and `robust()` collide.
  TSC_EXPECTS(!grid.estimators.empty());
  {
    std::set<std::string> unique_estimators;
    for (const auto& spec : grid.estimators)
      unique_estimators.insert(spec.label());
    TSC_EXPECTS(unique_estimators.size() == grid.estimators.size());
  }

  std::vector<SweepScenario> scenarios;
  scenarios.reserve(grid.size());
  std::set<std::string> seen_names;
  for (const auto server : grid.servers) {
    for (const auto environment : grid.environments) {
      for (const auto poll : grid.poll_periods) {
        for (const auto& schedule : grid.schedules) {
          for (const auto& fleet : grid.fleets) {
            SweepScenario scenario;
            scenario.index = scenarios.size();
            scenario.name =
                scenario_name(server, environment, poll, schedule.name);
            // Single-client cells keep the historical identity (name AND
            // seed): adding the fleet axis must not re-seed or rename any
            // pre-fleet scenario. Non-single cells append the canonical
            // fleet label, which also keys their derived seed.
            if (!fleet.single()) scenario.name += "/" + fleet.label();
            scenario.fleet = fleet;
            // Identity = name = seed derivation input: a duplicate axis
            // value (or two schedules sharing a name) would silently
            // collapse two cells onto one RNG stream.
            TSC_EXPECTS(seen_names.insert(scenario.name).second);

            sim::ScenarioConfig& config = scenario.config;
            config.server = server;
            config.environment = environment;
            config.poll_period = poll;
            // Poll jitter must stay strictly inside half the poll period
            // (Testbed contract); clamp for short poll periods.
            config.poll_jitter = std::min(grid.poll_jitter, poll / 4);
            config.duration = grid.duration;
            config.use_wire_format = grid.use_wire_format;
            config.check_wire = grid.check_wire;
            config.events = schedule.events;
            config.server_switches = schedule.server_switches;
            config.seed = scenario_seed(grid.master_seed, scenario.name);

            scenarios.push_back(std::move(scenario));
          }
        }
      }
    }
  }
  // Imported traces ride behind the cartesian cells, one scenario per file.
  // The seed is derived like any other cell's (identity = name) even though
  // a replayed trace consumes no randomness — result rows must carry a
  // well-defined seed column either way.
  for (const auto& path : grid.trace_inputs) {
    TSC_EXPECTS(!path.empty());
    SweepScenario scenario;
    scenario.index = scenarios.size();
    scenario.name = "trace:" + path;
    TSC_EXPECTS(seen_names.insert(scenario.name).second);
    scenario.trace_path = path;
    scenario.config.seed = scenario_seed(grid.master_seed, scenario.name);
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

std::string grid_descriptor(const GridSpec& grid) {
  // Every field below can change a result cell; nothing else in GridSpec
  // can. Doubles are rendered in exact hexfloat so two descriptors are
  // equal iff the grids are value-identical (no %g collision window).
  std::ostringstream out;
  out << "tscclock-grid v3\n";  // v3: trace-input axis joined the fingerprint
  out << "servers";
  for (const auto server : grid.servers) out << ' ' << sim::to_string(server);
  out << "\nenvironments";
  for (const auto environment : grid.environments) {
    out << ' ' << sim::to_string(environment);
  }
  out << "\npolls";
  for (const auto poll : grid.poll_periods) {
    out << ' ' << format_double_exact(poll);
  }
  out << '\n';
  for (const auto& schedule : grid.schedules) {
    // Schedules carry structure, not just a name: two invocations may both
    // say "outage" yet place the gap differently (the CLI derives event
    // times from the duration). Serialize the contents.
    out << "schedule " << escape_field(schedule.name);
    for (const auto& o : schedule.events.outages()) {
      out << " outage " << format_double_exact(o.start) << ' '
          << format_double_exact(o.end);
    }
    for (const auto& f : schedule.events.server_faults()) {
      out << " fault " << format_double_exact(f.start) << ' '
          << format_double_exact(f.end) << ' '
          << format_double_exact(f.offset);
    }
    for (const auto& s : schedule.events.level_shifts()) {
      out << " shift " << format_double_exact(s.start) << ' '
          << format_double_exact(s.end) << ' '
          << format_double_exact(s.forward_delta) << ' '
          << format_double_exact(s.backward_delta);
    }
    for (const auto& s : schedule.server_switches) {
      out << " switch " << format_double_exact(s.time) << ' '
          << sim::to_string(s.kind);
    }
    out << '\n';
  }
  out << "estimators";
  for (const auto& spec : grid.estimators) {
    out << ' ' << escape_field(spec.label());
  }
  // Fleet axis, structurally: the canonical label elides defaults, so the
  // fingerprint spells every tunable out in exact form instead.
  out << "\nfleets";
  for (const auto& fleet : grid.fleets) {
    out << " n " << fleet.config.n_clients << " sc "
        << (fleet.config.shared_congestion ? 1 : 0) << " hier "
        << (fleet.config.hierarchy ? 1 : 0) << " bw "
        << format_double_exact(fleet.config.bridge_warmup);
  }
  // Trace inputs are identified by path: the cell re-reads the file at run
  // time, so the path IS the cell's identity (a changed file under the same
  // path is the same caveat any checkpointed input file has).
  out << "\ntraces";
  for (const auto& path : grid.trace_inputs) out << ' ' << escape_field(path);
  out << "\nduration " << format_double_exact(grid.duration);
  out << "\npoll_jitter " << format_double_exact(grid.poll_jitter);
  out << "\nwire " << (grid.use_wire_format ? 1 : 0);
  out << "\nmaster_seed " << grid.master_seed << '\n';
  return out.str();
}

}  // namespace tscclock::sweep
