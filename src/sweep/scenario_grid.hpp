// Grid expansion for the multi-scenario sweep (paper §6 / Table 2 campaign).
//
// A GridSpec is the cartesian product
//
//   servers × environments × poll periods × schedule variants
//
// expanded into concrete ScenarioConfigs. Each scenario's RNG seed is derived
// from the master seed and the scenario's *identity* (its descriptor string),
// never from its position in the expanded list: reordering the grid axes, or
// adding a new axis value, cannot silently re-seed existing scenarios.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "common/time_types.hpp"
#include "harness/estimator_spec.hpp"
#include "sim/events.hpp"
#include "sim/fleet.hpp"
#include "sim/scenario.hpp"

namespace tscclock::sweep {

/// One named fault/switch plan applied to every grid cell it appears in.
/// An empty variant ("steady") runs the plain scenario.
struct ScheduleVariant {
  std::string name = "steady";
  sim::EventSchedule events;
  std::vector<sim::ScenarioConfig::ServerSwitch> server_switches;
};

/// One value of the sweep's fleet axis: how many clients a cell simulates
/// and how they are coupled (sim/fleet.hpp). The default-constructed spec
/// is the single-client cell — it must behave, name and seed exactly like a
/// pre-fleet scenario, which is why single() cells get no name suffix.
struct FleetSpec {
  sim::FleetConfig config;

  /// True when this spec is indistinguishable from a plain Testbed cell.
  [[nodiscard]] bool single() const {
    const sim::FleetConfig defaults;
    return config.n_clients == 1 && !config.shared_congestion &&
           !config.hierarchy &&
           config.bridge_warmup == defaults.bridge_warmup;
  }

  /// Canonical label: `fleet` for all-default, otherwise
  /// `fleet(n=…,shared_congestion=…,hierarchy=…,bridge_warmup=…)` with
  /// default-valued keys elided, rendered through the spec grammar's
  /// canonical formatters (common/spec.hpp).
  [[nodiscard]] std::string label() const;
};

/// The fleet family's tunables, one row per sim::FleetConfig field, with
/// defaults taken from sim::FleetConfig{}.
const std::vector<TunableSpec>& fleet_tunables();

/// Parse a comma-separated list of fleet specs — `fleet`, `fleet(n=4)`,
/// `fleet(n=8,shared_congestion=1,hierarchy=1,bridge_warmup=600)` — in the
/// shared spec grammar (common/spec.hpp). Throws SweepUsageError with the
/// grammar's precise message on any spec or list it refuses.
std::vector<FleetSpec> parse_fleet_specs(const std::string& text);

/// Smallest poll period the sweep accepts. The simulated paths have ms-scale
/// minimum delays with heavy-tailed (Pareto) spikes; polling faster than this
/// can schedule the next poll before the previous exchange has fully arrived,
/// violating the oscillator's monotonic-read contract mid-trace.
constexpr Seconds kMinPollPeriod = 1.0;

/// The sweep's cartesian grid plus the scalar knobs shared by every cell.
struct GridSpec {
  std::vector<sim::ServerKind> servers = {
      sim::ServerKind::kLoc, sim::ServerKind::kInt, sim::ServerKind::kExt};
  std::vector<sim::Environment> environments = {
      sim::Environment::kLaboratory, sim::Environment::kMachineRoom};
  std::vector<Seconds> poll_periods = {16.0, 64.0};
  std::vector<ScheduleVariant> schedules = {ScheduleVariant{}};
  /// The fleet axis (default: one single-client value, i.e. the classic
  /// grid). Non-single values append "/fleet(...)" to the cell's identity.
  std::vector<FleetSpec> fleets = {FleetSpec{}};

  /// The estimator axis: every scenario's exchange stream — each client's,
  /// in a fleet cell — is generated once and fanned into all of these
  /// (harness::MultiEstimatorSession lanes), so the algorithms — and
  /// their parameterized ablation variants, e.g. robust(use_local_rate=0) —
  /// are graded head-to-head on identical packets. Deliberately NOT part of
  /// the scenario identity: the per-scenario RNG seed must stay the same no
  /// matter which estimator specs score the trace.
  std::vector<harness::EstimatorSpec> estimators = {
      harness::EstimatorSpec{"robust", {}}};

  /// Imported trace files (trace/trace_io.hpp), each appended to the
  /// expanded grid as one extra scenario named "trace:<path>" after the
  /// cartesian cells. Trace cells skip the Testbed entirely: the recorded
  /// exchange stream rides the identical ReplaySession → reduction path as
  /// a sim-recorded trace, which is the whole point — a real capture lands
  /// in the same comparison tables. Only replay estimator specs can score
  /// them (an online estimator would need a live drive loop; the CLI
  /// refuses the combination up front).
  std::vector<std::string> trace_inputs;

  Seconds duration = duration::kDay;
  Seconds poll_jitter = 0.25;
  bool use_wire_format = true;
  /// Debug assertion mode: replay every wire-quantized stamp through the
  /// real packet encode/decode and contract-assert it matches the algebraic
  /// fast path. Results are bit-identical either way (the mode only checks),
  /// so this must NEVER enter grid_descriptor() — a checked sweep resumes
  /// from and merges with unchecked artifacts.
  bool check_wire = false;
  std::uint64_t master_seed = 42;

  /// Number of *scenarios* (grid cells plus appended trace cells); each
  /// produces one result per estimator, so a sweep yields
  /// size() × estimators.size() result rows.
  [[nodiscard]] std::size_t size() const {
    return servers.size() * environments.size() * poll_periods.size() *
               schedules.size() * fleets.size() +
           trace_inputs.size();
  }
};

/// One expanded grid cell, ready to drive a Testbed.
struct SweepScenario {
  std::size_t index = 0;  ///< position in the expanded grid (reporting order)
  std::string name;       ///< canonical descriptor, e.g. "ServerInt/machine-room/poll16/steady"
  sim::ScenarioConfig config;
  FleetSpec fleet;  ///< fleet-axis value; single() cells drive a Testbed
  /// Non-empty for imported-trace cells: the trace file replayed instead of
  /// driving a Testbed. The file is re-read at run time (cells are
  /// independent work units; a vanished/corrupted file fails its cell, not
  /// the sweep).
  std::string trace_path;

  [[nodiscard]] bool is_trace() const { return !trace_path.empty(); }
};

/// Canonical descriptor of a grid cell; doubles as the seed-derivation
/// identity, so it must depend only on what the scenario *is*.
std::string scenario_name(sim::ServerKind server, sim::Environment environment,
                          Seconds poll_period, const std::string& schedule);

/// Deterministic per-scenario seed: splitmix64 finalization of the master
/// seed XOR an FNV-1a hash of the identity string. Independent of grid
/// enumeration order by construction.
std::uint64_t scenario_seed(std::uint64_t master_seed,
                            const std::string& identity);

/// Expand the cartesian product in deterministic axis order
/// (servers → environments → poll periods → schedules).
std::vector<SweepScenario> expand_grid(const GridSpec& grid);

/// Canonical, exhaustive text rendering of everything in the GridSpec that
/// can influence a result cell: every axis value (schedules including their
/// event/switch contents, estimators by canonical label), the shared scalar
/// knobs and the master seed, with doubles in exact hexfloat. Two GridSpecs
/// produce the same descriptor iff a sweep over them is guaranteed to
/// produce identical results — this string (hashed, together with the
/// run-affecting SweepOptions) is the fingerprint that shard dumps and
/// checkpoints use to refuse mixing incompatible invocations.
std::string grid_descriptor(const GridSpec& grid);

}  // namespace tscclock::sweep
