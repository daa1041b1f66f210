// perfbench: the repository benchmark's driver. Runs one named workload
// through the library's public entry points, checks its outputs, and prints
// its metrics by name and unit; the last line of stdout is the JSON result
//
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). perfbench/run.py builds and runs it; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"

namespace {

struct NamedWorkload {
  const char* name;
  perfbench::Workload run;
};

constexpr NamedWorkload kWorkloads[] = {
    {"sweep_grid", perfbench::run_sweep_grid},
    {"fleet_congested", perfbench::run_fleet_congested},
    {"trace_replay", perfbench::run_trace_replay},
};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sweep_grid|fleet_congested|"
               "trace_replay --seed N --seconds S --trace 0|1 "
               "[--scratch DIR]\n",
               why.c_str());
  return 2;
}

std::string number(double value) {
  return tscclock::strfmt("%.17g", value);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  perfbench::Workload run = nullptr;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
        for (const auto& workload : kWorkloads)
          if (value == workload.name) run = workload.run;
        if (run == nullptr) return usage("unknown workload '" + value + "'");
      } else if (flag == "--seed") {
        options.seed = tscclock::parse_u64_exact(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = tscclock::parse_double_exact(value);
        if (!(options.seconds > 0) || !std::isfinite(options.seconds))
          return usage("--seconds must be positive");
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--scratch") {
        options.scratch_dir = value;
      } else {
        return usage("unknown option " + flag);
      }
    } catch (const std::exception& e) {
      return usage("bad value '" + value + "' for " + flag + ": " + e.what());
    }
  }
  if (run == nullptr || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const perfbench::Fingerprint fingerprint = perfbench::machine_fingerprint();
  std::printf("fingerprint %s\n", perfbench::to_json(fingerprint).c_str());
  if (!fingerprint.valid_baseline)
    std::printf("WARNING: not a valid baseline: %s\n",
                fingerprint.why_invalid.c_str());
  std::fflush(stdout);

  perfbench::Report report;
  try {
    report = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  const auto& metrics = options.trace ? perfbench::per_layer_metrics()
                                      : perfbench::end_to_end_metrics();
  for (const auto& entry : report.values) {
    bool declared = false;
    for (const auto& metric : metrics) declared = declared || entry.first == metric.name;
    report.check(declared, "workload set undeclared metric " + entry.first);
  }
  std::string json;
  for (const auto& metric : metrics) {
    const auto it = report.values.find(metric.name);
    double value = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      report.check(false, std::string(metric.name) + " is not finite");
      value = 0;
    }
    std::printf("metric %-26s %s %s\n", metric.name, number(value).c_str(),
                metric.unit);
    if (!json.empty()) json += ", ";
    json += perfbench::json_string(metric.name);
    json += ": {\"value\": ";
    json += number(value);
    json += ", \"unit\": ";
    json += perfbench::json_string(metric.unit);
    json += "}";
  }
  // failed_frac is always printed but never in the JSON metrics: it is 0 on
  // a healthy run, and the JSON carries it as failed/attempted.
  report.check(report.attempted > 0, "nothing was attempted");
  std::printf("metric %-26s %s frac (%llu failed of %llu attempted)\n",
              "failed_frac",
              number(report.attempted > 0
                         ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0)
                  .c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& note : report.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& error : report.errors)
    std::printf("CHECK FAILED: %s\n", error.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(report.attempted, 1)),
      static_cast<unsigned long long>(report.failed), json.c_str());
  return 0;
}
