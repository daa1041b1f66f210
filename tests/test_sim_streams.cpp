// Pins the simulated exchange streams bit for bit: an FNV-1a digest over
// every ExchangeBatch column of short ClientNode and FleetTestbed runs,
// against digests recorded once. Every other stream golden compares two
// drives of the same build, so they would all still pass if every random
// draw changed; these catch a change to the engine, to a distribution's
// arithmetic or to the order in which components consume words. Integers
// are hashed as decimal text, doubles as exact hexfloat.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/serialize.hpp"
#include "sim/fleet.hpp"
#include "sim/scenario.hpp"

namespace tscclock::sim {
namespace {

constexpr std::size_t kChunk = 4096;

void append_row(std::string& out, const ExchangeBatch& b, std::size_t i) {
  for (const std::uint64_t v :
       {b.index[i], std::uint64_t{b.lost[i]}, b.ta_counts[i], b.tf_counts[i],
        b.tf_counts_corrected[i], std::uint64_t{b.server_id[i]},
        std::uint64_t{b.server_stratum[i]}, std::uint64_t{b.ref_available[i]}}) {
    out += std::to_string(v);
    out += ' ';
  }
  for (const double v : {b.tb_stamp[i], b.te_stamp[i], b.tg[i], b.truth_ta[i],
                         b.truth_tb[i], b.truth_te[i], b.truth_tf[i],
                         b.d_forward[i], b.d_server[i], b.d_backward[i]}) {
    append_double_exact(out, v);
    out += ' ';
  }
  out += '\n';
}

struct StreamDigest {
  std::uint64_t digest = 0;
  std::size_t rows = 0;
};

StreamDigest client_digest(const ScenarioConfig& config) {
  ClientNode node(config);
  ExchangeBatch batch;
  std::string text;
  StreamDigest result;
  while (node.generate_batch(batch, kChunk) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) append_row(text, batch, i);
    result.rows += batch.size();
  }
  result.digest = fnv1a64(text);
  return result;
}

StreamDigest fleet_digest(const ScenarioConfig& config,
                          const FleetConfig& fleet) {
  FleetTestbed testbed(config, fleet);
  FleetBatch batch;
  std::string text;
  StreamDigest result;
  while (testbed.generate_batch(batch, kChunk) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      text += std::to_string(batch.client_id[i]);
      text += ' ';
      append_row(text, batch.exchanges, i);
    }
    result.rows += batch.size();
  }
  result.digest = fnv1a64(text);
  return result;
}

ScenarioConfig two_days(ServerKind server, Environment environment,
                        std::uint64_t seed) {
  ScenarioConfig config;
  config.server = server;
  config.environment = environment;
  config.poll_period = 16.0;
  config.duration = 2 * duration::kDay;
  config.seed = seed;
  return config;
}

struct PresetCase {
  ServerKind server;
  Environment environment;
  std::uint64_t digest;
};

TEST(SimStreams, PresetStreamsArePinned) {
  // Oscillator (OU + wander), poll jitter, host timestamping, path jitter,
  // Pareto spikes, congestion episodes, loss, server processing and Te
  // errors, and the DAG monitor, for every Table 2 server in both rooms.
  const PresetCase cases[] = {
      {ServerKind::kLoc, Environment::kLaboratory, 0x04c0704bcac2566eull},
      {ServerKind::kLoc, Environment::kMachineRoom, 0x869d48264ce78e4dull},
      {ServerKind::kInt, Environment::kLaboratory, 0x666dfd68b9dbf535ull},
      {ServerKind::kInt, Environment::kMachineRoom, 0x3423434aef28f202ull},
      {ServerKind::kExt, Environment::kLaboratory, 0x46cc2270f979f8e5ull},
      {ServerKind::kExt, Environment::kMachineRoom, 0x3dd87054c6463595ull},
  };
  std::uint64_t seed = 20041025;
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.server) + "/" + to_string(c.environment));
    const StreamDigest got = client_digest(two_days(c.server, c.environment,
                                                    seed++));
    EXPECT_EQ(got.rows, 10800u);
    EXPECT_EQ(got.digest, c.digest);
  }
}

TEST(SimStreams, StressScheduleStreamIsPinned) {
  // The sweep's `stress` schedule: an outage, a switch to ServerLoc and a
  // 150 ms server fault window.
  ScenarioConfig config =
      two_days(ServerKind::kInt, Environment::kMachineRoom, 7);
  const Seconds d = config.duration;
  config.events.add_outage(0.25 * d, 0.25 * d + 20 * duration::kMinute);
  config.events.add_server_fault(0.55 * d, 0.55 * d + 10 * duration::kMinute,
                                 150 * duration::kMillisecond);
  config.server_switches = {{d / 2, ServerKind::kLoc}};
  const StreamDigest got = client_digest(config);
  EXPECT_EQ(got.rows, 10725u);
  EXPECT_EQ(got.digest, 0x9f9afbd5f3e77d9eull);
}

TEST(SimStreams, CongestedPathStreamIsPinned) {
  // Congestion episodes every half hour on average, so most heavy samples
  // are congestion-mode Pareto spikes.
  ScenarioConfig config =
      two_days(ServerKind::kExt, Environment::kLaboratory, 11);
  PathConfig path = ScenarioConfig::path_preset(ServerKind::kExt);
  for (OneWayDelayConfig* way : {&path.forward, &path.backward}) {
    way->congestion_mean_interval = 30 * duration::kMinute;
    way->congestion_mean_duration = 10 * duration::kMinute;
  }
  config.path_override = path;
  const StreamDigest got = client_digest(config);
  EXPECT_EQ(got.rows, 10800u);
  EXPECT_EQ(got.digest, 0x3cbcbc390584ba72ull);
}

TEST(SimStreams, HierarchyFleetStreamIsPinned) {
  // fleet(n=5,hierarchy=1): the bridge link's draws and four slaves on the
  // local-segment path.
  FleetConfig fleet;
  fleet.n_clients = 5;
  fleet.hierarchy = true;
  const StreamDigest got = fleet_digest(
      two_days(ServerKind::kInt, Environment::kMachineRoom, 5), fleet);
  EXPECT_EQ(got.rows, 54000u);
  EXPECT_EQ(got.digest, 0x5850fa83ac34ec77ull);
}

TEST(SimStreams, SharedCongestionFleetStreamIsPinned) {
  // fleet(n=4,shared_congestion=1): shared windows plus each client's
  // private asymmetric level shift.
  FleetConfig fleet;
  fleet.n_clients = 4;
  fleet.shared_congestion = true;
  const StreamDigest got = fleet_digest(
      two_days(ServerKind::kExt, Environment::kMachineRoom, 4), fleet);
  EXPECT_EQ(got.rows, 43200u);
  EXPECT_EQ(got.digest, 0x7a8a4c18aa423c15ull);
}

}  // namespace
}  // namespace tscclock::sim
