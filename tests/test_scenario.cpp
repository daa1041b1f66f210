// Tests for the composed testbed: causal ordering of the exchange timeline,
// Table 2 characteristics, wire-format round trip and event handling.
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/stats.hpp"

namespace tscclock::sim {
namespace {

ScenarioConfig short_config(ServerKind kind = ServerKind::kInt) {
  ScenarioConfig c;
  c.server = kind;
  c.duration = 2 * duration::kHour;
  c.seed = 99;
  return c;
}

TEST(Testbed, TimelineIsCausal) {
  Testbed tb(short_config());
  while (auto ex = tb.next()) {
    if (ex->lost) continue;
    EXPECT_LT(ex->truth.ta, ex->truth.tb);
    EXPECT_LT(ex->truth.tb, ex->truth.te);
    EXPECT_LT(ex->truth.te, ex->truth.tf);
    EXPECT_GT(ex->tf_counts, ex->ta_counts);
    // Server stamps sit between the host events (up to stamp noise).
    EXPECT_GT(ex->tb_stamp, ex->truth.ta);
    EXPECT_LT(ex->te_stamp, ex->truth.tf + 2e-3);
  }
}

TEST(Testbed, RttDecompositionConsistent) {
  Testbed tb(short_config());
  while (auto ex = tb.next()) {
    if (ex->lost) continue;
    EXPECT_NEAR(ex->truth.rtt(), ex->truth.tf - ex->truth.ta, 1e-12);
  }
}

TEST(Testbed, MinRttMatchesTable2) {
  struct Case {
    ServerKind kind;
    Seconds paper_rtt;
  };
  const Case cases[] = {{ServerKind::kLoc, 0.38e-3},
                        {ServerKind::kInt, 0.89e-3},
                        {ServerKind::kExt, 14.2e-3}};
  for (const auto& c : cases) {
    Testbed tb(short_config(c.kind));
    Seconds min_rtt = 1.0;
    while (auto ex = tb.next()) {
      if (ex->lost) continue;
      min_rtt = std::min(min_rtt, ex->truth.rtt());
    }
    // Minimum approached within the light jitter scale.
    EXPECT_GT(min_rtt, c.paper_rtt);
    EXPECT_LT(min_rtt, c.paper_rtt * 1.35);
  }
}

TEST(Testbed, AsymmetryMatchesTable2) {
  EXPECT_NEAR(ScenarioConfig::path_preset(ServerKind::kLoc).forward.min_delay -
                  ScenarioConfig::path_preset(ServerKind::kLoc).backward.min_delay,
              50e-6, 1e-9);
  EXPECT_NEAR(ScenarioConfig::path_preset(ServerKind::kInt).forward.min_delay -
                  ScenarioConfig::path_preset(ServerKind::kInt).backward.min_delay,
              50e-6, 1e-9);
  EXPECT_NEAR(ScenarioConfig::path_preset(ServerKind::kExt).forward.min_delay -
                  ScenarioConfig::path_preset(ServerKind::kExt).backward.min_delay,
              500e-6, 1e-9);
}

TEST(Testbed, DagReferenceTracksArrival) {
  Testbed tb(short_config());
  while (auto ex = tb.next()) {
    if (ex->lost || !ex->ref_available) continue;
    EXPECT_NEAR(ex->tg, ex->truth.tf, 5e-6);
  }
}

TEST(Testbed, HostStampsBracketTruth) {
  // Ta is made before wire departure; Tf after full arrival.
  auto config = short_config();
  Testbed tb(config);
  const double period = tb.true_period();
  TscCount prev = 0;
  while (auto ex = tb.next()) {
    if (ex->lost) continue;
    EXPECT_GE(ex->ta_counts, prev);  // monotone stream
    prev = ex->tf_counts;
    // RTT measured by counter exceeds true RTT (send lead + recv lag).
    const Seconds host_rtt =
        delta_to_seconds(counter_delta(ex->tf_counts, ex->ta_counts), period);
    EXPECT_GT(host_rtt, ex->truth.rtt());
    EXPECT_LT(host_rtt - ex->truth.rtt(), 2e-3);
  }
}

TEST(Testbed, WireFormatPreservesStamps) {
  // With and without the wire round trip, server stamps agree to ~1 ns
  // (one 2^-32 s LSB), proving the codec is on the data path and lossless.
  auto with = short_config();
  with.duration = 600;
  auto without = with;
  without.use_wire_format = false;
  Testbed tb_with(with);
  Testbed tb_without(without);
  while (true) {
    auto a = tb_with.next();
    auto b = tb_without.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    if (a->lost) continue;
    EXPECT_NEAR(a->tb_stamp, b->tb_stamp, 2e-9);
    EXPECT_NEAR(a->te_stamp, b->te_stamp, 2e-9);
  }
}

TEST(Testbed, OutageSuppressesPolls) {
  auto config = short_config();
  config.events.add_outage(1800.0, 3600.0);
  Testbed tb(config);
  while (auto ex = tb.next()) {
    const bool inside =
        ex->truth.ta >= 1800.0 && ex->truth.ta < 3600.0;
    EXPECT_FALSE(inside) << "poll emitted inside outage at " << ex->truth.ta;
  }
}

TEST(Testbed, LossRateRoughlyMatchesConfig) {
  auto config = short_config();
  config.duration = duration::kDay;
  Testbed tb(config);
  std::size_t lost = 0;
  std::size_t total = 0;
  while (auto ex = tb.next()) {
    ++total;
    if (ex->lost) ++lost;
  }
  const double p = ScenarioConfig::path_preset(ServerKind::kInt).loss_prob;
  // Two loss opportunities per exchange.
  EXPECT_NEAR(static_cast<double>(lost) / total, 2 * p, 2 * p);
  EXPECT_GT(lost, 0u);
}

TEST(Testbed, DeterministicForSeed) {
  Testbed a(short_config());
  Testbed b(short_config());
  while (true) {
    auto ea = a.next();
    auto eb = b.next();
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (!ea) break;
    EXPECT_EQ(ea->ta_counts, eb->ta_counts);
    EXPECT_EQ(ea->tf_counts, eb->tf_counts);
    EXPECT_EQ(ea->lost, eb->lost);
    EXPECT_DOUBLE_EQ(ea->tb_stamp, eb->tb_stamp);
  }
}

TEST(Testbed, StreamLengthMatchesDuration) {
  auto config = short_config();
  config.duration = 3200.0;  // 200 polls at 16 s
  Testbed tb(config);
  std::size_t produced = 0;
  while (tb.next()) ++produced;
  EXPECT_GE(produced, 195u);
  EXPECT_LE(produced, 200u);
}

TEST(Testbed, PollSlotsCountWhatAFullDrainEnumerates) {
  // Durations on and off the poll grid (one ulp either side of it too), at
  // 16 s and 64 s polling, with and without an outage: the slot count is
  // known before the drain and equals what the drain enumerates. Outage
  // slots are enumerated but yield no exchange; every other slot yields
  // one, lost or not.
  for (const Seconds poll : {16.0, 64.0}) {
    const Seconds on_grid = 200 * poll;
    for (const Seconds duration :
         {on_grid, on_grid + 1.0, on_grid - 0.5, std::nextafter(on_grid, 0.0),
          std::nextafter(on_grid, 2 * on_grid), 1.0, 0.3 * duration::kHour}) {
      for (const bool outage : {false, true}) {
        auto config = short_config(ServerKind::kExt);
        config.poll_period = poll;
        config.duration = duration;
        if (outage) config.events.add_outage(duration / 4, duration / 2);
        Testbed tb(config);
        const std::uint64_t slots = tb.poll_slots();
        std::uint64_t rows = 0;
        while (tb.next()) ++rows;
        EXPECT_EQ(tb.polls_enumerated(), slots)
            << "poll " << poll << " s, duration " << duration << " s";
        EXPECT_EQ(tb.poll_slots(), slots);  // a drain does not move it
        if (outage)
          EXPECT_LE(rows, slots);
        else
          EXPECT_EQ(rows, slots);
      }
    }
    auto config = short_config();
    config.poll_period = poll;
    config.duration = on_grid;
    EXPECT_EQ(Testbed(config).poll_slots(), 200u);
    config.duration = std::nextafter(on_grid, 2 * on_grid);
    EXPECT_EQ(Testbed(config).poll_slots(), 201u);
  }
}

TEST(Testbed, ServerFaultVisibleInStamps) {
  auto config = short_config();
  config.events.add_server_fault(1000.0, 2000.0, 0.150);
  Testbed tb(config);
  bool saw_fault = false;
  while (auto ex = tb.next()) {
    if (ex->lost) continue;
    const double err = ex->tb_stamp - ex->truth.tb;
    if (ex->truth.tb > 1000.0 && ex->truth.tb < 2000.0) {
      EXPECT_NEAR(err, 0.150, 2e-3);
      saw_fault = true;
    } else {
      EXPECT_LT(std::fabs(err), 2e-3);
    }
  }
  EXPECT_TRUE(saw_fault);
}

TEST(Testbed, ServerSwitchChangesIdentityMidTrace) {
  auto config = short_config();
  config.server_switches = {{1200.0, ServerKind::kLoc},
                            {2400.0, ServerKind::kExt}};
  Testbed tb(config);
  std::uint32_t last_id = 0;
  std::vector<std::uint32_t> id_sequence;
  while (auto ex = tb.next()) {
    // Identity is assigned before loss is decided, so lost exchanges carry
    // the active attachment's id too.
    if (ex->server_id != last_id) {
      id_sequence.push_back(ex->server_id);
      last_id = ex->server_id;
    }
    const Seconds t = ex->truth.ta;
    const std::uint32_t expected = t < 1200.0 ? 1u : (t < 2400.0 ? 2u : 3u);
    EXPECT_EQ(ex->server_id, expected) << "at t=" << t;
    EXPECT_EQ(ex->server_stratum, 1);
  }
  EXPECT_EQ(id_sequence, (std::vector<std::uint32_t>{1, 2, 3}))
      << "each switch takes effect exactly once, in order";
}

TEST(Testbed, SwitchDuringOutageAppliesAtFirstPollAfterGap) {
  // The switch instant falls inside an outage: no poll is emitted at the
  // switch time itself (skipped, not lost), and the first post-outage
  // exchange already carries the new identity.
  auto config = short_config();
  config.events.add_outage(1100.0, 1500.0);
  config.server_switches = {{1200.0, ServerKind::kLoc}};
  Testbed tb(config);
  std::optional<std::uint64_t> last_index_before;
  std::optional<std::uint64_t> first_index_after;
  while (auto ex = tb.next()) {
    EXPECT_FALSE(ex->truth.ta >= 1100.0 && ex->truth.ta < 1500.0)
        << "poll emitted inside outage at " << ex->truth.ta;
    if (ex->truth.ta < 1100.0) {
      EXPECT_EQ(ex->server_id, 1u);
      last_index_before = ex->index;
    } else if (!first_index_after) {
      first_index_after = ex->index;
      EXPECT_EQ(ex->server_id, 2u)
          << "first poll after the gap must use the switched server";
    }
  }
  ASSERT_TRUE(last_index_before.has_value());
  ASSERT_TRUE(first_index_after.has_value());
  // The suppressed polls consume indices: the sequence numbers across the
  // gap jump by the number of skipped slots (≈ 400 s / 16 s), so the
  // synchronization layer sees a genuine data gap, not a renumbering.
  const auto jump = *first_index_after - *last_index_before;
  EXPECT_GE(jump, 24u);
  EXPECT_LE(jump, 27u);
}

TEST(Testbed, LostExchangesDistinctFromSkippedPolls) {
  // Loss produces an element with lost=true (the poll happened, the packet
  // died); an outage produces no element at all. Fed by ServerExt's loss
  // rate over a day so both behaviours coexist in one trace.
  auto config = short_config(ServerKind::kExt);
  config.duration = duration::kDay;
  config.events.add_outage(10000.0, 12000.0);
  config.server_switches = {{43200.0, ServerKind::kExt}};
  Testbed tb(config);
  std::size_t produced = 0;
  std::size_t lost_after_switch = 0;
  while (auto ex = tb.next()) {
    ++produced;
    EXPECT_FALSE(ex->truth.ta >= 10000.0 && ex->truth.ta < 12000.0);
    if (ex->lost && ex->truth.ta >= 43200.0) {
      ++lost_after_switch;
      EXPECT_EQ(ex->server_id, 2u)
          << "lost exchange must be attributed to the switched server";
    }
  }
  const auto slots = static_cast<std::size_t>(config.duration / 16.0);
  const auto outage_slots = static_cast<std::size_t>(2000.0 / 16.0);
  EXPECT_LE(produced, slots - outage_slots + 2);
  EXPECT_GE(produced, slots - outage_slots - 2);
  EXPECT_GT(lost_after_switch, 0u)
      << "expected ServerExt losses in half a day of polls";
}

TEST(Testbed, NamesForDisplay) {
  EXPECT_EQ(to_string(ServerKind::kLoc), "ServerLoc");
  EXPECT_EQ(to_string(ServerKind::kInt), "ServerInt");
  EXPECT_EQ(to_string(ServerKind::kExt), "ServerExt");
  EXPECT_EQ(to_string(Environment::kLaboratory), "laboratory");
  EXPECT_EQ(to_string(Environment::kMachineRoom), "machine-room");
}

}  // namespace
}  // namespace tscclock::sim
