// One-way delay measurement — the motivating application of the paper's
// *absolute* clock (§1, §2.2): measuring d→ between two hosts requires
// absolute time at both ends, and the error budget is dominated by clock
// offset, not by rate.
//
// Setup: two hosts, each with its own oscillator and its own TSC-NTP clock
// synchronized through its own NTP exchanges. Probe packets go from host A
// to host B over a separate path; the measured one-way delay is
//
//     d̂ = Ca_B(arrival counts at B) − Ca_A(departure counts at A)
//
// and is compared against the true simulated delay. With both clocks
// synchronized to ~30 µs, one-way delays of hundreds of µs are measured to
// within tens of µs — impossible with the SW-NTP clock's ms-scale errors.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/stats.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"

using namespace tscclock;

namespace {

/// A host: testbed (own oscillator + NTP path to its server) + a harness
/// session driving its own TSC-NTP clock one exchange at a time.
struct Host {
  Host(std::uint64_t seed, Seconds duration)
      : scenario(make_scenario(seed, duration)),
        testbed(scenario),
        session(make_config(scenario), testbed.nominal_period()),
        poll_times([this](const harness::SampleRecord& rec) {
          last_poll_time = rec.truth_ta;
        }) {
    session.add_sink(poll_times);
  }

  // The session holds a pointer to poll_times and the sink's lambda captures
  // `this`; a copy or move would leave them dangling.
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  static sim::ScenarioConfig make_scenario(std::uint64_t seed,
                                           Seconds duration) {
    sim::ScenarioConfig s;
    s.server = sim::ServerKind::kInt;
    s.duration = duration;
    s.seed = seed;
    return s;
  }
  static harness::SessionConfig make_config(const sim::ScenarioConfig& s) {
    harness::SessionConfig c;
    c.params.poll_period = s.poll_period;
    c.emit_unevaluated = true;  // poll instants matter even for lost replies
    return c;
  }

  /// Generate the next NTP exchange as a one-row batch and process it
  /// through the shared harness sequence. The oscillator is read in strictly
  /// increasing order, so probes must be interleaved *between* exchange
  /// windows (see main loop).
  bool step() {
    if (testbed.generate_batch(exchange, 1) == 0) return false;
    session.process_batch(exchange);
    return true;
  }

  /// Raw counter value at true time t (what a driver timestamp would read).
  TscCount stamp(Seconds t) { return testbed.oscillator().read(t); }

  [[nodiscard]] const core::TscNtpClock& clock() const {
    return session.clock();
  }

  Seconds last_poll_time = 0;

  sim::ScenarioConfig scenario;
  sim::Testbed testbed;
  harness::ClockSession session;
  harness::CallbackSink poll_times;
  sim::ExchangeBatch exchange;  ///< step()'s one-row batch
};

}  // namespace

int main() {
  const Seconds duration = 8 * duration::kHour;
  Host sender(101, duration);
  Host receiver(202, duration);

  // The probe path between the two hosts (independent of the NTP paths).
  sim::OneWayDelayConfig probe_config;
  probe_config.min_delay = 650e-6;
  probe_config.jitter_mean = 80e-6;
  probe_config.spike_prob = 0.05;
  sim::OneWayDelayModel probe_path(probe_config, Rng(303));

  // Warm both clocks up for two hours, then probe once per poll cycle,
  // midway between NTP exchanges (each host's counter is read in strictly
  // increasing order: NTP exchange i, then the probe, then exchange i+1).
  std::vector<double> measurement_errors;
  std::vector<double> true_delays;
  while (sender.step() && receiver.step()) {
    const Seconds t = std::max(sender.last_poll_time,
                               receiver.last_poll_time) + 8.0;
    if (t < 2 * duration::kHour) continue;  // warm-up

    const Seconds true_delay = probe_path.delay(t);
    const TscCount departure = sender.stamp(t);
    const TscCount arrival = receiver.stamp(t + true_delay);

    const Seconds measured = receiver.clock().absolute_time(arrival) -
                             sender.clock().absolute_time(departure);
    measurement_errors.push_back(measured - true_delay);
    true_delays.push_back(true_delay);
  }

  const auto err = summarize(measurement_errors);
  const auto dly = summarize(true_delays);
  std::printf("one-way delay measurement over %zu probes\n",
              measurement_errors.size());
  std::printf("  true delay     : min %.1f us, median %.1f us\n",
              dly.min * 1e6, dly.percentiles.p50 * 1e6);
  std::printf("  measured error : median %+.1f us, IQR %.1f us, "
              "p1..p99 [%+.1f, %+.1f] us\n",
              err.percentiles.p50 * 1e6, err.percentiles.iqr() * 1e6,
              err.percentiles.p01 * 1e6, err.percentiles.p99 * 1e6);
  std::printf("\nThe error is the *difference of two clock offsets*: each\n"
              "host contributes ~(its path asymmetry)/2 plus filtered noise.\n"
              "With the SW-NTP clock, ms-scale errors would exceed the\n"
              "one-way delay being measured (%.0f us) entirely.\n",
              dly.min * 1e6);
  return 0;
}
