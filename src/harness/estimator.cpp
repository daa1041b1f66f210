#include "harness/estimator.hpp"

#include "common/contracts.hpp"
#include "common/table.hpp"
#include "core/naive.hpp"
#include "harness/estimator_spec.hpp"

namespace tscclock::harness {

// -- SwNtpEstimator --------------------------------------------------------

SwNtpEstimator::SwNtpEstimator(const baseline::PllConfig& config,
                               double nominal_period)
    : sw_(config, nominal_period),
      nominal_period_(nominal_period),
      uncorrected_(0, 0.0, nominal_period) {
  TSC_EXPECTS(nominal_period > 0.0);
}

core::ProcessReport SwNtpEstimator::process_exchange(
    const core::RawExchange& exchange) {
  if (!initialized_) {
    // Same origin convention as TscNtpClock: C starts on the server midpoint
    // of the first exchange, so θg traces of different estimators on one
    // stream are directly comparable.
    const Seconds host_half_rtt =
        0.5 * delta_to_seconds(exchange.rtt_counts(), nominal_period_);
    const Seconds server_mid = 0.5 * (exchange.tb + exchange.te);
    uncorrected_ = CounterTimescale(exchange.tf, server_mid + host_half_rtt,
                                    nominal_period_);
    initialized_ = true;
  }
  sw_.process_exchange(exchange);

  core::ProcessReport report;
  // θ̂(t) = C(t) − Ca(t): the total correction the discipline currently
  // applies, in the same host−server convention as the robust clock.
  report.offset_estimate =
      uncorrected_.read(exchange.tf) - sw_.time(exchange.tf);
  // Per-packet view: the PLL's raw offset sample (server − client) mapped
  // into the same convention.
  report.naive_offset =
      report.offset_estimate - sw_.status().last_offset_sample;
  return report;
}

Seconds SwNtpEstimator::uncorrected_time(TscCount count) const {
  TSC_EXPECTS(initialized_);
  return uncorrected_.read(count);
}

Seconds SwNtpEstimator::absolute_time(TscCount count) const {
  TSC_EXPECTS(initialized_);
  return sw_.time(count);
}

double SwNtpEstimator::period() const {
  // The deliberately-varied disciplined rate (base frequency term + any
  // active slew), expressed as a period so rate-wobble analyses treat every
  // estimator uniformly.
  return nominal_period_ * sw_.effective_rate();
}

core::ClockStatus SwNtpEstimator::status() const {
  const auto sw_status = sw_.status();
  core::ClockStatus s;
  s.packets_processed = sw_status.samples;
  s.warmed_up = initialized_;
  s.period = period();
  s.offset = sw_status.last_offset_sample;
  return s;
}

// -- NaiveEstimator --------------------------------------------------------

NaiveEstimator::NaiveEstimator(double nominal_period)
    : timescale_(0, 0.0, nominal_period) {
  TSC_EXPECTS(nominal_period > 0.0);
}

core::ProcessReport NaiveEstimator::process_exchange(
    const core::RawExchange& exchange) {
  core::ProcessReport report;
  if (!first_) {
    const Seconds host_half_rtt =
        0.5 * delta_to_seconds(exchange.rtt_counts(), timescale_.period());
    const Seconds server_mid = 0.5 * (exchange.tb + exchange.te);
    timescale_ = CounterTimescale(exchange.tf, server_mid + host_half_rtt,
                                  timescale_.period());
    first_ = exchange;
  } else {
    // Widening-baseline naive rate (eq. 17): first exchange to current one.
    // The period update preserves the reading at Tf, so C stays continuous
    // and usable as the θg alignment timebase.
    const double period =
        core::naive_rate(*first_, exchange).combined;
    timescale_.set_period_preserving_reading(exchange.tf, period);
    report.rate_accepted = true;
    report.rate_updated = true;
  }
  current_offset_ = core::naive_offset(exchange, timescale_);
  report.naive_offset = current_offset_;
  report.offset_estimate = current_offset_;
  ++packets_;
  return report;
}

Seconds NaiveEstimator::uncorrected_time(TscCount count) const {
  TSC_EXPECTS(packets_ > 0);
  return timescale_.read(count);
}

Seconds NaiveEstimator::absolute_time(TscCount count) const {
  TSC_EXPECTS(packets_ > 0);
  return timescale_.read(count) - current_offset_;
}

core::ClockStatus NaiveEstimator::status() const {
  core::ClockStatus s;
  s.packets_processed = packets_;
  s.warmed_up = warmed_up();
  s.period = timescale_.period();
  s.offset = current_offset_;
  return s;
}

// -- Registry entries (online families) ------------------------------------

void detail::register_builtin_online_estimators(EstimatorRegistry& registry) {
  {
    EstimatorRegistry::Family robust;
    robust.name = "robust";
    robust.order = 10;
    robust.description =
        "robust TSC-NTP clock (paper §6: RTT filter, decoupled rate/offset, "
        "level shifts, sanity checks)";
    robust.tunables = {
        TunableSpec::boolean(
            "use_local_rate", "1",
            "eq. (21)/(23) linear prediction from the quasi-local rate"),
        TunableSpec::boolean(
            "enable_weighting", "1",
            "stage (ii)-(iii) weighted offset window (0: last-good-packet)"),
        TunableSpec::boolean("enable_aging", "1",
                             "point-error aging (the epsilon term of E^T)"),
        TunableSpec::boolean("enable_offset_sanity", "1",
                             "stage (iv) offset sanity check of §5.3"),
        TunableSpec::boolean("enable_rate_sanity", "1",
                             "local-rate sanity check"),
        TunableSpec::boolean("enable_level_shift", "1",
                             "§6.2 upward level-shift detection"),
        TunableSpec::number(
            "poll_period", "0",
            "poll period [s] the windows are sized for (0: the scenario's "
            "own poll period) - the Fig. 9(c) mis-sizing ablation",
            0.0),
    };
    // The session's base Params keep the paper's window lengths, so a poll
    // period is checked against those: a tiny one would overflow the
    // window packet counts.
    robust.check = [](const ResolvedSpec& spec) -> std::string {
      if (!spec.is_overridden("poll_period")) return {};
      core::Params params;
      params.poll_period = spec.get_double("poll_period");
      if (params.window_counts_fit()) return {};
      return "poll_period " + strfmt("%g", params.poll_period) +
             " is too small: the default windows would exceed " +
             strfmt("%.0f", core::Params::kMaxWindowPackets) + " packets";
    };
    // Only overridden keys are applied on top of the session's base Params:
    // a bare `robust` spec is bit-identical to constructing TscNtpEstimator
    // directly, and elided defaults mean "inherit".
    robust.make_online = [](const ResolvedSpec& spec,
                            const core::Params& base, double nominal_period) {
      core::Params params = base;
      if (spec.is_overridden("poll_period"))
        params.poll_period = spec.get_double("poll_period");
      if (spec.is_overridden("use_local_rate"))
        params.use_local_rate = spec.get_bool("use_local_rate");
      if (spec.is_overridden("enable_weighting"))
        params.enable_weighting = spec.get_bool("enable_weighting");
      if (spec.is_overridden("enable_aging"))
        params.enable_aging = spec.get_bool("enable_aging");
      if (spec.is_overridden("enable_offset_sanity"))
        params.enable_offset_sanity = spec.get_bool("enable_offset_sanity");
      if (spec.is_overridden("enable_rate_sanity"))
        params.enable_rate_sanity = spec.get_bool("enable_rate_sanity");
      if (spec.is_overridden("enable_level_shift"))
        params.enable_level_shift = spec.get_bool("enable_level_shift");
      params.validate();
      return std::make_unique<TscNtpEstimator>(params, nominal_period);
    };
    registry.register_family(std::move(robust));
  }
  {
    EstimatorRegistry::Family swntp;
    swntp.name = "swntp";
    swntp.order = 20;
    swntp.description =
        "ntpd-style SW clock (clock filter + PLL discipline, steps and slews "
        "— the §1 baseline)";
    swntp.tunables = {
        TunableSpec::number(
            "step_threshold", "0.128",
            "STEPT [s]: step instead of slewing beyond this offset", 0.0,
            /*min_exclusive=*/true),
        TunableSpec::number(
            "stepout", "900",
            "WATCH [s]: spike tolerance before a step is allowed", 0.0,
            /*min_exclusive=*/true),
    };
    swntp.make_online = [](const ResolvedSpec& spec, const core::Params&,
                           double nominal_period) {
      baseline::PllConfig config;
      if (spec.is_overridden("step_threshold"))
        config.step_threshold = spec.get_double("step_threshold");
      if (spec.is_overridden("stepout"))
        config.stepout = spec.get_double("stepout");
      return std::make_unique<SwNtpEstimator>(config, nominal_period);
    };
    registry.register_family(std::move(swntp));
  }
  {
    EstimatorRegistry::Family naive;
    naive.name = "naive";
    naive.order = 30;
    naive.description =
        "naive per-packet estimates (§4: unfiltered offset over the "
        "widening-baseline naive rate)";
    naive.make_online = [](const ResolvedSpec&, const core::Params&,
                           double nominal_period) {
      return std::make_unique<NaiveEstimator>(nominal_period);
    };
    registry.register_family(std::move(naive));
  }
}

}  // namespace tscclock::harness
