// Span accounting for the benchmark's traced run.
//
// A span wraps one call from the benchmark into a layer of the library
// ("sim.generate", "core.robust", "harness.reduce", ...). Spans nest: a
// sink's on_batch runs inside the lane's process_batch, so the sink's span is
// a child of the lane's. A span's self time is its duration minus the part of
// it covered by its children, so the per-layer self times of one traced
// region never double count, and
//
//   wall time of the region = Σ self times + residual
//
// where the residual is everything the spans do not cover (drive-loop glue,
// object construction, the tracer's own overhead). account() reports that
// residual as measured — it is never clamped.
//
// Times come from an injectable Clock, so the arithmetic is unit-tested
// against a SimulatedClock (selftest.cpp) instead of a real one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotone time source in seconds.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual double now() = 0;
};

/// std::chrono::steady_clock in seconds.
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] double now() override;
};

/// A clock that only moves when told to (span-accounting tests).
class SimulatedClock final : public Clock {
 public:
  explicit SimulatedClock(double start = 0) : now_(start) {}
  [[nodiscard]] double now() override { return now_; }
  void advance(double seconds) { now_ += seconds; }

 private:
  double now_;
};

/// Aggregate of every closed span of one name.
struct SpanStats {
  std::uint64_t calls = 0;
  double total_s = 0;  ///< Σ durations
  double self_s = 0;   ///< Σ (duration − time covered by child spans)
};

/// Closes spans into per-name aggregates as they end; only the stack of
/// open spans is held in memory.
class SpanTracer {
 public:
  explicit SpanTracer(Clock& clock) : clock_(clock) {}
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Open a span as a child of the innermost open span. `name` must outlive
  /// the span (string literals in practice).
  void open(const char* name);
  /// Close the innermost open span.
  void close();

  /// RAII span.
  class Scope {
   public:
    Scope(SpanTracer& tracer, const char* name) : tracer_(tracer) {
      tracer_.open(name);
    }
    ~Scope() { tracer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTracer& tracer_;
  };

  /// Time one call as a span of `name`.
  template <typename F>
  decltype(auto) time(const char* name, F&& call) {
    Scope scope(*this, name);
    return std::forward<F>(call)();
  }

  /// Stats of `name` (all zero when no such span closed).
  [[nodiscard]] SpanStats stats(std::string_view name) const;
  /// Σ self time over every span name.
  [[nodiscard]] double self_total() const;
  [[nodiscard]] std::size_t open_spans() const { return stack_.size(); }

 private:
  struct Frame {
    const char* name;
    double start;
    double child_s;  ///< time covered by already-closed children
  };

  Clock& clock_;
  std::vector<Frame> stack_;
  std::map<std::string, SpanStats, std::less<>> stats_;
};

/// How a traced region's wall time splits into span self time and the
/// uncovered residual (wall − Σ self, reported unclamped).
struct Accounting {
  double wall_s = 0;
  double self_s = 0;
  double residual_s = 0;
};

[[nodiscard]] Accounting account(const SpanTracer& tracer, double wall_s);

}  // namespace perfbench
