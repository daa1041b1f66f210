#include "spans.hpp"

#include <chrono>
#include <stdexcept>

namespace perfbench {

double SteadyClock::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanTracer::open(const char* name) {
  stack_.push_back(Frame{name, clock_.now(), 0.0});
}

void SpanTracer::close() {
  if (stack_.empty())
    throw std::logic_error("SpanTracer::close without an open span");
  const double end = clock_.now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double duration = end - frame.start;
  auto it = stats_.find(std::string_view(frame.name));
  if (it == stats_.end()) it = stats_.emplace(frame.name, SpanStats{}).first;
  ++it->second.calls;
  it->second.total_s += duration;
  it->second.self_s += duration - frame.child_s;
  if (!stack_.empty()) stack_.back().child_s += duration;
}

SpanStats SpanTracer::stats(std::string_view name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? SpanStats{} : it->second;
}

double SpanTracer::self_total() const {
  double total = 0;
  for (const auto& entry : stats_) total += entry.second.self_s;
  return total;
}

Accounting account(const SpanTracer& tracer, double wall_s) {
  Accounting accounting;
  accounting.wall_s = wall_s;
  accounting.self_s = tracer.self_total();
  accounting.residual_s = wall_s - accounting.self_s;
  return accounting;
}

}  // namespace perfbench
