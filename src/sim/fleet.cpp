#include "sim/fleet.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace tscclock::sim {

namespace {

/// The shared-congestion schedule component: identical level-shift windows
/// injected into every client's EventSchedule. A pure function of the
/// scenario duration (which is part of the grid fingerprint), so the
/// coupling is reproducible without any extra descriptor state. Both deltas
/// are positive — a level shift displaces the path's delay floor, and delay
/// floors must stay positive.
std::vector<LevelShift> shared_congestion_plan(Seconds duration) {
  const Seconds window = std::max(600.0, duration / 48.0);
  std::vector<LevelShift> shifts;
  for (const double at : {0.25, 0.55, 0.80}) {
    LevelShift shift;
    shift.start = at * duration;
    shift.end = shift.start + window;
    shift.forward_delta = 1.5e-3;
    shift.backward_delta = 1.2e-3;
    shifts.push_back(shift);
  }
  return shifts;
}

/// Per-client private component: one asymmetric level shift (forward and
/// backward deltas differ) modelling this client's own last-mile routing,
/// derived from the client's identity seed so it rides shard/thread/merge
/// unchanged.
LevelShift private_asymmetry(std::uint64_t client_seed, Seconds duration) {
  Rng rng(splitmix64(client_seed ^ 0x70617468ull));  // "path"
  LevelShift shift;
  shift.start = rng.uniform(0.10, 0.85) * duration;
  shift.end = shift.start + std::max(300.0, duration / 96.0);
  shift.forward_delta = rng.uniform(0.2e-3, 0.8e-3);
  shift.backward_delta = rng.uniform(0.05e-3, 0.2e-3);
  return shift;
}

/// The residual error of the clock the bridge serves downstream, derived
/// from the *base* seed (the bridge's identity): every slave sees the same
/// bridge clock, whichever order their polls arrive in.
BridgeLink bridge_link_for(std::uint64_t base_seed, Seconds warmup) {
  Rng rng(splitmix64(base_seed ^ 0x627269646765ull));  // "bridge"
  BridgeLink link;
  link.start = warmup;
  link.offset = rng.uniform(-40e-6, 40e-6);
  link.skew = rng.uniform(-2e-8, 2e-8);
  return link;
}

}  // namespace

std::uint64_t FleetTestbed::client_seed(std::uint64_t base_seed,
                                        std::size_t k) {
  if (k == 0) return base_seed;  // the seed-identity contract
  return splitmix64(base_seed ^ fnv1a64("client" + std::to_string(k)));
}

FleetTestbed::FleetTestbed(const ScenarioConfig& base,
                           const FleetConfig& fleet)
    : fleet_(fleet) {
  TSC_EXPECTS(fleet.n_clients >= 1);
  TSC_EXPECTS(fleet.bridge_warmup >= 0.0);
  if (fleet_.shared_congestion)
    shared_windows_ = shared_congestion_plan(base.duration);

  for (std::size_t k = 0; k < fleet_.n_clients; ++k) {
    ScenarioConfig config = base;
    config.seed = client_seed(base.seed, k);
    // Append the correlated components to the *copied* base schedule: the
    // base events keep their positions, so a default fleet leaves the
    // schedule byte-identical to the single-client one.
    for (const auto& window : shared_windows_)
      config.events.add_level_shift(window);
    if (fleet_.shared_congestion)
      config.events.add_level_shift(
          private_asymmetry(config.seed, base.duration));

    std::optional<BridgeLink> bridge;
    if (fleet_.hierarchy && k > 0) {
      // Slave: attach to the bridge over a quiet local segment instead of
      // the configured pool, for the whole run (no server switches), and
      // receive the bridge's served clock at stratum 2.
      bridge = bridge_link_for(base.seed, fleet_.bridge_warmup);
      config.path_override = ScenarioConfig::path_preset(ServerKind::kLoc);
      ServerConfig served = ServerConfig{};
      served.stratum = 2;
      config.server_override = served;
      config.server_switches.clear();
    }
    clients_.push_back(std::make_unique<ClientNode>(
        config, static_cast<std::uint32_t>(k), bridge));
  }

  pending_.resize(clients_.size());
  for (std::size_t k = 0; k < clients_.size(); ++k) refill(k);
}

void FleetTestbed::refill(std::size_t k) {
  pending_[k].valid = clients_[k]->next_into(pending_[k].ex);
}

std::size_t FleetTestbed::best_pending() const {
  // k-way merge by send time: each client's truth.ta is strictly
  // increasing, so taking the minimum head yields a globally monotone
  // stream. Strict less-than keeps the lowest client id on ties.
  std::size_t best = pending_.size();
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    if (!pending_[k].valid) continue;
    if (best == pending_.size() ||
        pending_[k].ex.truth.ta < pending_[best].ex.truth.ta)
      best = k;
  }
  return best;
}

bool FleetTestbed::next_into(std::uint32_t& client, Exchange& out) {
  const std::size_t best = best_pending();
  if (best == pending_.size()) return false;
  out = pending_[best].ex;
  client = static_cast<std::uint32_t>(best);
  refill(best);
  return true;
}

std::size_t FleetTestbed::generate_batch(FleetBatch& out,
                                         std::size_t max_rows) {
  out.resize(max_rows);
  std::size_t rows = 0;
  while (rows < max_rows) {
    const std::size_t best = best_pending();
    if (best == pending_.size()) break;
    out.exchanges.store(rows, pending_[best].ex);
    out.client_id[rows] = static_cast<std::uint32_t>(best);
    refill(best);
    ++rows;
  }
  out.resize(rows);
  return rows;
}

void FleetTestbed::generate_until(std::size_t k, Seconds horizon,
                                  ExchangeBatch& out) {
  TSC_EXPECTS(k < pending_.size());
  while (pending_[k].valid && pending_[k].ex.truth.ta < horizon) {
    out.push(pending_[k].ex);
    refill(k);
  }
}

Seconds FleetTestbed::next_send_time(std::size_t k) const {
  TSC_EXPECTS(k < pending_.size());
  return pending_[k].valid ? pending_[k].ex.truth.ta
                           : std::numeric_limits<Seconds>::infinity();
}

std::uint64_t FleetTestbed::polls_enumerated() const {
  std::uint64_t total = 0;
  for (const auto& client : clients_) total += client->polls_enumerated();
  return total;
}

}  // namespace tscclock::sim
