#include "demand/demand_table.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fastcons {

DemandTable::DemandTable(std::vector<NodeId> neighbours,
                         SimTime liveness_window)
    : liveness_window_(liveness_window) {
  entries_.reserve(neighbours.size());
  for (const NodeId peer : neighbours) {
    add_neighbour(peer, 0.0);
  }
}

void DemandTable::reset(const std::vector<NodeId>& neighbours,
                        SimTime liveness_window) {
  liveness_window_ = liveness_window;
  entries_.clear();
  for (const NodeId peer : neighbours) {
    add_neighbour(peer, 0.0);
  }
}

PeerSlot DemandTable::slot_of(NodeId peer) const noexcept {
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    if (entries_[s].peer == peer) return static_cast<PeerSlot>(s);
  }
  return kNoSlot;
}

void DemandTable::update(NodeId peer, double demand, SimTime now) {
  const PeerSlot slot = slot_of(peer);
  if (slot != kNoSlot) update_slot(slot, demand, now);
}

void DemandTable::touch(NodeId peer, SimTime now) {
  const PeerSlot slot = slot_of(peer);
  if (slot != kNoSlot) touch_slot(slot, now);
}

std::optional<double> DemandTable::demand_of(NodeId peer) const {
  const PeerSlot slot = slot_of(peer);
  if (slot == kNoSlot) return std::nullopt;
  return entries_[slot].demand;
}

bool DemandTable::is_alive(NodeId peer, SimTime now) const {
  const PeerSlot slot = slot_of(peer);
  if (slot == kNoSlot) return false;
  return is_alive(entries_[slot], now);
}

bool DemandTable::is_alive(const DemandEntry& entry,
                           SimTime now) const noexcept {
  if (liveness_window_ <= 0.0) return true;
  return now - entry.last_heard <= liveness_window_;
}

NodeId DemandTable::next_dead_probe(SimTime now) {
  DemandEntry* oldest = nullptr;
  for (auto& entry : entries_) {
    if (is_alive(entry, now)) continue;
    if (oldest == nullptr || entry.last_probed < oldest->last_probed ||
        (entry.last_probed == oldest->last_probed &&
         entry.peer < oldest->peer)) {
      oldest = &entry;
    }
  }
  if (oldest == nullptr) return kInvalidNode;
  oldest->last_probed = now;
  return oldest->peer;
}

std::vector<NodeId> DemandTable::by_demand_desc(SimTime now) const {
  return by_demand_desc(now, nullptr);
}

std::vector<NodeId> DemandTable::by_demand_desc(
    SimTime now, const PeerHealthTracker* health) const {
  std::vector<PeerSlot> order;
  rank_slots(now, health, order);
  std::vector<NodeId> peers;
  peers.reserve(order.size());
  for (const PeerSlot slot : order) peers.push_back(entries_[slot].peer);
  return peers;
}

void DemandTable::rank_slots(SimTime now, const PeerHealthTracker* health,
                             std::vector<PeerSlot>& order) const {
  alive_slots(now, health, order);
  std::sort(order.begin(), order.end(), [&](PeerSlot a, PeerSlot b) {
    return ranks_before(a, b, now, health);
  });
}

bool DemandTable::ranks_before(PeerSlot a, PeerSlot b, SimTime now,
                               const PeerHealthTracker* health) const {
  // Health decays a suspect peer's demand (down peers never reach here:
  // alive_slots excludes them); without health the key is the raw
  // advertised demand.
  double da = entries_[a].demand;
  double db = entries_[b].demand;
  if (health != nullptr && health->enabled()) {
    da *= health->slot_demand_factor(a, now);
    db *= health->slot_demand_factor(b, now);
  }
  if (da != db) return da > db;
  return entries_[a].peer < entries_[b].peer;
}

std::vector<NodeId> DemandTable::alive(SimTime now) const {
  return alive(now, nullptr);
}

std::vector<NodeId> DemandTable::alive(SimTime now,
                                       const PeerHealthTracker* health) const {
  std::vector<PeerSlot> slots;
  alive_slots(now, health, slots);
  std::vector<NodeId> result;
  result.reserve(slots.size());
  for (const PeerSlot slot : slots) result.push_back(entries_[slot].peer);
  return result;
}

void DemandTable::alive_slots(SimTime now, const PeerHealthTracker* health,
                              std::vector<PeerSlot>& out) const {
  const bool use_health = health != nullptr && health->enabled();
  FASTCONS_EXPECTS(!use_health || health->size() == entries_.size());
  out.clear();
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    const auto slot = static_cast<PeerSlot>(s);
    if (!is_alive(entries_[s], now)) continue;
    if (use_health && health->slot_state(slot, now) == PeerHealth::down) {
      continue;
    }
    out.push_back(slot);
  }
}

void DemandTable::add_neighbour(NodeId peer, SimTime now) {
  if (slot_of(peer) != kNoSlot) return;
  entries_.push_back(DemandEntry{peer, 0.0, now});
}

}  // namespace fastcons
