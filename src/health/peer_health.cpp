#include "health/peer_health.hpp"

#include <algorithm>

namespace fastcons {

std::string_view peer_health_name(PeerHealth s) noexcept {
  switch (s) {
    case PeerHealth::up: return "up";
    case PeerHealth::suspect: return "suspect";
    case PeerHealth::down: return "down";
  }
  return "?";
}

PeerHealthTracker::PeerHealthTracker(const std::vector<NodeId>& peers,
                                     const HealthConfig& config, SimTime now) {
  reset(peers, config, now);
}

void PeerHealthTracker::reset(const std::vector<NodeId>& peers,
                              const HealthConfig& config, SimTime now) {
  reset(config);
  entries_.reserve(peers.size());
  for (const NodeId peer : peers) add_peer(peer, now);
}

void PeerHealthTracker::reset(const HealthConfig& config) {
  config_ = config;
  entries_.clear();
  recoveries_ = 0;
}

void PeerHealthTracker::add_peer(NodeId peer, SimTime now) {
  if (slot_of(peer) != kNoSlot) return;
  entries_.push_back(Entry{peer, now, 0.0, 0});
}

PeerSlot PeerHealthTracker::slot_of(NodeId peer) const noexcept {
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    if (entries_[s].peer == peer) return static_cast<PeerSlot>(s);
  }
  return kNoSlot;
}

const PeerHealthTracker::Entry* PeerHealthTracker::find(NodeId peer) const {
  const PeerSlot slot = slot_of(peer);
  return slot == kNoSlot ? nullptr : &entries_[slot];
}

PeerHealth PeerHealthTracker::derive(const Entry& entry,
                                     SimTime now) const noexcept {
  if (!config_.enabled) return PeerHealth::up;
  const SimTime silence = now - entry.last_heard;
  if (config_.down_after > 0.0 && silence >= config_.down_after) {
    return PeerHealth::down;
  }
  if (config_.suspect_after > 0.0 && silence >= config_.suspect_after) {
    return PeerHealth::suspect;
  }
  if (config_.failure_threshold > 0 &&
      entry.failures >= config_.failure_threshold) {
    return PeerHealth::suspect;
  }
  return PeerHealth::up;
}

SimTime PeerHealthTracker::derive_suspect_since(const Entry& entry,
                                                SimTime now) const noexcept {
  if (derive(entry, now) == PeerHealth::up) return 0.0;
  SimTime since = now;
  if (config_.suspect_after > 0.0 &&
      now - entry.last_heard >= config_.suspect_after) {
    since = std::min(since, entry.last_heard + config_.suspect_after);
  }
  if (config_.failure_threshold > 0 &&
      entry.failures >= config_.failure_threshold) {
    since = std::min(since, entry.first_failure);
  }
  return since;
}

PeerHealth PeerHealthTracker::record_contact(NodeId peer, SimTime now) {
  const PeerSlot slot = slot_of(peer);
  if (slot == kNoSlot) return PeerHealth::up;
  return record_slot_contact(slot, now);
}

PeerHealth PeerHealthTracker::record_slot_contact(PeerSlot slot, SimTime now) {
  Entry& entry = entries_[slot];
  const PeerHealth before = derive(entry, now);
  entry.last_heard = now;
  entry.failures = 0;
  entry.first_failure = 0.0;
  if (before == PeerHealth::down) ++recoveries_;
  return before;
}

void PeerHealthTracker::record_failure(NodeId peer, SimTime now) {
  const PeerSlot slot = slot_of(peer);
  if (slot == kNoSlot) return;
  Entry& entry = entries_[slot];
  if (entry.failures == 0) entry.first_failure = now;
  ++entry.failures;
}

PeerHealth PeerHealthTracker::state(NodeId peer, SimTime now) const {
  const Entry* entry = find(peer);
  if (entry == nullptr) return PeerHealth::up;
  return derive(*entry, now);
}

double PeerHealthTracker::demand_factor(NodeId peer, SimTime now) const {
  const PeerSlot slot = slot_of(peer);
  return slot == kNoSlot ? 1.0 : slot_demand_factor(slot, now);
}

double PeerHealthTracker::slot_demand_factor(PeerSlot slot, SimTime now) const {
  switch (slot_state(slot, now)) {
    case PeerHealth::up: return 1.0;
    case PeerHealth::suspect: return config_.suspect_demand_factor;
    case PeerHealth::down: return 0.0;
  }
  return 1.0;
}

PeerHealthView PeerHealthTracker::view(NodeId peer, SimTime now) const {
  PeerHealthView v;
  v.peer = peer;
  const Entry* entry = find(peer);
  if (entry == nullptr) return v;
  v.state = derive(*entry, now);
  v.last_heard = entry->last_heard;
  v.suspect_since = derive_suspect_since(*entry, now);
  v.consecutive_failures = entry->failures;
  return v;
}

std::vector<PeerHealthView> PeerHealthTracker::views(SimTime now) const {
  std::vector<PeerHealthView> all;
  all.reserve(entries_.size());
  for (const Entry& entry : entries_) all.push_back(view(entry.peer, now));
  std::sort(all.begin(), all.end(),
            [](const PeerHealthView& a, const PeerHealthView& b) {
              return a.peer < b.peer;
            });
  return all;
}

bool PeerHealthTracker::all_up(SimTime now) const {
  return std::all_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
    return derive(e, now) == PeerHealth::up;
  });
}

}  // namespace fastcons
