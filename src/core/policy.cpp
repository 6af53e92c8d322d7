#include "core/policy.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fastcons {

PeerSlot RandomPolicy::choose_slot(const DemandTable& table, SimTime now,
                                   Rng& rng, const PeerHealthTracker* health) {
  table.alive_slots(now, health, alive_);
  if (alive_.empty()) return kNoSlot;
  return alive_[rng.index(alive_.size())];
}

void DemandCyclePolicy::start_cycle(std::size_t degree) {
  visited_.assign(degree, 0);
}

PeerSlot DemandCyclePolicy::choose_slot(const DemandTable& table, SimTime now,
                                        Rng& /*rng*/,
                                        const PeerHealthTracker* health) {
  // The neighbour set only changes through add_overlay_neighbour, which
  // resets the policy; a size mismatch is a fresh (or reset) policy.
  if (visited_.size() != table.entries().size()) {
    start_cycle(table.entries().size());
    order_.clear();
  }
  if (resort_each_pick_) {
    // Dynamic: among alive neighbours not yet visited this cycle, take the
    // one with the highest *current* demand — the first unvisited entry of
    // the demand order, found by one scan instead of a sort. A fresh cycle
    // starts when all alive neighbours have been visited.
    table.alive_slots(now, health, order_);
    if (order_.empty()) return kNoSlot;
    PeerSlot best = kNoSlot;
    for (int attempt = 0; attempt < 2 && best == kNoSlot; ++attempt) {
      if (attempt == 1) start_cycle(visited_.size());  // cycle exhausted
      for (const PeerSlot slot : order_) {
        if (visited_[slot] != 0) continue;
        if (best == kNoSlot || table.ranks_before(slot, best, now, health)) {
          best = slot;
        }
      }
    }
    visited_[best] = 1;
    return best;
  }
  // Static: freeze the order when the cycle begins; walk it to the end even
  // if demand shifts underneath (the behaviour §3 criticises).
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (order_.empty()) {
      table.rank_slots(now, health, order_);
      start_cycle(visited_.size());
      if (order_.empty()) return kNoSlot;
    }
    for (const PeerSlot slot : order_) {
      if (visited_[slot] != 0) continue;
      visited_[slot] = 1;
      // Skip silently if the peer died after the order froze.
      if (!table.is_alive(table.entries()[slot], now)) continue;
      if (health != nullptr && health->enabled() &&
          health->slot_state(slot, now) == PeerHealth::down) {
        continue;
      }
      return slot;
    }
    order_.clear();  // cycle exhausted; refreeze next attempt
  }
  return kNoSlot;
}

void DemandCyclePolicy::reset() {
  visited_.clear();
  order_.clear();
}

std::unique_ptr<PartnerPolicy> make_policy(PartnerSelection selection) {
  switch (selection) {
    case PartnerSelection::uniform_random:
      return std::make_unique<RandomPolicy>();
    case PartnerSelection::demand_static:
      return std::make_unique<DemandCyclePolicy>(/*resort_each_pick=*/false);
    case PartnerSelection::demand_dynamic:
      return std::make_unique<DemandCyclePolicy>(/*resort_each_pick=*/true);
  }
  FASTCONS_ASSERT(false);
  return nullptr;
}

}  // namespace fastcons
