// The per-replica neighbour demand table of paper §4: "Each replica
// maintains a table with its neighbours' data. The table holds at least an
// identifying name and its demand. Before any replication process is
// carried out, this table must be updated... as an added advantage, tells us
// if this replica is available."
//
// Entries are refreshed by DemandAdvert messages; an entry older than the
// liveness window marks the neighbour unreachable and partner policies skip
// it.
#ifndef FASTCONS_DEMAND_DEMAND_TABLE_HPP
#define FASTCONS_DEMAND_DEMAND_TABLE_HPP

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "health/peer_health.hpp"

namespace fastcons {

/// One neighbour's last-advertised state.
struct DemandEntry {
  NodeId peer = kInvalidNode;  ///< neighbour id
  double demand = 0.0;         ///< last advertised demand
  SimTime last_heard = 0.0;    ///< when we last received anything from it
  SimTime last_probed = 0.0;  ///< last revival probe sent while presumed dead
};

/// Neighbour demand table with staleness-based liveness.
///
/// Entries are indexed by PeerSlot: entries()[s] is the neighbour
/// registered s-th. The NodeId overloads resolve the slot with one scan of
/// the (degree-sized) entry array; the engine's per-message path already
/// knows the slot and indexes directly.
class DemandTable {
 public:
  /// `liveness_window`: a neighbour not heard from for longer than this is
  /// reported unreachable; <= 0 disables liveness tracking (every neighbour
  /// always considered alive), which matches the static model of §2.
  explicit DemandTable(std::vector<NodeId> neighbours,
                       SimTime liveness_window = 0.0);

  /// Reinitialises as if freshly constructed with these arguments, but
  /// reusing the entry storage — the pooled-engine reset path.
  void reset(const std::vector<NodeId>& neighbours, SimTime liveness_window);

  /// Slot of `peer`, or kNoSlot when `peer` is not a neighbour.
  PeerSlot slot_of(NodeId peer) const noexcept;

  /// Records an advert (or any message doubling as one) from `peer`.
  /// Unknown peers are ignored (overlay churn can race with adverts).
  void update(NodeId peer, double demand, SimTime now);
  void update_slot(PeerSlot slot, double demand, SimTime now) noexcept {
    entries_[slot].demand = demand;
    entries_[slot].last_heard = now;
  }

  /// Refreshes liveness only (any received message proves the link and the
  /// server are up, even if it carries no demand figure).
  void touch(NodeId peer, SimTime now);
  void touch_slot(PeerSlot slot, SimTime now) noexcept {
    entries_[slot].last_heard = now;
  }

  /// Demand of `peer` as last advertised; nullopt if `peer` is not a
  /// neighbour.
  std::optional<double> demand_of(NodeId peer) const;

  bool is_alive(NodeId peer, SimTime now) const;

  /// Same check without the slot lookup, for callers already holding the
  /// entry (the advert broadcast iterates entries() directly).
  bool is_alive(const DemandEntry& entry, SimTime now) const noexcept;

  /// Picks the dead neighbour least recently probed, stamps it probed at
  /// `now`, and returns it; kInvalidNode when every neighbour is alive.
  /// Liveness is only ever refreshed by *receiving* traffic, so without a
  /// periodic probe two mutually-expired peers would stay dark forever.
  NodeId next_dead_probe(SimTime now);

  /// Neighbours sorted by decreasing demand (ties broken by ascending id so
  /// the order is total and deterministic), dead neighbours excluded.
  std::vector<NodeId> by_demand_desc(SimTime now) const;

  /// Health-aware variant: `health == nullptr` is exactly the plain
  /// overload. Otherwise peers the tracker derives `down` are excluded and
  /// the sort key becomes demand * health demand_factor, so suspect peers'
  /// demand *decays* in selection order instead of vanishing outright.
  /// `health` is indexed by this table's slots: its peers must have been
  /// added in the same order (the engine registers both together).
  std::vector<NodeId> by_demand_desc(SimTime now,
                                     const PeerHealthTracker* health) const;

  /// The same order as slots, written into `order` (cleared first) so
  /// per-pick callers reuse one buffer.
  void rank_slots(SimTime now, const PeerHealthTracker* health,
                  std::vector<PeerSlot>& order) const;

  /// The strict total order rank_slots sorts by: true when slot `a` ranks
  /// ahead of slot `b` (higher effective demand, then lower id). Callers
  /// that need only the top of the order scan with it instead of sorting.
  bool ranks_before(PeerSlot a, PeerSlot b, SimTime now,
                    const PeerHealthTracker* health) const;

  /// Alive neighbours in registration order.
  std::vector<NodeId> alive(SimTime now) const;

  /// Health-aware variant: additionally excludes peers derived `down`
  /// (nullptr == plain overload; same slot contract as by_demand_desc).
  std::vector<NodeId> alive(SimTime now,
                            const PeerHealthTracker* health) const;

  /// The same set as slots, written into `out` (cleared first).
  void alive_slots(SimTime now, const PeerHealthTracker* health,
                   std::vector<PeerSlot>& out) const;

  /// All entries in neighbour registration order: entries()[slot].
  const std::vector<DemandEntry>& entries() const noexcept { return entries_; }

  /// Adds a neighbour discovered after construction (island bridges) at
  /// the next slot. No-op if already present.
  void add_neighbour(NodeId peer, SimTime now);

 private:
  std::vector<DemandEntry> entries_;
  SimTime liveness_window_;
};

}  // namespace fastcons

#endif  // FASTCONS_DEMAND_DEMAND_TABLE_HPP
