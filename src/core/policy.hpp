// Anti-entropy partner-selection policies. The policy object owns the cycle
// state (which neighbours have been visited since the cycle began), so the
// engine stays oblivious to selection details.
#ifndef FASTCONS_CORE_POLICY_HPP
#define FASTCONS_CORE_POLICY_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "demand/demand_table.hpp"

namespace fastcons {

/// Strategy interface: pick the partner for the next anti-entropy session.
class PartnerPolicy {
 public:
  virtual ~PartnerPolicy() = default;

  /// Returns the chosen neighbour's slot in `table`, or kNoSlot when none
  /// is eligible (e.g. all neighbours dead). `health`, when non-null,
  /// excludes peers the tracker derives `down` and decays suspect peers'
  /// demand in the selection order; nullptr is health-blind (the historical
  /// behaviour). `health` is indexed by the table's slots.
  virtual PeerSlot choose_slot(const DemandTable& table, SimTime now, Rng& rng,
                               const PeerHealthTracker* health) = 0;

  /// The chosen neighbour's id, or kInvalidNode when none is eligible.
  NodeId choose(const DemandTable& table, SimTime now, Rng& rng,
                const PeerHealthTracker* health) {
    const PeerSlot slot = choose_slot(table, now, rng, health);
    return slot == kNoSlot ? kInvalidNode : table.entries()[slot].peer;
  }

  /// Health-blind convenience overload.
  NodeId choose(const DemandTable& table, SimTime now, Rng& rng) {
    return choose(table, now, rng, nullptr);
  }

  /// Forgets cycle state (used when the neighbour set changes).
  virtual void reset() {}
};

/// Golding's baseline: uniformly random alive neighbour, with replacement.
class RandomPolicy final : public PartnerPolicy {
 public:
  PeerSlot choose_slot(const DemandTable& table, SimTime now, Rng& rng,
                       const PeerHealthTracker* health) override;

 private:
  std::vector<PeerSlot> alive_;  // reused per pick
};

/// Demand-ordered cycle without replacement (paper §2 static / §4 dynamic).
///
/// resort_each_pick == false: the order is frozen from the demand table at
/// the moment a cycle starts — §3's static algorithm, which mis-routes when
/// demand shifts mid-cycle.
/// resort_each_pick == true: the highest-demand *currently alive, not yet
/// visited* neighbour is recomputed at every pick — §4's dynamic algorithm
/// (picks C' over A' in Fig. 4).
class DemandCyclePolicy final : public PartnerPolicy {
 public:
  explicit DemandCyclePolicy(bool resort_each_pick)
      : resort_each_pick_(resort_each_pick) {}

  PeerSlot choose_slot(const DemandTable& table, SimTime now, Rng& rng,
                       const PeerHealthTracker* health) override;
  void reset() override;

 private:
  /// Marks every slot unvisited, sized to the table's current degree.
  void start_cycle(std::size_t degree);

  bool resort_each_pick_;
  std::vector<std::uint8_t> visited_;  // by slot
  // Dynamic: the alive slots at this pick (a reused buffer). Static: the
  // demand order frozen when the cycle began.
  std::vector<PeerSlot> order_;
};

/// Factory keyed by the configuration enum.
std::unique_ptr<PartnerPolicy> make_policy(PartnerSelection selection);

}  // namespace fastcons

#endif  // FASTCONS_CORE_POLICY_HPP
