// Fundamental identifier and time types shared by every module.
#ifndef FASTCONS_COMMON_TYPES_HPP
#define FASTCONS_COMMON_TYPES_HPP

#include <cstdint>
#include <limits>

namespace fastcons {

/// Index of a replica/node inside a topology. Dense, 0-based.
using NodeId = std::uint32_t;

/// A neighbour's dense local index at one node: 0..degree-1 in the order
/// the neighbour was registered (graph adjacency order, then overlay
/// bridges). Per-peer state lives in slot-indexed arrays, so the hot paths
/// never search by NodeId.
using PeerSlot = std::uint32_t;

/// Per-origin write sequence number; the first write of a node is seq 1 so
/// that 0 can mean "nothing seen from this origin".
using SeqNo = std::uint64_t;

/// Simulated time. The unit convention throughout the library follows the
/// paper: 1.0 == the mean anti-entropy session period of a single replica,
/// so measured propagation times are directly "numbers of sessions".
using SimTime = double;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
/// "Not a neighbour": the slot of a sender outside the neighbour set.
inline constexpr PeerSlot kNoSlot = std::numeric_limits<PeerSlot>::max();
inline constexpr SimTime kSimTimeInf = std::numeric_limits<SimTime>::infinity();

}  // namespace fastcons

#endif  // FASTCONS_COMMON_TYPES_HPP
