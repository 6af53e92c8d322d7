// Protocol messages. One variant covers the whole protocol so runtimes and
// the wire codec can treat traffic uniformly.
//
// Anti-entropy (paper §2.1 steps 1-12) uses four messages:
//   SessionRequest -> SessionSummary -> SessionPush -> SessionReply
// Fast update (steps 13-18) uses three, and deliberately carries no summary
// vectors ("Note that in fast update sessions the summary vectors are not
// exchanged"):
//   FastOffer (ids + timestamps) -> FastAck (YES/NO or wanted subset)
//   -> FastData (payloads)
// DemandAdvert is the periodic neighbour-table refresh of §4.
#ifndef FASTCONS_CORE_MESSAGES_HPP
#define FASTCONS_CORE_MESSAGES_HPP

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "replication/summary_vector.hpp"
#include "replication/update.hpp"
#include "stats/counters.hpp"

namespace fastcons {

/// Step 2: "a message to request for initiate a session".
struct SessionRequest {
  std::uint64_t session_id = 0;
};

/// Step 4: the responder's summary vector.
struct SessionSummary {
  std::uint64_t session_id = 0;
  SummaryVector summary;
};

/// Steps 6+8 fused: the initiator's summary plus the updates the responder
/// lacks (computable locally once the responder's summary arrived).
struct SessionPush {
  std::uint64_t session_id = 0;
  SummaryVector summary;
  std::vector<Update> updates;
};

/// Step 11: updates the initiator lacks; closes the session.
struct SessionReply {
  std::uint64_t session_id = 0;
  std::vector<Update> updates;
};

/// One entry of a fast-update offer: "information (id and timestamp) of new
/// arrived messages" (step 13).
struct OfferedId {
  UpdateId id;
  SimTime timestamp = 0.0;

  friend bool operator==(const OfferedId&, const OfferedId&) = default;
};

struct FastOffer {
  std::uint64_t offer_id = 0;
  std::vector<OfferedId> offered;
};

/// Step 15: "If D does not have the messages, answer with YES." In strict
/// paper mode `wanted` stays empty and `yes` alone drives the reply; in
/// subset mode `wanted` lists exactly the missing ids.
struct FastAck {
  std::uint64_t offer_id = 0;
  bool yes = false;
  std::vector<UpdateId> wanted;
};

/// Step 17: the payloads.
struct FastData {
  std::uint64_t offer_id = 0;
  std::vector<Update> updates;
};

/// §4: periodic demand/liveness advert, "in a way similar to IP routing
/// algorithms".
struct DemandAdvert {
  double demand = 0.0;
};

using Message = std::variant<SessionRequest, SessionSummary, SessionPush,
                             SessionReply, FastOffer, FastAck, FastData,
                             DemandAdvert>;

/// Human-readable message name (logging / traces).
std::string_view message_name(const Message& msg) noexcept;

/// Traffic class for overhead accounting (experiment E8).
TrafficClass traffic_class_of(const Message& msg) noexcept;

/// Size in bytes this message occupies on the wire. Mirrors the net/wire
/// codec exactly; a test asserts the two never drift apart. Core-side code
/// (engines, simulations) uses this so byte accounting works without
/// linking the real codec.
std::size_t estimated_wire_size(const Message& msg) noexcept;

/// A message queued for transmission by an engine.
struct Outbound {
  NodeId to = kInvalidNode;
  /// The sender's slot for `to`, or kNoSlot when `to` is not one of its
  /// neighbours (a reply to an unknown sender). Slot-addressed runtimes
  /// route by it; the TCP server routes by `to`.
  PeerSlot slot = kNoSlot;
  Message msg;
};

}  // namespace fastcons

#endif  // FASTCONS_CORE_MESSAGES_HPP
