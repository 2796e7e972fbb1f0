#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"

/// The structured event vocabulary of the simulation stack.
///
/// Every per-slot phenomenon the paper reasons about -- transmissions,
/// receptions, the predictable collisions, scheduled relay activations --
/// plus the extension semantics (fault losses, pipeline deferrals) maps to
/// exactly one event kind.  Events are small 24-byte PODs and recording
/// one is a couple of stores; the sink's ring grows on demand
/// (obs/event_sink.h), so a run pays for the events it records, not for
/// the ring's million-event capacity.  The simulator emits events only
/// when an Observer is installed (sim/simulator.h), so the uninstrumented
/// hot path stays untouched.
///
/// The schema is versioned: exporters (obs/export.h) stamp
/// `kEventSchemaVersion` into their headers so downstream tooling can
/// reject traces it does not understand instead of misparsing them.
namespace wsn {

inline constexpr int kEventSchemaVersion = 1;

enum class EventKind : std::uint8_t {
  kTx = 0,            // node transmitted the packet this slot
  kRx,                // first successful reception at node (from peer)
  kDuplicate,         // successful decode of an already-held packet
  kCollision,         // >= 2 neighbors transmitted; detail = contenders
  kLossFading,        // fault model dropped the link packet (peer -> node)
  kLossCrash,         // crash destroyed deliveries; detail = links lost
  kRelayActivation,   // node's relay schedule armed; detail = #offsets
  kPipelineDefer,     // node deferred a younger packet to the next slot
};

inline constexpr std::size_t kEventKindCount = 8;

/// Stable short name used by every exporter ("tx", "rx", "dup", "coll",
/// "fade", "crash", "relay_on", "defer").
[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// Inverse of to_string, for trace re-readers (obs/audit).  Returns false
/// when `name` is not one of the stable short names.
[[nodiscard]] bool event_kind_from_string(std::string_view name,
                                          EventKind& out) noexcept;

struct Event {
  Slot slot = 0;
  EventKind kind = EventKind::kTx;
  /// Where the event happened (receiver for rx/dup/coll/fade, transmitter
  /// for tx/crash, the deferring relay for defer).
  NodeId node = kInvalidNode;
  /// The transmitter heard/lost, when one is attributable.
  NodeId peer = kInvalidNode;
  /// Pipeline packet index; 0 in single-broadcast runs.
  std::uint32_t packet = 0;
  /// Kind-specific payload (collision contenders, links lost to a crash,
  /// relay offset count); 0 when unused.
  std::uint32_t detail = 0;

  friend bool operator==(const Event& a, const Event& b) noexcept = default;
};

}  // namespace wsn
