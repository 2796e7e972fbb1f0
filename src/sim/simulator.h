#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/types.h"
#include "fault/fault_model.h"
#include "obs/observer.h"
#include "radio/battery.h"
#include "radio/energy_model.h"
#include "sim/plan.h"
#include "sim/stats.h"
#include "topology/topology.h"

/// Slot-synchronous broadcast simulator.
///
/// Semantics (paper §2/§3, "all the sensor nodes are synchronized"):
///
///   * Time advances in discrete slots; one packet fits one slot.
///   * A node transmitting in a slot is heard by all its topology
///     neighbors ("a transmission can cover all the neighboring nodes").
///   * A non-transmitting node with exactly ONE transmitting neighbor in a
///     slot decodes the packet (counted as a reception -- a duplicate if it
///     already had the message).
///   * A non-transmitting node with TWO OR MORE transmitting neighbors
///     suffers a collision: nothing is decoded, one collision event is
///     recorded at that node.
///   * A transmitting node hears nothing that slot (half-duplex).
///   * A relay's transmissions are scheduled by the RelayPlan relative to
///     its first successful reception; the source's relative to slot 0.
///
/// The run ends when no transmission remains scheduled, or at
/// `max_slots` (a runaway guard -- plans are finite so this only triggers
/// on misuse).
///
/// Pipelined streams run through the same slot loop: the source injects
/// `packets` packets, one every `interval` slots, all forwarded under the
/// same relay plan, and a single broadcast is the one-packet stream.  The
/// medium rules above apply packet-agnostically, plus:
///   * a node transmits at most one packet per slot; when two packets'
///     schedules land on the same slot, the older packet goes first and
///     the younger is deferred one slot (repeatedly if needed, and only
///     once if it is already pending there);
///   * a lone transmitting neighbor delivers its own packet; two or more
///     collide whatever the packets involved (co-channel collision);
///   * each packet's relay offsets apply relative to that packet's own
///     first reception at the node.
///
/// The wavefronts of packets p and p+1 chase each other `interval` slots
/// apart and collide where a relay serves both at once, so the relay
/// plan's spatial structure sets the *pipeline period*: the smallest
/// interval at which every packet still reaches every node
/// (sim/pipeline.h).
namespace wsn {

struct SimOptions {
  /// Packet length in bits; the paper evaluates with 512.
  std::size_t packet_bits = 512;
  /// Energy model; defaults to the paper's First Order Radio Model.
  FirstOrderRadioModel radio{};
  /// Record per-collision events (slot, node) in the outcome.
  bool record_collisions = false;
  /// Optional battery bank: transmissions/receptions drain it, dead nodes
  /// drop out of the medium.  Must have one cell per node when set.
  BatteryBank* battery = nullptr;
  /// Charge E_Rx for collided receptions too.  Off by default: the paper's
  /// published power numbers charge only successful decodes (DESIGN.md §4).
  bool charge_collisions = false;
  /// Track each node's individual energy spend in the outcome (the paper
  /// only totals energy; the per-node view exposes how unevenly relay duty
  /// burdens nodes -- its §1 critique of non-balancing protocols).
  bool record_node_energy = false;
  /// Optional fault injection (fault/fault_model.h): per-link packet loss
  /// and per-node crash windows.  nullptr (the default) keeps the paper's
  /// perfect medium and leaves the hot path untouched; when set, the model
  /// is consulted per (tx, rx, slot) edge and losses are attributed to
  /// `BroadcastStats::lost_to_fading` / `lost_to_crash`.  Like `battery`,
  /// the model is stateful and must not be shared across concurrent runs.
  FaultModel* faults = nullptr;
  /// Optional instrumentation (obs/observer.h): structured events into the
  /// observer's sink, stats mirrored into its metrics handles, end-of-run
  /// histograms (slot delay, per-node energy, per-transmission ETR).
  /// nullptr (the default) keeps the hot path untouched.  An observer with
  /// an event sink belongs to one run at a time; a metrics-only observer
  /// may be shared across concurrent sweep runs.
  Observer* observer = nullptr;
  /// Hard stop. Generous default: plans terminate on their own.
  Slot max_slots = 1u << 20;
};

/// One transmission as it happened, with its delivery outcome:
/// `delivered` neighbors decoded it, of which `fresh` were first-time
/// receptions.  ETR of the transmission = fresh / degree(node).
struct TxRecord {
  Slot slot = 0;
  NodeId node = kInvalidNode;
  std::uint32_t delivered = 0;
  std::uint32_t fresh = 0;
};

/// A collision event: `contenders` neighbors of `node` transmitted in
/// `slot` and nothing was decoded.
struct CollisionRecord {
  Slot slot = 0;
  NodeId node = kInvalidNode;
  std::uint32_t contenders = 0;
};

struct BroadcastOutcome {
  BroadcastStats stats;
  /// Slot of each node's first successful reception; 0 for the source,
  /// kNeverSlot for unreached nodes.
  std::vector<Slot> first_rx;
  /// Every transmission in slot order (ties by node id).
  std::vector<TxRecord> transmissions;
  /// Collision events; populated only when SimOptions::record_collisions.
  std::vector<CollisionRecord> collision_events;
  /// Per-node energy spend (J); populated only when
  /// SimOptions::record_node_energy.  Sums to stats.total_energy().
  std::vector<Joules> node_energy;

  [[nodiscard]] std::vector<NodeId> unreached() const;
  /// Slot of `node`'s first transmission, or kNeverSlot if it never
  /// transmitted.
  [[nodiscard]] Slot first_tx(NodeId node) const noexcept;
};

struct PipelineOptions {
  /// Number of packets the source injects.
  std::size_t packets = 4;
  /// Slots between consecutive injections (≥ 1).
  Slot interval = 8;
  /// Medium / energy configuration, as for a single broadcast.
  SimOptions sim{};
};

struct PipelineOutcome {
  /// Per-packet stats; delay is measured from the packet's injection
  /// slot, and a crash or fading loss is charged to the packet it
  /// destroyed.  Collisions are not attributable to one packet and stay
  /// 0 here.
  std::vector<BroadcastStats> per_packet;
  /// Totals across the run: tx/rx/duplicates/losses/energy summed over
  /// the packets, every collision counted once (with its reception energy
  /// under `charge_collisions`), delay = the slot of the last
  /// first-reception of any packet, reached = the last packet's reach.
  BroadcastStats aggregate;

  [[nodiscard]] bool all_fully_reached() const {
    for (const BroadcastStats& s : per_packet) {
      if (!s.fully_reached()) return false;
    }
    return !per_packet.empty();
  }
};

/// The simulation engine with its per-run scratch buffers.
///
/// One broadcast needs four O(n) scratch vectors plus the slot schedule;
/// allocating them per run is pure churn in the workloads that run
/// thousands of broadcasts back to back (the resolver's probe
/// simulations, the all-sources sweeps, the pipeline-period scan).  A
/// Simulator owns the scratch and re-primes it with size-preserving
/// `assign` at the start of every run, so repeated runs over same-sized
/// topologies allocate nothing.  Runs are bitwise-deterministic and
/// identical to `simulate_broadcast` / `simulate_pipeline` for any
/// sequence of calls -- scratch reuse is invisible in the outcome.
///
/// Not thread-safe: one Simulator belongs to one thread at a time (the
/// sweeps keep one per worker).
class Simulator {
 public:
  Simulator() = default;
  /// Pre-sizes the scratch for `num_nodes`-node topologies.
  explicit Simulator(std::size_t num_nodes);

  /// Runs one broadcast to completion; semantics of simulate_broadcast.
  [[nodiscard]] BroadcastOutcome run(const Topology& topo,
                                     const RelayPlan& plan,
                                     const SimOptions& options = {});

  /// Same run straight off a CSR plan (sim/plan.h) -- what the plan-store
  /// sweeps use, skipping any conversion back to RelayPlan.  Identical
  /// outcome to running the equivalent RelayPlan.
  [[nodiscard]] BroadcastOutcome run(const Topology& topo,
                                     const FlatRelayPlan& plan,
                                     const SimOptions& options = {});

  /// Runs a pipelined stream to completion; semantics of
  /// simulate_pipeline.  With `packets == 1` its one packet's stats are
  /// those `run` reports, except that collisions are in the aggregate.
  [[nodiscard]] PipelineOutcome run_stream(const Topology& topo,
                                           const RelayPlan& plan,
                                           const PipelineOptions& options);

 private:
  /// The slot loop.  Fills `out` (its stats take the collisions, its
  /// first_rx is packet-major: packet p's node v at p * n + v) and charges
  /// everything else to `per_packet`, which for a single broadcast is
  /// `out.stats` itself.
  template <bool kObserved, bool kStream, typename PlanT>
  void run_impl(const Topology& topo, const PlanT& plan,
                const SimOptions& options, Slot interval,
                BroadcastOutcome& out, std::span<BroadcastStats> per_packet);

  // slot -> (node << 32 | packet) transmissions scheduled for it.  An
  // ordered map keeps the main loop a strict slot sweep even when plans
  // schedule far ahead.
  std::map<Slot, std::vector<std::uint64_t>> schedule_;
  // Per-slot scratch, epoch-free via the `touched_` list: hear_count_[u]
  // is nonzero only for u in touched_ and reset before the slot ends.
  std::vector<std::uint32_t> hear_count_;
  std::vector<std::uint32_t> heard_tx_;  // index of the last sender heard
  std::vector<char> is_transmitting_;
  std::vector<NodeId> touched_;
  // A stream's per-node results, kept only for the aggregate and the
  // observer; reused so a period scan allocates them once.
  BroadcastOutcome stream_;
};

/// Runs one broadcast to completion.  `plan.num_nodes()` must match the
/// topology.  Deterministic: identical inputs give identical outcomes.
/// Stateless convenience over a fresh Simulator; hot loops that run many
/// broadcasts keep a Simulator and call `run` to reuse its scratch.
[[nodiscard]] BroadcastOutcome simulate_broadcast(const Topology& topo,
                                                  const RelayPlan& plan,
                                                  const SimOptions& options = {});

}  // namespace wsn
