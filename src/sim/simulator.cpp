#include "sim/simulator.h"

#include <algorithm>
#include <map>

#include "common/assert.h"
#include "obs/profile.h"
#include "sim/pipeline.h"

namespace wsn {

namespace {

/// End-of-run observability: distribution histograms and the reached
/// gauge.  Counters are mirrored inline at each stats increment; the
/// distributions (slot delay, per-node energy, per-transmission ETR) only
/// exist once the run is complete.  A stream's delays count from each
/// packet's injection, `interval` slots apart.
void observe_outcome(const Topology& topo, const BroadcastOutcome& out,
                     Slot interval, std::size_t reached, Observer& obs) {
  Observer::count(obs.runs);
  if (obs.reached != nullptr) {
    obs.reached->set(static_cast<double>(reached));
  }
  if (obs.events_dropped != nullptr && obs.events != nullptr) {
    obs.events_dropped->set(static_cast<double>(obs.events->dropped()));
  }
  if (obs.slot_delay != nullptr) {
    const std::size_t n = topo.num_nodes();
    for (std::size_t i = 0; i < out.first_rx.size(); ++i) {
      const Slot slot = out.first_rx[i];
      if (slot == kNeverSlot) continue;  // unreached
      const Slot delay = slot - static_cast<Slot>(i / n) * interval;
      if (delay == 0) continue;  // the source
      obs.slot_delay->observe(static_cast<double>(delay));
    }
  }
  if (obs.node_energy != nullptr) {
    for (Joules j : out.node_energy) obs.node_energy->observe(j);
  }
  if (obs.etr != nullptr) {
    for (const TxRecord& rec : out.transmissions) {
      const std::size_t degree = topo.degree(rec.node);
      if (degree == 0) continue;
      obs.etr->observe(static_cast<double>(rec.fresh) /
                       static_cast<double>(degree));
    }
  }
}

// A scheduled transmission: node in the high half, packet in the low
// (run_impl's packet_of), so sorting a slot's keys orders it by node and,
// per node, oldest packet first.
constexpr std::uint64_t pack(NodeId node, std::uint32_t packet) noexcept {
  return std::uint64_t{node} << 32 | packet;
}
constexpr NodeId node_of(std::uint64_t key) noexcept {
  return static_cast<NodeId>(key >> 32);
}

}  // namespace

std::vector<NodeId> BroadcastOutcome::unreached() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < first_rx.size(); ++v) {
    if (first_rx[v] == kNeverSlot) out.push_back(v);
  }
  return out;
}

Slot BroadcastOutcome::first_tx(NodeId node) const noexcept {
  for (const TxRecord& rec : transmissions) {
    if (rec.node == node) return rec.slot;
  }
  return kNeverSlot;
}

Simulator::Simulator(std::size_t num_nodes) {
  hear_count_.reserve(num_nodes);
  heard_tx_.reserve(num_nodes);
  is_transmitting_.reserve(num_nodes);
  touched_.reserve(num_nodes);
}

/// The slot loop, compiled per mode.  kObserved=false contains no
/// observer code at all -- identical work to the pre-instrumentation
/// simulator, so installing no observer costs nothing -- while
/// kObserved=true carries the event/metric emission inline.
/// kStream=false is the single broadcast: the packet index folds to the
/// constant 0 and the deferral pass drops out.  The callers dispatch once.
template <bool kObserved, bool kStream, typename PlanT>
void Simulator::run_impl(const Topology& topo, const PlanT& plan,
                         const SimOptions& options, Slot interval,
                         BroadcastOutcome& out,
                         std::span<BroadcastStats> per_packet) {
  const std::size_t n = topo.num_nodes();
  const std::size_t packets = per_packet.size();
  const auto packet_of = [](std::uint64_t key) -> std::uint32_t {
    return kStream ? static_cast<std::uint32_t>(key) : 0;
  };
  WSN_EXPECTS(plan.num_nodes() == n);
  WSN_EXPECTS(options.battery == nullptr || options.battery->size() == n);
  plan.validate();

  FaultModel* const faults = options.faults;
  if (faults != nullptr) faults->begin_run();
  [[maybe_unused]] Observer* const obs = options.observer;

  // Re-prime the outcome and the scratch; `assign` on an already-sized
  // vector is a plain fill, so a reused Simulator starts every run in the
  // exact state a fresh one would without allocating.
  out.stats = BroadcastStats{};
  out.stats.num_nodes = n;
  for (BroadcastStats& stats : per_packet) {
    stats = BroadcastStats{};
    stats.num_nodes = n;
  }
  out.first_rx.assign(packets * n, kNeverSlot);
  out.transmissions.clear();
  out.collision_events.clear();
  out.node_energy.clear();
  if (options.record_node_energy) out.node_energy.assign(n, 0.0);

  std::map<Slot, std::vector<std::uint64_t>>& schedule = schedule_;
  schedule.clear();
  const auto schedule_node = [&](NodeId v, std::uint32_t packet,
                                 Slot received_at) {
    const std::span<const Slot> offsets = plan_offsets(plan, v);
    if constexpr (kObserved) {
      if (!offsets.empty()) {
        Observer::count(obs->relay_activations);
        obs->emit(
            Event{received_at, EventKind::kRelayActivation, v, kInvalidNode,
                  packet, static_cast<std::uint32_t>(offsets.size())});
      }
    }
    for (Slot offset : offsets) {
      schedule[received_at + offset].push_back(pack(v, packet));
    }
  };
  const NodeId source = plan_source(plan);
  for (std::uint32_t p = 0; p < packets; ++p) {
    const Slot injected = static_cast<Slot>(p) * interval;
    out.first_rx[p * n + source] = injected;
    schedule_node(source, p, injected);
  }

  hear_count_.assign(n, 0);
  heard_tx_.resize(n);  // written in every slot before it is read
  is_transmitting_.assign(n, 0);
  touched_.clear();
  std::vector<std::uint32_t>& hear_count = hear_count_;
  std::vector<std::uint32_t>& heard_tx = heard_tx_;
  std::vector<char>& is_transmitting = is_transmitting_;
  std::vector<NodeId>& touched = touched_;

  while (!schedule.empty()) {
    auto it = schedule.begin();
    const Slot slot = it->first;
    std::vector<std::uint64_t> transmitters = std::move(it->second);
    schedule.erase(it);
    if (slot > options.max_slots) break;

    // Deterministic order.  In a single broadcast a node appears at most
    // once per slot (plan offsets are strictly increasing); in a stream
    // the oldest packet goes out and younger ones defer one slot, dropping
    // duplicates and any copy already pending there.
    std::sort(transmitters.begin(), transmitters.end());
    if constexpr (kStream) {
      transmitters.erase(
          std::unique(transmitters.begin(), transmitters.end()),
          transmitters.end());
      std::size_t kept = 0;
      for (const std::uint64_t key : transmitters) {
        if (kept == 0 || node_of(transmitters[kept - 1]) != node_of(key)) {
          transmitters[kept++] = key;
          continue;
        }
        std::vector<std::uint64_t>& next_slot = schedule[slot + 1];
        if (std::find(next_slot.begin(), next_slot.end(), key) !=
            next_slot.end()) {
          continue;
        }
        next_slot.push_back(key);
        if constexpr (kObserved) {
          Observer::count(obs->pipeline_defers);
          obs->emit(Event{slot, EventKind::kPipelineDefer, node_of(key),
                          kInvalidNode, packet_of(key), 1});
        }
      }
      transmitters.resize(kept);
    }

    // Battery-dead nodes drop out of the medium entirely this slot.
    if (options.battery != nullptr) {
      std::erase_if(transmitters, [&](std::uint64_t key) {
        return !options.battery->alive(node_of(key));
      });
    }
    // Crashed transmitters lose the scheduled transmission outright (the
    // radio was off when the timer fired): no energy spent, and every
    // would-be hearer's delivery is charged to the crash, against the
    // suppressed packet.
    if (faults != nullptr) {
      std::erase_if(transmitters, [&](std::uint64_t key) {
        const NodeId v = node_of(key);
        if (faults->node_up(v, slot)) return false;
        const auto lost = static_cast<std::uint32_t>(topo.degree(v));
        per_packet[packet_of(key)].lost_to_crash += lost;
        if constexpr (kObserved) {
          Observer::count(obs->lost_to_crash, lost);
          obs->emit(Event{slot, EventKind::kLossCrash, v, kInvalidNode,
                          packet_of(key), lost});
        }
        return true;
      });
    }
    if (transmitters.empty()) continue;

    // This slot's transmissions are records first_record + i, in
    // transmitter order.
    const std::size_t first_record = out.transmissions.size();
    for (const std::uint64_t key : transmitters) {
      const NodeId v = node_of(key);
      BroadcastStats& stats = per_packet[packet_of(key)];
      is_transmitting[v] = 1;
      out.transmissions.push_back(TxRecord{slot, v, 0, 0});
      stats.tx += 1;
      if constexpr (kObserved) {
        Observer::count(obs->tx);
        obs->emit(
            Event{slot, EventKind::kTx, v, kInvalidNode, packet_of(key)});
      }
      const Joules cost =
          options.radio.tx_energy(options.packet_bits, topo.tx_range(v));
      stats.tx_energy += cost;
      if (options.record_node_energy) out.node_energy[v] += cost;
      if (options.battery != nullptr) options.battery->drain(v, cost);
    }

    touched.clear();
    for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
      const NodeId v = node_of(transmitters[i]);
      for (NodeId u : topo.neighbors(v)) {
        if (options.battery != nullptr && !options.battery->alive(u)) {
          continue;
        }
        if (faults != nullptr) {
          const std::uint32_t packet = packet_of(transmitters[i]);
          if (!faults->node_up(u, slot)) {
            per_packet[packet].lost_to_crash += 1;
            if constexpr (kObserved) {
              Observer::count(obs->lost_to_crash);
              obs->emit(Event{slot, EventKind::kLossCrash, u, v, packet, 1});
            }
            continue;
          }
          // A faded packet is below the decode *and* interference
          // thresholds: it neither delivers nor contributes to collisions
          // (fault/fault_model.h).
          if (!faults->link_delivers(v, u, slot)) {
            per_packet[packet].lost_to_fading += 1;
            if constexpr (kObserved) {
              Observer::count(obs->lost_to_fading);
              obs->emit(Event{slot, EventKind::kLossFading, u, v, packet});
            }
            continue;
          }
        }
        if (hear_count[u] == 0) touched.push_back(u);
        hear_count[u] += 1;
        heard_tx[u] = i;
      }
    }

    for (NodeId u : touched) {
      const std::uint32_t contenders = hear_count[u];
      hear_count[u] = 0;
      if (is_transmitting[u]) continue;  // half-duplex: deaf while sending

      const std::uint64_t heard = transmitters[heard_tx[u]];
      const std::uint32_t packet = packet_of(heard);
      if (contenders == 1) {
        BroadcastStats& stats = per_packet[packet];
        stats.rx += 1;
        if constexpr (kObserved) Observer::count(obs->rx);
        const Joules cost = options.radio.rx_energy(options.packet_bits);
        stats.rx_energy += cost;
        if (options.record_node_energy) out.node_energy[u] += cost;
        if (options.battery != nullptr) options.battery->drain(u, cost);

        TxRecord& rec = out.transmissions[first_record + heard_tx[u]];
        rec.delivered += 1;
        Slot& first_rx = out.first_rx[packet * n + u];
        if (first_rx == kNeverSlot) {
          rec.fresh += 1;
          first_rx = slot;
          const Slot injected = static_cast<Slot>(packet) * interval;
          stats.delay = std::max(stats.delay, slot - injected);
          if constexpr (kObserved) {
            obs->emit(Event{slot, EventKind::kRx, u, node_of(heard), packet});
          }
          schedule_node(u, packet, slot);
        } else {
          stats.duplicates += 1;
          if constexpr (kObserved) {
            Observer::count(obs->duplicates);
            obs->emit(
                Event{slot, EventKind::kDuplicate, u, node_of(heard), packet});
          }
        }
      } else {
        // Cross- or same-packet pileup: counted once, on the run's own
        // stats (the event's packet field names the last sender heard).
        out.stats.collisions += 1;
        if constexpr (kObserved) {
          Observer::count(obs->collisions);
          obs->emit(Event{slot, EventKind::kCollision, u, kInvalidNode,
                          packet, contenders});
        }
        if (options.charge_collisions) {
          const Joules cost = options.radio.rx_energy(options.packet_bits);
          out.stats.rx_energy += cost;
          if (options.record_node_energy) out.node_energy[u] += cost;
          if (options.battery != nullptr) options.battery->drain(u, cost);
        }
        if (options.record_collisions) {
          out.collision_events.push_back(
              CollisionRecord{slot, u, contenders});
        }
      }
    }

    for (const std::uint64_t key : transmitters) {
      is_transmitting[node_of(key)] = 0;
    }
  }

  for (std::size_t p = 0; p < packets; ++p) {
    const Slot* first = out.first_rx.data() + p * n;
    const auto unreached = std::count(first, first + n, kNeverSlot);
    per_packet[p].reached = n - static_cast<std::size_t>(unreached);
  }
  if constexpr (kObserved) {
    observe_outcome(topo, out, interval, per_packet.back().reached, *obs);
  }
}

BroadcastOutcome Simulator::run(const Topology& topo, const RelayPlan& plan,
                                const SimOptions& options) {
  WSN_SPAN("sim.simulate");
  BroadcastOutcome out;
  if (options.observer != nullptr) {
    run_impl<true, false>(topo, plan, options, 0, out, {&out.stats, 1});
  } else {
    run_impl<false, false>(topo, plan, options, 0, out, {&out.stats, 1});
  }
  return out;
}

BroadcastOutcome Simulator::run(const Topology& topo,
                                const FlatRelayPlan& plan,
                                const SimOptions& options) {
  WSN_SPAN("sim.simulate");
  BroadcastOutcome out;
  if (options.observer != nullptr) {
    run_impl<true, false>(topo, plan, options, 0, out, {&out.stats, 1});
  } else {
    run_impl<false, false>(topo, plan, options, 0, out, {&out.stats, 1});
  }
  return out;
}

PipelineOutcome Simulator::run_stream(const Topology& topo,
                                      const RelayPlan& plan,
                                      const PipelineOptions& options) {
  WSN_SPAN("sim.pipeline");
  WSN_EXPECTS(options.packets >= 1);
  WSN_EXPECTS(options.interval >= 1);
  PipelineOutcome result;
  result.per_packet.resize(options.packets);
  if (options.sim.observer != nullptr) {
    run_impl<true, true>(topo, plan, options.sim, options.interval, stream_,
                   result.per_packet);
  } else {
    run_impl<false, true>(topo, plan, options.sim, options.interval, stream_,
                    result.per_packet);
  }

  // The run's own stats hold what no single packet owns (collisions and
  // their charged energy); the per-packet totals add onto them.
  BroadcastStats& total = result.aggregate;
  total = stream_.stats;
  for (std::size_t p = 0; p < result.per_packet.size(); ++p) {
    const BroadcastStats& stats = result.per_packet[p];
    total.tx += stats.tx;
    total.rx += stats.rx;
    total.duplicates += stats.duplicates;
    total.lost_to_fading += stats.lost_to_fading;
    total.lost_to_crash += stats.lost_to_crash;
    total.tx_energy += stats.tx_energy;
    total.rx_energy += stats.rx_energy;
    const Slot injected = static_cast<Slot>(p) * options.interval;
    total.delay = std::max(total.delay, stats.delay + injected);
    total.reached = stats.reached;  // last packet's reach
  }
  return result;
}

BroadcastOutcome simulate_broadcast(const Topology& topo,
                                    const RelayPlan& plan,
                                    const SimOptions& options) {
  Simulator simulator(topo.num_nodes());
  return simulator.run(topo, plan, options);
}

PipelineOutcome simulate_pipeline(const Topology& topo, const RelayPlan& plan,
                                  const PipelineOptions& options) {
  Simulator simulator(topo.num_nodes());
  return simulator.run_stream(topo, plan, options);
}

Slot min_pipeline_interval(const Topology& topo, const RelayPlan& plan,
                           std::size_t packets, Slot limit) {
  Simulator simulator(topo.num_nodes());
  PipelineOptions options;
  options.packets = packets;
  for (Slot interval = 1; interval <= limit; ++interval) {
    options.interval = interval;
    if (simulator.run_stream(topo, plan, options).all_fully_reached()) {
      return interval;
    }
  }
  return 0;
}

}  // namespace wsn
