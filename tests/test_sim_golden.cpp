// Byte pins for the slot engine: one FNV-1a digest over every stat and
// per-node vector a broad input matrix produces, for single broadcasts and
// for pipelined streams.  The digests were computed with the engine that
// ran streams through their own slot loop, so any change to what either
// kind of run reports fails here.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "fault/models.h"
#include "obs/event_sink.h"
#include "obs/observer.h"
#include "protocol/registry.h"
#include "sim/pipeline.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d4.h"

namespace wsn {
namespace {

// FNV-1a 64 over the little-endian bytes of `value`, continuing `hash`.
std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fold_stats(std::uint64_t hash, const BroadcastStats& s) {
  for (const std::uint64_t field :
       {std::uint64_t{s.num_nodes}, std::uint64_t{s.reached},
        std::uint64_t{s.tx}, std::uint64_t{s.rx},
        std::uint64_t{s.duplicates}, std::uint64_t{s.collisions},
        std::uint64_t{s.lost_to_fading}, std::uint64_t{s.lost_to_crash},
        std::uint64_t{s.delay}, std::bit_cast<std::uint64_t>(s.tx_energy),
        std::bit_cast<std::uint64_t>(s.rx_energy)}) {
    hash = fnv1a_u64(hash, field);
  }
  return hash;
}

std::uint64_t fold_pipeline(std::uint64_t hash, const PipelineOutcome& out) {
  hash = fnv1a_u64(hash, out.per_packet.size());
  for (const BroadcastStats& stats : out.per_packet) {
    hash = fold_stats(hash, stats);
  }
  return fold_stats(hash, out.aggregate);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// Streams of `packets` packets at every interval in 1..`max_interval` on
// {perfect, iid 20% loss, crash schedule} media.
std::uint64_t fold_stream_matrix(std::uint64_t hash, const Topology& topo,
                                 const RelayPlan& plan, Slot horizon,
                                 Slot max_interval) {
  for (const std::size_t packets : {1u, 3u, 5u}) {
    for (Slot interval = 1; interval <= max_interval; ++interval) {
      const std::uint64_t seed =
          (std::uint64_t{plan.source} << 16) ^ (packets << 8) ^ interval;
      IidLossModel loss(0.2, seed);
      CrashScheduleModel crash = CrashScheduleModel::sample(
          topo.num_nodes(), 0.05,
          horizon + static_cast<Slot>(packets) * interval, 4, seed);
      for (FaultModel* faults : {static_cast<FaultModel*>(nullptr),
                                 static_cast<FaultModel*>(&loss),
                                 static_cast<FaultModel*>(&crash)}) {
        PipelineOptions options;
        options.packets = packets;
        options.interval = interval;
        options.sim.faults = faults;
        hash = fold_pipeline(hash, simulate_pipeline(topo, plan, options));
      }
    }
  }
  return hash;
}

// A 24x2 strip whose bottom row and every third node relay twice, three
// slots apart: at interval 2 a relay's second copy of packet p lands on
// its first copy of packet p+1, so the stream defers and de-duplicates,
// which no paper plan does.
RelayPlan double_relay_strip_plan(const Topology& topo) {
  RelayPlan plan = RelayPlan::empty(topo.num_nodes(), 0);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (v < 24 || v % 3 == 0) plan.tx_offsets[v] = {1, 3};
  }
  return plan;
}

// 4 paper families x {center, corner} x packets {1, 3, 5} x intervals
// 1..(single-broadcast delay + 2) x {perfect, iid 20% loss, crash
// schedule}, the same matrix over a plan that defers, then the full event
// stream of one observed 3-packet run with loss, crashes and deferrals.
TEST(Pipeline, GoldenStreamOutcomes) {
  std::uint64_t hash = kFnvBasis;
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    for (const NodeId src : {graph_center(*topo), NodeId{0}}) {
      const RelayPlan plan = paper_plan(*topo, src);
      const Slot delay = simulate_broadcast(*topo, plan).stats.delay;
      hash = fold_stream_matrix(hash, *topo, plan, delay, delay + 2);
    }
  }
  const Mesh2D4 strip(24, 2);
  const RelayPlan plan = double_relay_strip_plan(strip);
  hash = fold_stream_matrix(hash, strip, plan, 30, 6);

  IidLossModel loss(0.1, 41);
  CrashScheduleModel crash =
      CrashScheduleModel::sample(strip.num_nodes(), 0.05, 30, 6, 43);
  CompositeFaultModel faults({&loss, &crash});
  EventSink sink;
  Observer observer(&sink);
  PipelineOptions options;
  options.packets = 3;
  options.interval = 2;
  options.sim.faults = &faults;
  options.sim.observer = &observer;
  hash = fold_pipeline(hash, simulate_pipeline(strip, plan, options));
  ASSERT_EQ(sink.dropped(), 0u);
  EXPECT_GT(sink.count(EventKind::kPipelineDefer), 0u);
  EXPECT_GT(sink.count(EventKind::kLossCrash), 0u);
  EXPECT_GT(sink.count(EventKind::kLossFading), 0u);
  EXPECT_GT(sink.count(EventKind::kCollision), 0u);
  for (const Event& e : sink.events()) {
    hash = fnv1a_u64(hash, e.slot);
    hash = fnv1a_u64(hash, static_cast<std::uint64_t>(e.kind));
    hash = fnv1a_u64(hash, e.node);
    hash = fnv1a_u64(hash, e.peer);
    hash = fnv1a_u64(hash, e.packet);
    hash = fnv1a_u64(hash, e.detail);
  }
  EXPECT_EQ(hash, 0x3926fc6716df21a1ull) << std::hex << hash;
}

// Every source of every paper family with collision and per-node energy
// recording on: stats, first_rx, transmissions, collision events and
// node energy.
TEST(Simulator, GoldenSingleBroadcastOutcomes) {
  std::uint64_t hash = kFnvBasis;
  SimOptions options;
  options.record_collisions = true;
  options.record_node_energy = true;
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    Simulator sim(topo->num_nodes());
    for (NodeId src = 0; src < topo->num_nodes(); ++src) {
      const BroadcastOutcome out =
          sim.run(*topo, paper_plan(*topo, src), options);
      hash = fold_stats(hash, out.stats);
      for (const Slot slot : out.first_rx) hash = fnv1a_u64(hash, slot);
      hash = fnv1a_u64(hash, out.transmissions.size());
      for (const TxRecord& rec : out.transmissions) {
        hash = fnv1a_u64(hash, rec.slot);
        hash = fnv1a_u64(hash, rec.node);
        hash = fnv1a_u64(hash, rec.delivered);
        hash = fnv1a_u64(hash, rec.fresh);
      }
      hash = fnv1a_u64(hash, out.collision_events.size());
      for (const CollisionRecord& rec : out.collision_events) {
        hash = fnv1a_u64(hash, rec.slot);
        hash = fnv1a_u64(hash, rec.node);
        hash = fnv1a_u64(hash, rec.contenders);
      }
      for (const Joules j : out.node_energy) {
        hash = fnv1a_u64(hash, std::bit_cast<std::uint64_t>(j));
      }
    }
  }
  EXPECT_EQ(hash, 0x16d7e2c004d875aeull) << std::hex << hash;
}

}  // namespace
}  // namespace wsn
