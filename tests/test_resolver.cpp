#include "protocol/resolver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "protocol/gossip.h"
#include "protocol/mesh2d3_broadcast.h"
#include "protocol/registry.h"
#include "protocol/resolver_core.h"
#include "sim/simulator.h"
#include "topology/factory.h"
#include "topology/graph_algos.h"
#include "topology/mesh2d3.h"
#include "topology/mesh2d4.h"
#include "topology/random_geometric.h"

namespace wsn {
namespace {

TEST(Resolver, CompletePlanNeedsNoRepairs) {
  // An already-complete plan: all-relay on a path.
  const Mesh2D4 line(10, 1);
  RelayPlan line_plan = RelayPlan::empty(10, 0);
  for (NodeId v = 1; v < 10; ++v) line_plan.tx_offsets[v] = {1};
  ResolveReport report;
  const RelayPlan resolved =
      resolve_full_reachability(line, line_plan, {}, &report);
  EXPECT_EQ(report.repairs, 0u);
  EXPECT_EQ(report.rounds, 0u);
  EXPECT_EQ(resolved.planned_tx(), line_plan.planned_tx());
}

TEST(Resolver, RepairsABrokenRelayChain) {
  // Path of 6, but node 3 is not a relay: nodes 4 and 5 start unreached.
  const Mesh2D4 line(6, 1);
  RelayPlan plan = RelayPlan::empty(6, 0);
  plan.tx_offsets[1] = {1};
  plan.tx_offsets[2] = {1};
  plan.tx_offsets[4] = {1};
  ResolveReport report;
  const RelayPlan resolved = resolve_full_reachability(line, plan, {},
                                                       &report);
  const auto out = simulate_broadcast(line, resolved);
  EXPECT_TRUE(out.stats.fully_reached());
  EXPECT_GE(report.repairs, 1u);
  // Node 3 (the gap) must have been given a transmission by the resolver.
  EXPECT_TRUE(resolved.is_relay(3));
}

TEST(Resolver, RepairsCollisionStrandedNodes) {
  // 3×3 cross-fire: corners collide forever under the naive plan.
  const Mesh2D4 topo(3, 3);
  const Grid2D& g = topo.grid();
  RelayPlan plan = RelayPlan::empty(9, g.to_id({2, 2}));
  for (Vec2 v : {Vec2{1, 2}, Vec2{3, 2}, Vec2{2, 1}, Vec2{2, 3}}) {
    plan.tx_offsets[g.to_id(v)] = {1};
  }
  ResolveReport report;
  const RelayPlan resolved = resolve_full_reachability(topo, plan, {},
                                                       &report);
  const auto out = simulate_broadcast(topo, resolved);
  EXPECT_TRUE(out.stats.fully_reached());
  EXPECT_GE(report.repairs, 1u);
  EXPECT_LE(report.repairs, 6u);
}

TEST(Resolver, ReportsDisconnectedRemainder) {
  // A sparse random graph: other components can never be reached and the
  // resolver must say so rather than loop.
  const RandomGeometric topo(40, 100.0, 5.0, 11);
  ASSERT_FALSE(is_connected(topo));
  RelayPlan plan = RelayPlan::empty(topo.num_nodes(), 0);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) plan.tx_offsets[v] = {1};
  ResolveReport report;
  const RelayPlan resolved = resolve_full_reachability(topo, plan, {},
                                                       &report);
  const auto out = simulate_broadcast(topo, resolved);
  EXPECT_FALSE(out.stats.fully_reached());
  EXPECT_EQ(report.unreachable, out.unreached().size());
}

TEST(Resolver, UnrepairedPopulatedOnDisconnectedTopology) {
  // Graceful degradation contract: instead of aborting, the resolver
  // reports exactly the nodes it could not repair, and the returned plan
  // still reaches the whole source component.
  const RandomGeometric topo(40, 100.0, 5.0, 11);
  ASSERT_FALSE(is_connected(topo));
  RelayPlan plan = RelayPlan::empty(topo.num_nodes(), 0);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) plan.tx_offsets[v] = {1};
  ResolveReport report;
  const RelayPlan resolved = resolve_full_reachability(topo, plan, {},
                                                       &report);
  const auto out = simulate_broadcast(topo, resolved);
  EXPECT_GT(report.unrepaired, 0u);
  EXPECT_EQ(report.unrepaired, out.unreached().size());
  EXPECT_EQ(report.unrepaired, report.unreachable);
  // The source component itself is fully served.
  EXPECT_EQ(out.stats.reached + report.unrepaired, topo.num_nodes());
}

TEST(Resolver, UnrepairedZeroOnConnectedTopology) {
  const Mesh2D4 topo(7, 5);
  ResolveReport report;
  const RelayPlan resolved = resolve_full_reachability(
      topo, RelayPlan::empty(topo.num_nodes(), 3), {}, &report);
  const auto out = simulate_broadcast(topo, resolved);
  EXPECT_TRUE(out.stats.fully_reached());
  EXPECT_EQ(report.unrepaired, 0u);
}

TEST(Resolver, DeterministicAcrossRuns) {
  const Mesh2D3 topo(16, 16);
  const Mesh2d3Broadcast proto;
  const RelayPlan base = proto.plan(topo, 40);
  ResolveReport ra;
  ResolveReport rb;
  const RelayPlan a = resolve_full_reachability(topo, base, {}, &ra);
  const RelayPlan b = resolve_full_reachability(topo, base, {}, &rb);
  EXPECT_EQ(ra.repairs, rb.repairs);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_EQ(a.tx_offsets[v], b.tx_offsets[v]);
  }
}

TEST(Resolver, RepairsCountPlannedTransmissions) {
  const Mesh2D3 topo(16, 16);
  const Mesh2d3Broadcast proto;
  const RelayPlan base = proto.plan(topo, 100);
  ResolveReport report;
  const RelayPlan resolved = resolve_full_reachability(topo, base, {},
                                                       &report);
  // planned_tx moves by (added repairs) - (pruned stranded-relay txs), so
  // repairs alone must upper-bound any growth.
  EXPECT_LE(resolved.planned_tx(),
            base.planned_tx() + report.repairs);
}


TEST(Resolver, FuzzedGossipPlansAlwaysResolve) {
  // Property fuzz: start from sparse random gossip plans (heavily broken:
  // low forwarding probability strands big regions) on several topologies;
  // the resolver must always reach a fixpoint with 100% reachability on
  // connected graphs, within a sane repair budget.
  const Mesh2D4 mesh(11, 9);
  const Mesh2D3 brick(12, 10);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const Topology* topo :
         std::initializer_list<const Topology*>{&mesh, &brick}) {
      const Gossip gossip(0.25, 2, seed);
      const NodeId src = static_cast<NodeId>(
          (seed * 37) % topo->num_nodes());
      ResolveReport report;
      const RelayPlan resolved = resolve_full_reachability(
          *topo, gossip.plan(*topo, src), {}, &report);
      const auto out = simulate_broadcast(*topo, resolved);
      ASSERT_TRUE(out.stats.fully_reached())
          << "seed " << seed << " on " << topo->name();
      ASSERT_LE(report.repairs, topo->num_nodes());
    }
  }
}

TEST(Resolver, FuzzedPlansResolveOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RandomGeometric topo(90, 8.0, 2.2, seed * 1000 + 7);
    if (!is_connected(topo)) continue;
    const Gossip gossip(0.3, 3, seed);
    const RelayPlan resolved =
        resolve_full_reachability(topo, gossip.plan(topo, 0));
    const auto out = simulate_broadcast(topo, resolved);
    ASSERT_TRUE(out.stats.fully_reached()) << "seed " << seed;
  }
}

// FNV-1a 64 over the little-endian bytes of `value`, continuing `hash`.
std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// The resolver's output contract, pinned: one digest over every resolved
// paper plan (4 families x 512 sources) -- each node's offset count and
// offsets, then the report's repairs, rounds, unreachable and unrepaired.
// The digest was computed before the resolver learned to reuse probe
// outcomes and scratch, so any change to a resolved plan or its report
// fails here, not only in the perf benchmark's record digest.
TEST(Resolver, GoldenResolvedPaperPlans) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::string& family : regular_families()) {
    const auto topo = make_paper_topology(family);
    for (NodeId src = 0; src < topo->num_nodes(); ++src) {
      ResolveReport report;
      const RelayPlan plan = paper_plan(*topo, src, {}, &report);
      for (const auto& offsets : plan.tx_offsets) {
        hash = fnv1a_u64(hash, offsets.size());
        for (Slot offset : offsets) hash = fnv1a_u64(hash, offset);
      }
      hash = fnv1a_u64(hash, report.repairs);
      hash = fnv1a_u64(hash, report.rounds);
      hash = fnv1a_u64(hash, report.unreachable);
      hash = fnv1a_u64(hash, report.unrepaired);
    }
  }
  EXPECT_EQ(hash, 0x551bc22ac58f9472ull) << std::hex << hash;
}

// A Simulator that counts its probes and flags any probe whose plan is the
// one it simulated just before (a wasted re-simulation).
class CountingSimulator {
 public:
  explicit CountingSimulator(std::size_t num_nodes) : sim_(num_nodes) {}

  BroadcastOutcome run(const Topology& topo, const RelayPlan& plan,
                       const SimOptions& options) {
    ++probes;
    if (probes > 1 && plan.source == last_.source &&
        plan.tx_offsets == last_.tx_offsets) {
      ++repeats;
    }
    last_ = plan;
    return sim_.run(topo, plan, options);
  }

  std::size_t probes = 0;
  std::size_t repeats = 0;

 private:
  Simulator sim_;
  RelayPlan last_;
};

TEST(Resolver, CompletePaperPlanCostsOneProbe) {
  const auto topo = make_paper_topology("2D-4");
  const NodeId src = graph_center(*topo);
  const RelayPlan base = make_paper_protocol("2D-4")->plan(*topo, src);
  CountingSimulator sim(topo->num_nodes());
  ResolveReport report;
  const RelayPlan resolved = resolver_core::resolve_full_reachability(
      *topo, base, {}, &report, sim);
  EXPECT_EQ(sim.probes, 1u);
  EXPECT_EQ(report.rounds, 0u);
  EXPECT_EQ(resolved.tx_offsets, base.tx_offsets);
}

// Probe simulations are the resolver's whole cost; each distinct plan is
// simulated once.  The per-family totals over every source are pinned so
// a change that adds probes (or drops some and with them a decision)
// shows here, independent of the machine's speed.
TEST(Resolver, ProbeCountsOverAllPaperSources) {
  const std::map<std::string, std::size_t> pinned = {
      {"2D-3", 1268}, {"2D-4", 512}, {"2D-8", 1123}, {"3D-6", 1089}};
  for (const std::string& family : regular_families()) {
    SCOPED_TRACE(family);
    const auto topo = make_paper_topology(family);
    const auto protocol = make_paper_protocol(family);
    CountingSimulator sim(topo->num_nodes());
    for (NodeId src = 0; src < topo->num_nodes(); ++src) {
      (void)resolver_core::resolve_full_reachability(
          *topo, protocol->plan(*topo, src), {}, nullptr, sim);
    }
    EXPECT_EQ(sim.repeats, 0u);
    EXPECT_EQ(sim.probes, pinned.at(family));
  }
}

}  // namespace
}  // namespace wsn
