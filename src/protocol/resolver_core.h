#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "protocol/resolver.h"
#include "sim/plan.h"
#include "sim/simulator.h"

/// The resolver algorithm, templated over the network representation.
///
/// resolve_full_reachability (resolver.h) must produce the *same plan* on
/// a materialized Topology and on an ImplicitLattice of the same
/// family/dims -- otherwise the bulk engine's bit-exactness contract stops
/// at raw protocol plans.  Rather than maintain two copies of a subtle
/// algorithm, the whole body lives here as a template over
///
///   * `Net`  -- num_nodes(), neighbors(id) (sorted ascending; span or
///     value type), adjacent(a, b);
///   * `SimT` -- run(net, plan, options) -> BroadcastOutcome, reusing its
///     scratch across probes (Simulator and BulkSimulator both qualify).
///
/// Every decision the resolver makes (helper choice by min first_rx then
/// min id, quiet-slot probing, 2-hop slot packing) consumes only neighbor
/// sets and simulation outcomes; byte-identical neighbor iteration plus
/// bit-identical outcomes therefore force identical resolved plans, which
/// tests/test_implicit_plan.cpp asserts per family.
///
/// Cost: probe simulations dominate, and each distinct probe plan is
/// simulated exactly once -- every phase hands the outcome of its last
/// probe to the next step instead of re-simulating the unchanged plan, so
/// an already-complete plan costs one probe.  The per-node scratch
/// (unreached flags, the CSR index of heard slots, per-round claims) is
/// allocated at most once per resolve call and reset through the
/// unreached list, so the resolver's own bookkeeping allocates nothing
/// proportional to n per round (each probe's BroadcastOutcome is the
/// simulator's).
/// tests/test_resolver.cpp pins the probe counts over every paper source.
namespace wsn::resolver_core {

template <typename Net>
[[nodiscard]] bool within_two_hops(const Net& net, NodeId a, NodeId b) {
  if (net.adjacent(a, b)) return true;
  // Bind both sets to locals: neighbors() may return a value type, and
  // begin()/end() drawn from two separate temporaries would be UB.
  const auto na = net.neighbors(a);
  const auto nb = net.neighbors(b);
  // Merge-walk two sorted ranges looking for a common element.
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < na.size() && ib < nb.size()) {
    if (na[ia] == nb[ib]) return true;
    if (na[ia] < nb[ib]) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

/// A plan together with the outcome of simulating it, so the next phase
/// starts from the outcome instead of simulating the same plan again.
struct ProbedPlan {
  RelayPlan plan;
  BroadcastOutcome outcome;
};

/// Per-node scratch shared by both phases of one resolve call.  It is
/// sized the first time a probe leaves someone unreached (a plan that is
/// complete on its first probe allocates none of it), and every flag is
/// set only for nodes on the unreached list, so `load` resets them through
/// the previous list instead of refilling O(n) vectors.
struct ResolveScratch {
  /// Clears the previous round's flags, then lists and flags the nodes
  /// `outcome` leaves unreached.
  void load(const BroadcastOutcome& outcome) {
    for (NodeId u : unreached) {
      is_unreached[u] = 0;
      covered[u] = 0;
      claimed[u].clear();
    }
    unreached.clear();
    const std::size_t n = outcome.first_rx.size();
    for (NodeId v = 0; v < n; ++v) {
      if (outcome.first_rx[v] == kNeverSlot) unreached.push_back(v);
    }
    if (unreached.empty()) return;
    if (is_unreached.size() != n) {
      is_unreached.assign(n, 0);
      covered.assign(n, 0);
      claimed.assign(n, {});
    }
    for (NodeId u : unreached) is_unreached[u] = 1;
  }

  /// Rebuilds the CSR index of the slots at which each node hears some
  /// neighbor transmit.  Transmissions arrive in slot order, so filling
  /// each node's slice back to front from the last transmission leaves it
  /// sorted without a sort.
  template <typename Net>
  void index_heard(const Net& net, const BroadcastOutcome& outcome) {
    heard_begin.assign(net.num_nodes() + 1, 0);
    Slot prev = 0;
    for (const TxRecord& rec : outcome.transmissions) {
      WSN_ASSERT(rec.slot >= prev);
      prev = rec.slot;
      for (NodeId u : net.neighbors(rec.node)) ++heard_begin[u];
    }
    // Inclusive prefix sum: heard_begin[u] becomes the end of u's slice
    // (and the sentinel heard_begin[n] the total); the back-to-front fill
    // then walks each entry down to its slice's start.
    for (std::size_t u = 1; u < heard_begin.size(); ++u) {
      heard_begin[u] += heard_begin[u - 1];
    }
    heard.resize(heard_begin.back());
    for (auto it = outcome.transmissions.rbegin();
         it != outcome.transmissions.rend(); ++it) {
      for (NodeId u : net.neighbors(it->node)) {
        heard[--heard_begin[u]] = it->slot;
      }
    }
  }

  /// True if some neighbor of `u` transmits in slot `s`.
  [[nodiscard]] bool heard_at(NodeId u, Slot s) const {
    const Slot* base = heard.data();
    return std::binary_search(base + heard_begin[u], base + heard_begin[u + 1],
                              s);
  }

  /// True if this round's repairs already claimed slot `s` at `u`.
  [[nodiscard]] bool claimed_at(NodeId u, Slot s) const {
    const auto& slots = claimed[u];
    return std::find(slots.begin(), slots.end(), s) != slots.end();
  }

  std::vector<NodeId> unreached;
  std::vector<char> is_unreached;
  std::vector<char> covered;
  /// Slots already claimed by this round's repairs, per unreached node, so
  /// two repairs placed in the same round don't collide at a shared victim.
  std::vector<std::vector<Slot>> claimed;
  /// heard[heard_begin[u] .. heard_begin[u + 1]) = sorted slots heard at u.
  std::vector<std::size_t> heard_begin;
  std::vector<Slot> heard;
};

/// The reached neighbor of `u` that got the message first (ties by lower
/// id), or kInvalidNode if no neighbor holds it.
template <typename Net>
[[nodiscard]] NodeId pick_helper(const Net& net,
                                 const BroadcastOutcome& outcome, NodeId u) {
  NodeId helper = kInvalidNode;
  Slot helper_rx = kNeverSlot;
  for (NodeId h : net.neighbors(u)) {
    if (outcome.first_rx[h] == kNeverSlot) continue;  // no message
    if (outcome.first_rx[h] < helper_rx ||
        (outcome.first_rx[h] == helper_rx && h < helper)) {
      helper = h;
      helper_rx = outcome.first_rx[h];
    }
  }
  return helper;
}

/// Optimistic repair phase: gives helpers an immediate retransmission (one
/// slot after their last scheduled transmission), the way the paper's own
/// gray nodes retransmit "in next time slot".  Early retransmissions change
/// downstream collision dynamics, so this iterates to a fixpoint, keeps the
/// best plan seen, and gives up after a few non-improving rounds -- the
/// guaranteed quiet-slot phase finishes whatever is left.
///
/// Each distinct plan is simulated once: an iteration starts from the
/// outcome of the previous iteration's probe, and the returned plan comes
/// with its outcome.
template <typename Net, typename SimT>
ProbedPlan optimistic_repairs(const Net& net, RelayPlan plan,
                              const SimOptions& options, ResolveReport& report,
                              SimT& sim, ResolveScratch& scratch) {
  constexpr std::size_t kPatience = 3;
  constexpr std::size_t kMaxIters = 48;
  constexpr Slot kMaxProbe = 8;  // how far past the helper's last tx we look

  // `outcome` always describes `plan`, and `scratch` is loaded from it.
  BroadcastOutcome outcome = sim.run(net, plan, options);
  scratch.load(outcome);
  if (scratch.unreached.empty()) return {std::move(plan), std::move(outcome)};

  RelayPlan best = plan;
  // While stall == 0, `best` equals `plan` and its outcome is `outcome`;
  // best_outcome is filled only once `plan` moves past `best`.
  BroadcastOutcome best_outcome;
  std::size_t best_unreached = scratch.unreached.size();
  std::size_t stall = 0;

  for (std::size_t iter = 0; iter < kMaxIters && best_unreached > 0; ++iter) {
    scratch.index_heard(net, outcome);

    std::size_t added = 0;
    for (NodeId u : scratch.unreached) {
      if (scratch.covered[u]) continue;
      const NodeId helper = pick_helper(net, outcome, u);
      if (helper == kInvalidNode) continue;
      const Slot helper_rx = outcome.first_rx[helper];

      // Place the retransmission in the earliest slot after the helper's
      // last transmission that (a) is quiet at each of its unreached
      // neighbors, so the repair actually lands, and (b) is not the slot in
      // which any already-reached neighbor got its *first* reception, which
      // the new transmission would knock out.
      auto& offsets = plan.tx_offsets[helper];
      const Slot last_tx =
          offsets.empty() ? helper_rx : helper_rx + offsets.back();
      Slot chosen = 0;
      for (Slot s = last_tx + 1; s <= last_tx + kMaxProbe; ++s) {
        bool ok = true;
        for (NodeId w : net.neighbors(helper)) {
          if (scratch.is_unreached[w] &&
              (scratch.heard_at(w, s) || scratch.claimed_at(w, s))) {
            ok = false;
            break;
          }
          if (!scratch.is_unreached[w] && outcome.first_rx[w] == s) {
            ok = false;
            break;
          }
        }
        if (ok) {
          chosen = s;
          break;
        }
      }
      if (chosen == 0) continue;  // quiet-slot phase will handle this one

      offsets.push_back(chosen - helper_rx);
      added += 1;
      for (NodeId w : net.neighbors(helper)) {
        if (scratch.is_unreached[w]) {
          scratch.covered[w] = 1;
          scratch.claimed[w].push_back(chosen);
          // A stranded relay whose whole neighborhood is already reached
          // forwards nothing anyone needs; getting it the message late and
          // then letting it transmit would only re-collide downstream.
          // Prune its transmissions (it still counts as reached).
          const auto nw = net.neighbors(w);
          const bool all_neighbors_reached = std::all_of(
              nw.begin(), nw.end(),
              [&](NodeId x) { return outcome.first_rx[x] != kNeverSlot; });
          if (all_neighbors_reached && w != plan.source) {
            plan.tx_offsets[w].clear();
          }
        }
      }
    }
    if (added == 0) break;  // interior void; quiet-slot phase handles it
    report.rounds += 1;

    if (stall == 0) best_outcome = std::move(outcome);
    outcome = sim.run(net, plan, options);
    scratch.load(outcome);
    if (scratch.unreached.size() < best_unreached) {
      best = plan;
      best_unreached = scratch.unreached.size();
      stall = 0;
    } else if (++stall >= kPatience) {
      break;
    }
  }
  if (stall == 0) return {std::move(plan), std::move(outcome)};
  return {std::move(best), std::move(best_outcome)};
}

template <typename Net, typename SimT>
RelayPlan resolve_full_reachability(const Net& net, RelayPlan plan,
                                    const SimOptions& caller_options,
                                    ResolveReport* report, SimT& sim) {
  // Probe simulations are plan-construction internals: they must not leak
  // into the caller's observer (metrics/trace describe requested runs, not
  // the resolver's trial broadcasts).
  SimOptions options = caller_options;
  options.observer = nullptr;

  ResolveReport local;
  const std::size_t n = net.num_nodes();
  WSN_EXPECTS(plan.num_nodes() == n);
  ResolveScratch scratch;

  const std::size_t planned_before = plan.planned_tx();
  ProbedPlan probed =
      optimistic_repairs(net, std::move(plan), options, local, sim, scratch);
  plan = std::move(probed.plan);
  BroadcastOutcome outcome = std::move(probed.outcome);
  // Net extra transmissions; the optimistic phase also *prunes* stranded
  // relays, so the difference can be negative -- clamp rather than let the
  // unsigned arithmetic wrap.
  const std::size_t planned_after = plan.planned_tx();
  if (planned_after > planned_before) {
    local.repairs += planned_after - planned_before;
  }

  // Each round strictly grows the reached set by the whole boundary of the
  // unreached region, so n rounds is a safe upper bound.  `outcome` always
  // describes `plan`: each round's repairs are followed by one probe.
  std::vector<NodeId> helpers;
  std::vector<std::vector<NodeId>> slots;  // slots[s] = helpers at t_end+1+s
  for (std::size_t round = 0;; ++round) {
    scratch.load(outcome);
    const std::vector<NodeId>& unreached = scratch.unreached;
    if (unreached.empty()) break;
    if (round == n) {
      // Round budget exhausted without convergence.  Each round strictly
      // grows the reached set, so this cannot happen on any topology the
      // simulator accepts -- but degrade gracefully instead of aborting:
      // report what is left unrepaired and return the plan built so far.
      local.unrepaired = unreached.size();
      break;
    }
    local.rounds += 1;

    Slot t_end = 1;
    for (const TxRecord& rec : outcome.transmissions) {
      t_end = std::max(t_end, rec.slot);
    }

    // Pick helpers: walk the unreached boundary; one helper transmission
    // covers all of its unreached neighbors at once.
    helpers.clear();
    for (NodeId u : unreached) {
      if (scratch.covered[u]) continue;
      const NodeId helper = pick_helper(net, outcome, u);
      if (helper == kInvalidNode) continue;  // deeper in the void; next round
      helpers.push_back(helper);
      for (NodeId covered_now : net.neighbors(helper)) {
        if (scratch.is_unreached[covered_now]) scratch.covered[covered_now] = 1;
      }
    }

    if (helpers.empty()) {
      // Nothing adjacent to the reached region: the rest is disconnected.
      local.unreachable = unreached.size();
      local.unrepaired = unreached.size();
      break;
    }

    // Pack repairs into fresh slots after the old timeline; helpers within
    // 2 hops of each other are serialized so no repair can collide.
    slots.clear();
    for (NodeId h : helpers) {
      std::size_t s = 0;
      for (;; ++s) {
        if (s == slots.size()) {
          slots.emplace_back();
          break;
        }
        const bool clash = std::any_of(
            slots[s].begin(), slots[s].end(), [&](NodeId other) {
              return resolver_core::within_two_hops(net, h, other);
            });
        if (!clash) break;
      }
      slots[s].push_back(h);

      const Slot tx_slot = t_end + 1 + static_cast<Slot>(s);
      const Slot rx_slot = outcome.first_rx[h];
      WSN_ASSERT(tx_slot > rx_slot);
      auto& offsets = plan.tx_offsets[h];
      const Slot offset = tx_slot - rx_slot;
      WSN_ASSERT(offsets.empty() || offset > offsets.back());
      offsets.push_back(offset);
      local.repairs += 1;
    }
    outcome = sim.run(net, plan, options);
  }
  if (report != nullptr) *report = local;
  return plan;
}

}  // namespace wsn::resolver_core
