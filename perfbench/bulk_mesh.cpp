// bulk_mesh: million-node broadcasts on implicit lattices, single
// threaded.  One operation is implicit_paper_plan -> BulkSimulator::run ->
// audit_bulk_outcome on one lattice of a fixed rotation (2D-4 and 2D-8 at
// 1000x1000, 3D-6 at 100^3, 2D-3 at 256x256).  It loads the protocol
// resolver and the sim/bulk slot kernel only: no scenario engine, no plan
// store, no event sink -- the workload that bypasses the job path.  2D-3 is
// the lattice that drives the resolver through its multi-round repair loop.
//
// Runnable but not listed in BENCHMARK.json: on a shared host its figures
// follow memory contention from run to run (README.md).

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "pinned.h"
#include "protocol/implicit_plan.h"
#include "protocol/mesh2d4_broadcast.h"
#include "sim/bulk/bulk_audit.h"
#include "sim/bulk/bulk_simulator.h"
#include "topology/implicit.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetups = 3;
constexpr std::size_t kTracedRepeats = 3;

struct Lattice {
  const pinned::BulkLattice* spec;
  wsn::ImplicitLattice lat;
  wsn::BulkSimulator sim;
  std::size_t first_candidate;  // drawn from the seed
};

/// The lattices with their simulator scratch, sized up front.
std::vector<std::unique_ptr<Lattice>> make_lattices(std::uint64_t seed) {
  std::vector<std::unique_ptr<Lattice>> out;
  std::uint64_t salt = 0;
  for (const pinned::BulkLattice& spec : pinned::kBulkRotation) {
    wsn::ImplicitLattice lat =
        wsn::ImplicitLattice::make(spec.family, spec.m, spec.n, spec.l);
    const std::size_t nodes = lat.num_nodes();
    out.push_back(std::make_unique<Lattice>(
        Lattice{&spec, std::move(lat), wsn::BulkSimulator(nodes),
                static_cast<std::size_t>(mix(seed, ++salt) % 4)}));
  }
  return out;
}

const pinned::BulkSource& source_for(const Lattice& lattice,
                                     std::size_t rotation) {
  return lattice.spec->candidates[(lattice.first_candidate + rotation) % 4];
}

/// Every check the benchmark holds a bulk broadcast to.
bool outcome_ok(const Lattice& lattice, const pinned::BulkSource& source,
                const wsn::ResolveReport& report,
                const wsn::BroadcastOutcome& outcome,
                const wsn::BulkAuditReport& audit) {
  if (!audit.conservation_ok() || !audit.full_coverage()) return false;
  if (outcome.stats.tx != source.tx || report.repairs != source.repairs) {
    return false;
  }
  if (std::string(lattice.spec->family) == "2D-4") {
    const auto c = lattice.lat.to_coord(source.source);
    // Bitwise: the audit and the closed form share their arithmetic.
    if (audit.relay_mean_etr != wsn::Mesh2d4Broadcast::analytic_relay_mean_etr(
                                    c.x, c.y, lattice.spec->m,
                                    lattice.spec->n)) {
      return false;
    }
  }
  return true;
}

struct OpSample {
  double plan_ms = 0.0;
  double sim_ms = 0.0;
  double total_ms = 0.0;
  bool ok = false;
};

/// One untraced operation, as the timed loop runs it.
OpSample run_op(Lattice& lattice, const pinned::BulkSource& source) {
  OpSample s;
  const auto t0 = Clock::now();
  wsn::ResolveReport report;
  const wsn::RelayPlan plan =
      wsn::implicit_paper_plan(lattice.lat, source.source, {}, &report);
  const auto t1 = Clock::now();
  const wsn::BroadcastOutcome outcome = lattice.sim.run(lattice.lat, plan);
  const auto t2 = Clock::now();
  const wsn::BulkAuditReport audit =
      wsn::audit_bulk_outcome(lattice.lat, outcome, source.source);
  const auto t3 = Clock::now();
  s.plan_ms = ms_between(t0, t1);
  s.sim_ms = ms_between(t1, t2);
  s.total_ms = ms_between(t0, t3);
  s.ok = outcome_ok(lattice, source, report, outcome, audit);
  return s;
}

/// The traced form of one operation: the plan split into the raw protocol
/// plan and the resolver, every call inside a span.
struct TracedOp {
  double raw_ms = 0.0, resolve_ms = 0.0, kernel_ms = 0.0, audit_ms = 0.0;
  double op_ms = 0.0;
  std::size_t rounds = 0, repairs = 0;
  bool ok = false;
};

TracedOp run_traced_op(Lattice& lattice, const pinned::BulkSource& source) {
  Tracer tracer(true);
  TracedOp t;
  tracer.span("bulk_mesh.op", [&] {
    wsn::RelayPlan raw = tracer.span("protocol.bulk_raw_plan", [&] {
      return wsn::implicit_protocol_plan(lattice.lat, source.source);
    });
    wsn::ResolveReport report;
    const wsn::RelayPlan plan = tracer.span("protocol.bulk_resolve", [&] {
      return wsn::implicit_resolve_full_reachability(lattice.lat,
                                                     std::move(raw), {},
                                                     &report);
    });
    const wsn::BroadcastOutcome outcome = tracer.span(
        "sim.bulk_kernel", [&] { return lattice.sim.run(lattice.lat, plan); });
    const wsn::BulkAuditReport audit = tracer.span("audit.bulk", [&] {
      return wsn::audit_bulk_outcome(lattice.lat, outcome, source.source);
    });
    t.rounds = report.rounds;
    t.repairs = report.repairs;
    t.ok = outcome_ok(lattice, source, report, outcome, audit);
  });
  t.raw_ms = tracer.total_ms("protocol.bulk_raw_plan");
  t.resolve_ms = tracer.total_ms("protocol.bulk_resolve");
  t.kernel_ms = tracer.total_ms("sim.bulk_kernel");
  t.audit_ms = tracer.total_ms("audit.bulk");
  t.op_ms = tracer.total_ms("bulk_mesh.op");
  return t;
}

}  // namespace

Result run_bulk_mesh(const Options& options) {
  Result result;
  std::uint64_t setup_failures = 0;
  std::vector<std::unique_ptr<Lattice>> lattices;

  // Set-up: lattices and kernel scratch, then one verified warm-up
  // rotation.  Repeated; the median is setup_s.
  const std::size_t setups = options.trace ? 1 : kSetups;
  const std::vector<double> setup_s = time_repeated(setups, [&] {
    lattices = make_lattices(options.seed);
    for (auto& lattice : lattices) {
      if (!run_op(*lattice, source_for(*lattice, 0)).ok) ++setup_failures;
    }
  });
  if (setup_failures > 0) result.correct = false;

  if (options.trace) {
    // Untraced and traced operations interleaved, lattice by lattice, on
    // the same source; as in the timed loop, each side keeps its fastest
    // repeat, and the layers come from that one traced execution.
    std::vector<double> untraced_ms, traced_ms, layer_sum_ms;
    double protocol_ms = 0.0, sim_ms = 0.0, audit_ms = 0.0;
    double kernel_s = 0.0, nodes = 0.0;
    for (auto& lattice : lattices) {
      const pinned::BulkSource& source = source_for(*lattice, 0);
      double plain_ms = 0.0;
      TracedOp traced;
      for (std::size_t rep = 0; rep < kTracedRepeats; ++rep) {
        const OpSample p = run_op(*lattice, source);
        const TracedOp t = run_traced_op(*lattice, source);
        result.attempted += 2;
        result.failed += (p.ok ? 0 : 1) + (t.ok ? 0 : 1);
        if (rep == 0 || p.total_ms < plain_ms) plain_ms = p.total_ms;
        if (rep == 0 || t.op_ms < traced.op_ms) traced = t;
      }
      const std::string family = lattice->spec->family;
      result.set("protocol.bulk_raw_plan_ms." + family, traced.raw_ms, "ms");
      result.set("protocol.bulk_resolve_ms." + family, traced.resolve_ms,
                 "ms");
      result.set("protocol.bulk_resolve_rounds." + family,
                 static_cast<double>(traced.rounds), "count");
      result.set("protocol.bulk_repairs." + family,
                 static_cast<double>(traced.repairs), "count");
      result.set("sim.bulk_kernel_ms." + family, traced.kernel_ms, "ms");
      result.set("audit.bulk_ms." + family, traced.audit_ms, "ms");
      untraced_ms.push_back(plain_ms);
      traced_ms.push_back(traced.op_ms);
      layer_sum_ms.push_back(traced.raw_ms + traced.resolve_ms +
                             traced.kernel_ms + traced.audit_ms);
      protocol_ms += traced.raw_ms + traced.resolve_ms;
      sim_ms += traced.kernel_ms;
      audit_ms += traced.audit_ms;
      kernel_s += traced.kernel_ms / 1000.0;
      nodes += static_cast<double>(lattice->lat.num_nodes());
    }
    const double n = static_cast<double>(lattices.size());
    const double op = mean(untraced_ms);
    const double layers = mean(layer_sum_ms);
    result.set("sim.bulk_nodes_per_s", nodes / kernel_s, "1/s");
    result.set("bulk_mesh.op_ms", op, "ms");
    result.set("bulk_mesh.layer_sum_ms", layers, "ms");
    result.set("bulk_mesh.remainder_ms", op - layers, "ms");
    result.set("bulk_mesh.trace_overhead_ms", mean(traced_ms) - op, "ms");
    result.set("bulk_mesh.share.protocol", protocol_ms / n / op, "ratio");
    result.set("bulk_mesh.share.sim", sim_ms / n / op, "ratio");
    result.set("bulk_mesh.share.audit", audit_ms / n / op, "ratio");
    result.set("bulk_mesh.share.remainder", (op - layers) / op, "ratio");
    return result;
  }

  // Timed loop: whole rotations until --seconds have passed.  This path is
  // memory-bound, and on a shared host contention bursts lasting seconds
  // only ever add time; each lattice's figures are therefore its fastest
  // repeat in the run (see README.md).
  const std::size_t n_lattices = lattices.size();
  std::vector<std::vector<double>> op_ms(n_lattices), cpu_ms(n_lattices),
      plan_ms(n_lattices), sim_ms(n_lattices);
  std::size_t rotations = 0;
  const auto start = Clock::now();
  while (ms_since(start) < options.seconds * 1000.0) {
    ++rotations;
    for (std::size_t k = 0; k < n_lattices; ++k) {
      const double cpu0 = process_cpu_s();
      const OpSample s = run_op(*lattices[k], source_for(*lattices[k], rotations));
      cpu_ms[k].push_back((process_cpu_s() - cpu0) * 1000.0);
      ++result.attempted;
      if (!s.ok) ++result.failed;
      op_ms[k].push_back(s.total_ms);
      plan_ms[k].push_back(s.plan_ms);
      sim_ms[k].push_back(s.sim_ms);
    }
  }
  std::vector<double> op_best, cpu_best, plan_best, sim_best;
  for (std::size_t k = 0; k < n_lattices; ++k) {
    op_best.push_back(quantile(op_ms[k], 0.0));
    cpu_best.push_back(quantile(cpu_ms[k], 0.0));
    plan_best.push_back(quantile(plan_ms[k], 0.0));
    sim_best.push_back(quantile(sim_ms[k], 0.0));
  }
  const double ops = static_cast<double>(result.attempted);
  const double rotation_ms = mean(op_best) * static_cast<double>(n_lattices);

  result.set("setup_s", median(setup_s), "s");
  result.set("ops_per_s", static_cast<double>(n_lattices) * 1000.0 / rotation_ms,
             "1/s");
  result.set("cpu_ms_per_op", mean(cpu_best), "ms");
  result.set("success_rate", (ops - static_cast<double>(result.failed)) / ops,
             "ratio");
  // Too few operations for tail percentiles: p50 is the median over the
  // lattices, p99 the slowest lattice.
  result.set("plan_p50_ms", median(plan_best), "ms");
  result.set("simulate_p50_ms", median(sim_best), "ms");
  // Tail percentiles follow host contention from run to run (README.md):
  // reported on the detail line, not gated.
  result.note("plan_p99_ms", quantile(plan_best, 1.0));
  result.note("simulate_p99_ms", quantile(sim_best, 1.0));
  result.note("rotations", static_cast<double>(rotations));
  result.note("plan_samples", ops);
  result.note("simulate_samples", ops);
  result.note("setups", static_cast<double>(setups));
  return result;
}

}  // namespace perfbench
