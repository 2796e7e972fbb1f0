#include "analysis/bench_gate.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "analysis/bench_doc.h"

namespace wsn {

namespace {

constexpr std::string_view kGatedMetrics[] = {
    "runs_per_sec", "cold_jobs_per_sec", "warm_jobs_per_sec",
    "cache_hit_rate"};
constexpr std::string_view kAdvisoryMetrics[] = {
    "mean_ms",
    "p50_ms",
    "p95_ms",
    // Service loadgen tail latency and admission shedding
    // (meshbcast.bench.service): advisory -- both swing with machine
    // load, and a shed is the admission control *working*.
    "p99_ms",
    "shed_rate",
    "queue_wait_ms_mean",
    // Deduped scenario-bench spread (schema v2): the repeat-aware min/max
    // around the gated means.  Advisory only -- spread wobbles hardest on
    // loaded runners.
    "cold_jobs_per_sec_min",
    "cold_jobs_per_sec_max",
    "warm_jobs_per_sec_min",
    "warm_jobs_per_sec_max",
};

}  // namespace

GateReport compare_bench_docs(const JsonValue& baseline,
                              const JsonValue& current,
                              const GateOptions& options) {
  GateReport report;
  const std::string baseline_schema = baseline.string_or("schema", "");
  const std::string current_schema = current.string_or("schema", "");
  if (!is_bench_schema(baseline_schema)) {
    report.notes.push_back("baseline: unknown schema \"" + baseline_schema +
                           "\"; skipped");
    return report;
  }
  if (!is_bench_schema(current_schema)) {
    report.notes.push_back("current: unknown schema \"" + current_schema +
                           "\"; skipped");
    return report;
  }
  if (baseline_schema != current_schema) {
    report.notes.push_back("schema mismatch: baseline " + baseline_schema +
                           " vs current " + current_schema + "; skipped");
    return report;
  }
  report.bench = current.string_or("bench", "");

  const std::vector<BenchRow> base_rows = read_bench_rows(baseline);
  const std::vector<BenchRow> cur_rows = read_bench_rows(current);

  for (const BenchRow& base : base_rows) {
    const BenchRow* cur = find_bench_row(cur_rows, base.key);
    if (cur == nullptr) {
      if (options.strict) {
        GateMetric m;
        m.entry = base.key;
        m.metric = "(missing)";
        m.gated = true;
        m.regression = true;
        report.metrics.push_back(std::move(m));
      } else {
        report.notes.push_back("baseline entry \"" + base.key +
                               "\" missing from current run");
      }
      continue;
    }
    const auto compare = [&](std::string_view metric, bool gated) {
      const double* base_value = base.find(metric);
      if (base_value == nullptr) return;
      const double* cur_value = cur->find(metric);
      GateMetric m;
      m.entry = base.key;
      m.metric = std::string(metric);
      m.baseline = *base_value;
      m.current = cur_value != nullptr ? *cur_value : 0.0;
      m.ratio = m.baseline > 0.0 ? m.current / m.baseline : 0.0;
      m.gated = gated;
      m.regression = gated && m.baseline > 0.0 &&
                     m.current < m.baseline * (1.0 - options.tolerance);
      report.metrics.push_back(std::move(m));
    };
    for (const std::string_view metric : kGatedMetrics) compare(metric, true);
    for (const std::string_view metric : kAdvisoryMetrics) {
      compare(metric, false);
    }
  }
  for (const BenchRow& cur : cur_rows) {
    if (find_bench_row(base_rows, cur.key) == nullptr) {
      report.notes.push_back("new entry \"" + cur.key +
                             "\" (no baseline; not gated)");
    }
  }
  return report;
}

GateReport gate_bench_files(const std::string& baseline_path,
                            const std::string& current_path,
                            const GateOptions& options) {
  GateReport report;
  JsonValue baseline;
  JsonValue current;
  if (!read_bench_file(baseline_path, "baseline", baseline, report.notes)) {
    // No baseline yet: the current run seeds the trajectory.
    return report;
  }
  if (!read_bench_file(current_path, "current", current, report.notes)) {
    if (options.strict) {
      GateMetric m;
      m.entry = current_path;
      m.metric = "(missing current)";
      m.gated = true;
      m.regression = true;
      report.metrics.push_back(std::move(m));
    }
    return report;
  }
  GateReport compared = compare_bench_docs(baseline, current, options);
  compared.notes.insert(compared.notes.begin(), report.notes.begin(),
                        report.notes.end());
  return compared;
}

GateReport merge_reports(std::vector<GateReport> reports) {
  GateReport merged;
  for (GateReport& r : reports) {
    if (merged.bench.empty()) {
      merged.bench = r.bench;
    } else if (!r.bench.empty()) {
      merged.bench += "," + r.bench;
    }
    for (GateMetric& m : r.metrics) merged.metrics.push_back(std::move(m));
    for (std::string& n : r.notes) merged.notes.push_back(std::move(n));
  }
  return merged;
}

void write_gate_json(std::ostream& out, const GateReport& report,
                     const GateOptions& options) {
  JsonWriter w;
  w.begin_object()
      .member("schema", "meshbcast.bench.gate")
      .member("version", std::uint64_t{1})
      .member("bench", report.bench)
      .member("tolerance", options.tolerance)
      .member("passed", report.passed())
      .member("regressions", std::uint64_t{report.regressions()});
  w.key("metrics").begin_array();
  for (const GateMetric& m : report.metrics) {
    w.begin_object()
        .member("entry", m.entry)
        .member("metric", m.metric)
        .member("baseline", m.baseline)
        .member("current", m.current)
        .member("ratio", m.ratio)
        .member("gated", m.gated)
        .member("regression", m.regression)
        .end_object();
  }
  w.end_array();
  w.key("notes").begin_array();
  for (const std::string& n : report.notes) w.value(n);
  w.end_array().end_object();
  out << std::move(w).str() << "\n";
}

std::string gate_text(const GateReport& report) {
  std::ostringstream out;
  for (const GateMetric& m : report.metrics) {
    char line[256];
    std::snprintf(line, sizeof line, "%-28s %-20s %12.3f -> %12.3f  x%.3f%s%s\n",
                  m.entry.c_str(), m.metric.c_str(), m.baseline, m.current,
                  m.ratio, m.gated ? "" : "  (advisory)",
                  m.regression ? "  REGRESSION" : "");
    out << line;
  }
  for (const std::string& n : report.notes) out << "note: " << n << "\n";
  out << (report.passed() ? "gate: PASS" : "gate: FAIL") << " ("
      << report.regressions() << " regressions, "
      << report.metrics.size() << " metrics)\n";
  return out.str();
}

}  // namespace wsn
