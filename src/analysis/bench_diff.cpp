#include "analysis/bench_diff.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "analysis/bench_doc.h"

namespace wsn {

namespace {

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

int metric_direction(std::string_view name) {
  // Aggregated variants keep their base direction: cold_jobs_per_sec_min
  // is still a throughput, queue_wait_ms_mean still a latency.
  if (name.find("per_sec") != std::string_view::npos ||
      ends_with(name, "rate")) {
    return 1;
  }
  if (name.find("_ms") != std::string_view::npos ||
      name.find("_ns") != std::string_view::npos) {
    return -1;
  }
  return 0;
}

std::string verdict_for(double a, double b, int direction,
                        double tolerance) {
  if (a == b) return "equal";
  if (direction == 0) return "changed";
  if (a == 0.0) {
    return (b > 0.0) == (direction > 0) ? "improved" : "regressed";
  }
  const double ratio = b / a;
  if (std::fabs(ratio - 1.0) <= tolerance) return "equal";
  const bool better = direction > 0 ? ratio > 1.0 : ratio < 1.0;
  return better ? "improved" : "regressed";
}

}  // namespace

DiffReport diff_bench_docs(const JsonValue& a, const JsonValue& b,
                           const DiffOptions& options) {
  DiffReport report;
  const std::string schema_a = a.string_or("schema", "");
  const std::string schema_b = b.string_or("schema", "");
  if (!is_bench_schema(schema_a)) {
    report.notes.push_back("a: unknown schema \"" + schema_a + "\"; skipped");
    return report;
  }
  if (!is_bench_schema(schema_b)) {
    report.notes.push_back("b: unknown schema \"" + schema_b + "\"; skipped");
    return report;
  }
  if (schema_a != schema_b) {
    report.notes.push_back("schema mismatch: " + schema_a + " vs " +
                           schema_b + "; skipped");
    return report;
  }
  report.bench_a = a.string_or("bench", "");
  report.bench_b = b.string_or("bench", "");

  const std::vector<BenchRow> rows_a = read_bench_rows(a);
  const std::vector<BenchRow> rows_b = read_bench_rows(b);

  for (const BenchRow& row_a : rows_a) {
    const BenchRow* row_b = find_bench_row(rows_b, row_a.key);
    if (row_b == nullptr) {
      DiffMetric m;
      m.entry = row_a.key;
      m.metric = "(entry)";
      m.verdict = "only-a";
      report.metrics.push_back(std::move(m));
      continue;
    }
    for (const auto& [name, value_a] : row_a.metrics) {
      DiffMetric m;
      m.entry = row_a.key;
      m.metric = name;
      m.a = value_a;
      m.direction = metric_direction(name);
      const double* value_b = row_b->find(name);
      if (value_b == nullptr) {
        m.verdict = "only-a";
      } else {
        m.b = *value_b;
        m.ratio = value_a != 0.0 ? *value_b / value_a : 0.0;
        m.verdict = verdict_for(value_a, *value_b, m.direction,
                                options.tolerance);
      }
      report.metrics.push_back(std::move(m));
    }
    for (const auto& [name, value_b] : row_b->metrics) {
      if (row_a.find(name) != nullptr) continue;
      DiffMetric m;
      m.entry = row_a.key;
      m.metric = name;
      m.b = value_b;
      m.direction = metric_direction(name);
      m.verdict = "only-b";
      report.metrics.push_back(std::move(m));
    }
  }
  for (const BenchRow& row_b : rows_b) {
    if (find_bench_row(rows_a, row_b.key) != nullptr) continue;
    DiffMetric m;
    m.entry = row_b.key;
    m.metric = "(entry)";
    m.verdict = "only-b";
    report.metrics.push_back(std::move(m));
  }
  return report;
}

DiffReport diff_bench_files(const std::string& path_a,
                            const std::string& path_b,
                            const DiffOptions& options) {
  DiffReport report;
  JsonValue a;
  JsonValue b;
  const bool ok_a = read_bench_file(path_a, "a", a, report.notes);
  const bool ok_b = read_bench_file(path_b, "b", b, report.notes);
  if (!ok_a || !ok_b) return report;
  DiffReport diffed = diff_bench_docs(a, b, options);
  diffed.notes.insert(diffed.notes.begin(), report.notes.begin(),
                      report.notes.end());
  return diffed;
}

void write_diff_json(std::ostream& out, const DiffReport& report,
                     const DiffOptions& options) {
  JsonWriter w;
  w.begin_object()
      .member("schema", "meshbcast.bench.diff")
      .member("version", std::uint64_t{1})
      .member("bench_a", report.bench_a)
      .member("bench_b", report.bench_b)
      .member("tolerance", options.tolerance)
      .member("improved", std::uint64_t{report.improved()})
      .member("regressed", std::uint64_t{report.regressed()});
  w.key("metrics").begin_array();
  for (const DiffMetric& m : report.metrics) {
    w.begin_object()
        .member("entry", m.entry)
        .member("metric", m.metric)
        .member("a", m.a)
        .member("b", m.b)
        .member("ratio", m.ratio)
        .member("direction", std::int64_t{m.direction})
        .member("verdict", m.verdict)
        .end_object();
  }
  w.end_array();
  w.key("notes").begin_array();
  for (const std::string& n : report.notes) w.value(n);
  w.end_array().end_object();
  out << std::move(w).str() << "\n";
}

std::string diff_text(const DiffReport& report) {
  std::ostringstream out;
  for (const DiffMetric& m : report.metrics) {
    char line[256];
    const char* arrow = m.direction > 0 ? "^" : m.direction < 0 ? "v" : "-";
    std::snprintf(line, sizeof line,
                  "%-28s %-24s %12.3f -> %12.3f  x%.3f %s %s\n",
                  m.entry.c_str(), m.metric.c_str(), m.a, m.b, m.ratio,
                  arrow, m.verdict.c_str());
    out << line;
  }
  for (const std::string& n : report.notes) out << "note: " << n << "\n";
  out << "diff: " << report.improved() << " improved, "
      << report.regressed() << " regressed, " << report.count("equal")
      << " equal, " << report.count("changed") << " changed ("
      << report.metrics.size() << " metrics)\n";
  return out.str();
}

}  // namespace wsn
