#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

/// Reading `meshbcast.bench` documents: the schema check, row keying and
/// file loading that the bench gate (analysis/bench_gate.h) and the bench
/// diff (analysis/bench_diff.h) share, so both tools accept the same
/// documents and pair the same rows.
namespace wsn {

/// True for the bench schemas: `meshbcast.bench`,
/// `meshbcast.bench.scenario` and `meshbcast.bench.service`.
[[nodiscard]] bool is_bench_schema(std::string_view schema) noexcept;

/// One result row: its key and every numeric member, in document order.
struct BenchRow {
  std::string key;
  std::vector<std::pair<std::string, double>> metrics;

  /// The numeric member `name`, or nullptr.
  [[nodiscard]] const double* find(std::string_view name) const noexcept;
};

/// The document's `results` rows, keyed by `name`, else `workers=N`; rows
/// with neither are skipped.  A bench may legally repeat a key
/// (scenario_throughput re-measures workers=1 after warming), so repeats
/// are suffixed `#2`, `#3`, ... and two documents' rows pair up
/// positionally per key.
[[nodiscard]] std::vector<BenchRow> read_bench_rows(const JsonValue& doc);

/// The row keyed `key`, or nullptr.
[[nodiscard]] const BenchRow* find_bench_row(const std::vector<BenchRow>& rows,
                                             std::string_view key) noexcept;

/// Parses the JSON file at `path` into `doc`.  On failure appends
/// "<role> <path> does not exist" or "<role> <path> unparseable: <error>"
/// to `notes` and returns false.
[[nodiscard]] bool read_bench_file(const std::string& path,
                                   std::string_view role, JsonValue& doc,
                                   std::vector<std::string>& notes);

}  // namespace wsn
