#include "analysis/bench_doc.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace wsn {

bool is_bench_schema(std::string_view schema) noexcept {
  return schema == "meshbcast.bench" ||
         schema == "meshbcast.bench.scenario" ||
         schema == "meshbcast.bench.service";
}

const double* BenchRow::find(std::string_view name) const noexcept {
  for (const auto& [member, value] : metrics) {
    if (member == name) return &value;
  }
  return nullptr;
}

std::vector<BenchRow> read_bench_rows(const JsonValue& doc) {
  std::vector<BenchRow> out;
  std::map<std::string, std::size_t> key_counts;
  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is_array()) return out;
  for (const JsonValue& row : results->as_array()) {
    if (!row.is_object()) continue;
    BenchRow entry;
    if (const JsonValue* name = row.find("name");
        name != nullptr && name->is_string()) {
      entry.key = name->as_string();
    } else if (const JsonValue* workers = row.find("workers")) {
      std::uint64_t w = 0;
      if (workers->to_u64(w)) entry.key = "workers=" + std::to_string(w);
    }
    if (entry.key.empty()) continue;
    const std::size_t occurrence = ++key_counts[entry.key];
    if (occurrence > 1) {
      entry.key.push_back('#');
      entry.key.append(std::to_string(occurrence));
    }
    for (const auto& [member, value] : row.as_object()) {
      if (value.is_number()) {
        entry.metrics.emplace_back(member, value.as_number());
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

const BenchRow* find_bench_row(const std::vector<BenchRow>& rows,
                               std::string_view key) noexcept {
  for (const BenchRow& row : rows) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

bool read_bench_file(const std::string& path, std::string_view role,
                     JsonValue& doc, std::vector<std::string>& notes) {
  if (!std::filesystem::exists(path)) {
    notes.push_back(std::string(role) + " " + path + " does not exist");
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!parse_json(buffer.str(), doc, &error)) {
    notes.push_back(std::string(role) + " " + path +
                    " unparseable: " + error);
    return false;
  }
  return true;
}

}  // namespace wsn
