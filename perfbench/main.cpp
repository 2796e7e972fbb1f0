// meshbench: the repository's benchmark program.
//
//   meshbench --workload paper_sweep|service_mix|bulk_mesh --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Prints a detail line and then, as the last line of stdout, the result
// object {"correct","attempted","failed","metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// perfbench/run.py builds this binary and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int usage() {
  std::fputs(
      "usage: meshbench --workload paper_sweep|service_mix|bulk_mesh "
      "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
      stderr);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.work_dir.empty()) return usage();
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "meshbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  perfbench::Result result;
  if (options.workload == "paper_sweep") {
    result = perfbench::run_paper_sweep(options);
  } else if (options.workload == "service_mix") {
    result = perfbench::run_service_mix(options);
  } else if (options.workload == "bulk_mesh") {
    result = perfbench::run_bulk_mesh(options);
  } else {
    return usage();
  }
  // Peak RSS moves by whole 24 MB event-sink blocks from run to run, with
  // the allocator's per-thread arenas, so it is reported but not gated.
  if (options.trace) {
    result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    // Every per-layer metric appears; a layer this workload does not
    // exercise reads 0.
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      if (result.metrics.count(name) == 0) result.set(name, 0.0, unit);
    }
  } else {
    result.note("peak_rss_mb", perfbench::peak_rss_mb());
  }
  if (result.attempted == 0) result.correct = false;
  if (result.failed > 0) result.correct = false;
  perfbench::print_result(result);
  return 0;
}
