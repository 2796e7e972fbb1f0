#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/json.h"
#include "topology/factory.h"

namespace perfbench {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += ms_between(s.start, s.end);
  }
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

double Tracer::self_ms(const std::string& name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    total += ms_between(spans_[i].start, spans_[i].end);
  }
  for (const Span& s : spans_) {
    if (s.parent != kNone && name == spans_[s.parent].name) {
      total -= ms_between(s.start, s.end);
    }
  }
  return total;
}

void Result::note(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  detail[key] = buf;
}

void print_result(const Result& result) {
  wsn::JsonWriter detail;
  detail.begin_object().key("detail").begin_object();
  for (const auto& [key, value] : result.detail) detail.member(key, value);
  detail.end_object().end_object();
  std::printf("%s\n", std::move(detail).str().c_str());

  wsn::JsonWriter w;
  w.begin_object()
      .member("correct", result.correct)
      .member("attempted", result.attempted)
      .member("failed", result.failed)
      .key("metrics")
      .begin_object();
  for (const auto& [name, metric] : result.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    w.key(name).begin_object().member("value", value).member("unit",
                                                             metric.unit);
    w.end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", std::move(w).str().c_str());
  std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v;
    const std::vector<std::string>& families = wsn::regular_families();
    v.push_back({"peak_rss_mb", "MB"});
    // paper_sweep
    v.push_back({"topology.build_ms", "ms"});
    v.push_back({"scenario.expand_ms", "ms"});
    v.push_back({"store.compile_ms", "ms"});
    v.push_back({"store.compiles", "count"});
    for (const std::string& f : families) {
      v.push_back({"protocol.paper_plan_ms." + f, "ms"});
    }
    for (const std::string& f : families) {
      v.push_back({"protocol.repairs." + f, "count"});
    }
    v.push_back({"obs.event_sink_ms", "ms"});
    v.push_back({"sim.simulate_ms", "ms"});
    v.push_back({"scenario.job_ms", "ms"});
    v.push_back({"scenario.job_remainder_ms", "ms"});
    v.push_back({"scenario.emit_ms_per_job", "ms"});
    v.push_back({"scenario.queue_wait_ms", "ms"});
    v.push_back({"scenario.scaling_2w", "ratio"});
    // service_mix
    v.push_back({"store.hit_ms", "ms"});
    v.push_back({"store.hit_rate", "ratio"});
    v.push_back({"service.rpc_parse_us", "us"});
    v.push_back({"service.transport_ms", "ms"});
    v.push_back({"fault.arq_ms", "ms"});
    v.push_back({"audit.sink_ms", "ms"});
    v.push_back({"service.sheds", "count"});
    v.push_back({"service.errors", "count"});
    v.push_back({"service.admission_ms", "ms"});
    v.push_back({"service.queue_ms", "ms"});
    v.push_back({"service.exec_ms", "ms"});
    v.push_back({"service.emit_ms", "ms"});
    // Layer ledger of each workload's operation.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        ledgers = {
            {"paper_sweep", {"store", "protocol", "sim", "obs", "scenario"}},
            {"service_mix", {"admission", "queue", "exec", "emit"}}};
    for (const auto& [workload, layers] : ledgers) {
      v.push_back({workload + ".op_ms", "ms"});
      v.push_back({workload + ".layer_sum_ms", "ms"});
      v.push_back({workload + ".remainder_ms", "ms"});
      v.push_back({workload + ".trace_overhead_ms", "ms"});
      for (const std::string& layer : layers) {
        v.push_back({workload + ".share." + layer, "ratio"});
      }
      v.push_back({workload + ".share.remainder", "ratio"});
    }
    return v;
  }();
  return names;
}

}  // namespace perfbench
