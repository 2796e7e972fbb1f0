#pragma once

// Shared plumbing for the benchmark workloads: options, clocks, process
// resource readings, order statistics, seeded draws, the in-memory span
// tracer and the result line the benchmark contract asks for.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for results files and journals (inside the checkout).
  std::string work_dir;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// User + system CPU of the whole process, seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of the process, MB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// splitmix64 of (seed, salt): every seeded draw in the benchmark comes
/// from here, so one --seed fixes every input.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Small deterministic generator over `mix`.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  [[nodiscard]] std::uint64_t next() { return mix(state_, ++counter_); }
  /// Uniform in [0, n).
  [[nodiscard]] std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
  std::uint64_t counter_ = 0;
};

/// FNV-1a 64 over `bytes`, continuing from `hash`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ull);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// In-memory span recorder for the traced run.  Spans are timed around
/// calls into the library's public functions, nest (each keeps the index
/// of the span that was open when it started), and stay in memory until
/// the workload aggregates them.  A disabled tracer calls straight
/// through without reading the clock, which is how the tracing overhead
/// is measured.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  template <typename F>
  decltype(auto) span(const char* name, F&& body) {
    if (!enabled_) return body();
    const std::size_t id = spans_.size();
    spans_.push_back({name, open_, Clock::now(), {}});
    const std::size_t parent = open_;
    open_ = id;
    struct Close {
      Tracer& t;
      std::size_t id, parent;
      ~Close() {
        t.spans_[id].end = Clock::now();
        t.open_ = parent;
      }
    } close{*this, id, parent};
    return body();
  }

  /// Sum of the durations of every span named `name`, ms.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Number of spans named `name`.
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Total minus the time covered by each span's direct children, ms.
  [[nodiscard]] double self_ms(const std::string& name) const;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Span {
    const char* name;
    std::size_t parent;
    Clock::time_point start, end;
  };
  bool enabled_;
  std::size_t open_ = kNone;
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the contract's final JSON line plus a detail
/// line (sample counts, digests) printed just before it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> detail;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    detail[key] = value;
  }
  void note(const std::string& key, double value);
};

/// Prints the detail line, then the result line, on stdout.
void print_result(const Result& result);

/// Runs `fn` `count` times and returns the wall time of each call in s.
template <typename F>
std::vector<double> time_repeated(std::size_t count, F&& fn) {
  std::vector<double> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = Clock::now();
    fn();
    out.push_back(ms_since(t) / 1000.0);
  }
  return out;
}

// Workload entry points (one translation unit each).
[[nodiscard]] Result run_paper_sweep(const Options& options);
[[nodiscard]] Result run_service_mix(const Options& options);
[[nodiscard]] Result run_bulk_mesh(const Options& options);

/// Every per-layer metric of the gated workloads (paper_sweep and
/// service_mix) with its unit, in report order.  A traced run reports all
/// of them; those a workload does not exercise read 0.  bulk_mesh's traced
/// run adds its own.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

}  // namespace perfbench
