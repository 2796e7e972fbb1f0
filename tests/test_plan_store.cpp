// PlanStore facade: fingerprint separation, tier resolution order, the
// self-healing corrupted-artifact path, cache bypass for stateful options,
// and the load-bearing equivalence claims -- cache-hit plans simulate to
// byte-identical stats, and a store-backed sweep equals a storeless one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/sweep.h"
#include "fault/fault_model.h"
#include "obs/metrics.h"
#include "protocol/registry.h"
#include "store/plan_store.h"
#include "topology/factory.h"

namespace wsn {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wsn_test_plan_store_" + tag)) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

PlanStore::CompileFn paper_compile(const Topology& topo, NodeId source) {
  return [&topo, source](ResolveReport& report) {
    return paper_plan(topo, source, {}, &report);
  };
}

void expect_stats_identical(const BroadcastStats& a, const BroadcastStats& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.tx, b.tx);
  EXPECT_EQ(a.rx, b.rx);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.lost_to_fading, b.lost_to_fading);
  EXPECT_EQ(a.lost_to_crash, b.lost_to_crash);
  EXPECT_EQ(a.delay, b.delay);
  // Bit-exact, not approximately equal: a cached plan is the same plan.
  EXPECT_EQ(a.tx_energy, b.tx_energy);
  EXPECT_EQ(a.rx_energy, b.rx_energy);
}

TEST(PlanStore, KeysSeparateProtocolsTopologiesSourcesAndHorizons) {
  // 2D-4 vs 2D-8 at identical dims wire the same node set differently;
  // the adjacency digest must keep their keys apart.
  const auto mesh4 = make_mesh("2D-4", 8, 6);
  const auto mesh8 = make_mesh("2D-8", 8, 6);
  const PlanKey base = fingerprint_plan_request(*mesh4, 0, "paper").key;
  EXPECT_NE(fingerprint_plan_request(*mesh8, 0, "paper").key, base);

  // Same topology, different protocol id.
  EXPECT_NE(fingerprint_plan_request(*mesh4, 0, "cds").key, base);
  // Different source.
  EXPECT_NE(fingerprint_plan_request(*mesh4, 1, "paper").key, base);
  // Different probe horizon (the one SimOptions field probes observe).
  SimOptions short_horizon;
  short_horizon.max_slots = 64;
  EXPECT_NE(fingerprint_plan_request(*mesh4, 0, "paper", short_horizon).key,
            base);
  // Energy parameters must NOT shatter the key.
  SimOptions heavy_packets;
  heavy_packets.packet_bits = 4096;
  EXPECT_EQ(fingerprint_plan_request(*mesh4, 0, "paper", heavy_packets).key,
            base);
  // Deterministic across processes: the same request re-hashes identically.
  EXPECT_EQ(fingerprint_plan_request(*mesh4, 0, "paper").key, base);
}

TEST(PlanStore, TierProgressionCompiledThenMemoryThenDisk) {
  const TempDir tmp("tiers");
  const auto topo = make_mesh("2D-4", 8, 6);

  PlanStore::Config config;
  config.disk_dir = tmp.path.string();
  PlanStore store(config);
  ASSERT_NE(store.disk(), nullptr);
  ASSERT_TRUE(store.disk()->ok());

  PlanStore::Origin origin{};
  const auto first = store.fetch_or_compile(*topo, 3, "paper", {},
                                            paper_compile(*topo, 3), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kCompiled);
  const auto second = store.fetch_or_compile(*topo, 3, "paper", {},
                                             paper_compile(*topo, 3), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kMemory);
  EXPECT_EQ(second.get(), first.get());  // one shared immutable plan

  // A fresh store over the same directory: cold memory, warm disk.
  PlanStore reopened(config);
  const auto third = reopened.fetch_or_compile(
      *topo, 3, "paper", {}, paper_compile(*topo, 3), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kDisk);
  EXPECT_EQ(third->plan.total_offsets(), first->plan.total_offsets());
  EXPECT_EQ(reopened.stats().disk_hits, 1u);
  EXPECT_EQ(reopened.stats().compiles, 0u);

  // ...and the disk hit populated the memory tier.
  (void)reopened.fetch_or_compile(*topo, 3, "paper", {},
                                  paper_compile(*topo, 3), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kMemory);
}

TEST(PlanStore, CorruptedArtifactIsRecompiledAndRewritten) {
  const TempDir tmp("selfheal");
  const auto topo = make_mesh("2D-4", 8, 6);
  PlanStore::Config config;
  config.disk_dir = tmp.path.string();

  std::string artifact;
  {
    PlanStore store(config);
    (void)store.fetch_or_compile(*topo, 3, "paper", {},
                                 paper_compile(*topo, 3));
    artifact = store.disk()->artifact_path(
        fingerprint_plan_request(*topo, 3, "paper"));
  }
  ASSERT_TRUE(std::filesystem::exists(artifact));
  {
    std::fstream file(artifact,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(70);
    const char garbage = '\x5a';
    file.write(&garbage, 1);
    file.seekp(71);
    file.write(&garbage, 1);
  }

  PlanStore store(config);
  PlanStore::Origin origin{};
  const auto healed = store.fetch_or_compile(*topo, 3, "paper", {},
                                             paper_compile(*topo, 3), &origin);
  // Never trusted, never fatal: the damage is a miss that recompiles.
  EXPECT_EQ(origin, PlanStore::Origin::kCompiled);
  EXPECT_EQ(store.stats().disk_rejects, 1u);
  healed->plan.validate();

  // The recompile rewrote the artifact; a third store loads it cleanly.
  PlanStore verify(config);
  (void)verify.fetch_or_compile(*topo, 3, "paper", {},
                                paper_compile(*topo, 3), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kDisk);
}

TEST(PlanStore, StatefulOptionsBypassEveryTier) {
  const auto topo = make_mesh("2D-4", 8, 6);
  PlanStore store;
  FaultModel perfect;  // any installed model makes probes stateful
  SimOptions options;
  options.faults = &perfect;

  PlanStore::Origin origin{};
  const auto a = store.fetch_or_compile(*topo, 3, "paper", options,
                                        paper_compile(*topo, 3), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kBypass);
  const auto b = store.fetch_or_compile(*topo, 3, "paper", options,
                                        paper_compile(*topo, 3), &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kBypass);
  EXPECT_NE(a.get(), b.get());  // nothing was cached
  EXPECT_EQ(store.stats().bypasses, 2u);
  EXPECT_EQ(store.memory().size(), 0u);
}

TEST(PlanStore, CacheHitPlansSimulateByteIdentically) {
  const TempDir tmp("identical");
  const auto topo = make_mesh("2D-4", 8, 6);
  PlanStore::Config config;
  config.disk_dir = tmp.path.string();

  ResolveReport fresh_report;
  const RelayPlan fresh = paper_plan(*topo, 5, {}, &fresh_report);
  Simulator sim;
  const BroadcastStats want = sim.run(*topo, fresh, {}).stats;

  { // warm the artifact directory
    PlanStore warmer(config);
    (void)warmer.fetch_or_compile(*topo, 5, "paper", {},
                                  paper_compile(*topo, 5));
  }
  PlanStore store(config);
  PlanStore::Origin origin{};
  const auto stored = store.fetch_or_compile(*topo, 5, "paper", {},
                                             paper_compile(*topo, 5), &origin);
  ASSERT_EQ(origin, PlanStore::Origin::kDisk);
  const BroadcastStats disk_stats = sim.run(*topo, stored->plan, {}).stats;
  expect_stats_identical(disk_stats, want);
  EXPECT_EQ(stored->report.repairs, fresh_report.repairs);

  // And again through the memory tier + the RelayPlan convenience wrapper.
  ResolveReport cached_report;
  const RelayPlan cached =
      paper_plan_cached(*topo, 5, {}, store, &cached_report, &origin);
  EXPECT_EQ(origin, PlanStore::Origin::kMemory);
  EXPECT_EQ(cached.tx_offsets, fresh.tx_offsets);
  EXPECT_EQ(cached_report.unrepaired, fresh_report.unrepaired);
  expect_stats_identical(sim.run(*topo, cached, {}).stats, want);
}

TEST(PlanStore, SweepWithSharedStoreMatchesStorelessSweep) {
  const auto topo = make_mesh("2D-8", 8, 6);
  const SweepResult plain = sweep_all_sources(*topo, {}, /*workers=*/2);

  PlanStore store;
  const SweepResult cached =
      sweep_all_sources(*topo, {}, /*workers=*/2, &store);
  // Second store-backed sweep: every plan is a memory hit.
  const SweepResult hot = sweep_all_sources(*topo, {}, /*workers=*/2, &store);
  EXPECT_EQ(store.stats().compiles, topo->num_nodes());

  ASSERT_EQ(cached.per_source.size(), plain.per_source.size());
  for (std::size_t i = 0; i < plain.per_source.size(); ++i) {
    expect_stats_identical(cached.per_source[i].stats,
                           plain.per_source[i].stats);
    expect_stats_identical(hot.per_source[i].stats,
                           plain.per_source[i].stats);
    EXPECT_EQ(cached.per_source[i].repairs, plain.per_source[i].repairs);
  }
}

TEST(PlanStore, ConcurrentFetchesShareOneStore) {
  // Run under TSan in CI: many threads racing the same keys through the
  // full tier stack (digest memoization, memory tier, disk tier).
  const TempDir tmp("concurrent");
  const auto topo = make_mesh("2D-4", 8, 6);
  PlanStore::Config config;
  config.disk_dir = tmp.path.string();
  PlanStore store(config);
  MetricsRegistry registry;
  store.bind_metrics(registry);

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &topo, t] {
      for (std::size_t i = 0; i < 32; ++i) {
        const auto source = static_cast<NodeId>((t + i) % 8);
        const auto stored = store.fetch_or_compile(
            *topo, source, "paper", {}, paper_compile(*topo, source));
        stored->plan.validate();
        ASSERT_EQ(stored->plan.source(), source);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every fetch resolved; racing compiles of one key are allowed, but the
  // store converges to one artifact per distinct request.
  EXPECT_EQ(store.disk()->artifact_count(), 8u);
  EXPECT_EQ(store.memory().size(), 8u);
  EXPECT_EQ(registry.counter("store.compiles").value(),
            store.stats().compiles);
}

// Four threads released together on one cold key: the compile is
// single-flight, so exactly one of them compiles (slowly, to hold the
// race open) and the other three are served the same plan from memory.
TEST(PlanStore, RacingColdFetchesCompileOnce) {
  const auto topo = make_mesh("2D-4", 8, 6);
  PlanStore store;
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> compile_calls{0};
  const PlanStore::CompileFn compile = [&](ResolveReport& report) {
    compile_calls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return paper_plan(*topo, 5, {}, &report);
  };

  std::latch start(kThreads);
  std::vector<PlanStore::Origin> origins(kThreads);
  std::vector<std::shared_ptr<const StoredPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      plans[t] = store.fetch_or_compile(*topo, 5, "paper", {}, compile,
                                        &origins[t]);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(store.stats().compiles, 1u);
  EXPECT_EQ(compile_calls.load(), 1u);
  std::size_t compiled = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    if (origins[t] == PlanStore::Origin::kCompiled) ++compiled;
    EXPECT_EQ(plans[t], plans[0]);
  }
  EXPECT_EQ(compiled, 1u);
}

TEST(PlanStore, MetricsBindingMirrorsFacadeCounters) {
  const auto topo = make_mesh("2D-4", 6, 4);
  PlanStore store;
  MetricsRegistry registry;
  store.bind_metrics(registry);

  (void)store.fetch_or_compile(*topo, 0, "paper", {},
                               paper_compile(*topo, 0));
  (void)store.fetch_or_compile(*topo, 0, "paper", {},
                               paper_compile(*topo, 0));
  EXPECT_EQ(registry.counter("store.compiles").value(), 1u);
  EXPECT_EQ(registry.counter("store.mem.hits").value(), 1u);
  EXPECT_EQ(registry.counter("store.mem.misses").value(), 1u);
}

TEST(PlanStore, ExhaustedDiskRetriesFallBackToRecompile) {
  // A disk tier whose every read fails transiently: the facade retries
  // the bounded number of times, then recompiles -- slow, never wrong,
  // never crashed -- and the retry spend is mirrored into the metrics.
  const TempDir tmp("io_error_fallback");
  const auto topo = make_mesh("2D-4", 6, 4);
  PlanStore::Config config;
  config.disk_dir = tmp.path.string();
  PlanStore store(config);
  MetricsRegistry registry;
  store.bind_metrics(registry);

  (void)store.fetch_or_compile(*topo, 0, "paper", {},
                               paper_compile(*topo, 0));

  struct InjectorGuard {
    ~InjectorGuard() { PlanDiskStore::set_load_fault_injector(nullptr); }
  } guard;
  PlanDiskStore::set_load_fault_injector(
      +[](PlanSerdeStatus, int) { return PlanSerdeStatus::kIoError; });

  // Fresh store over the same directory (cold memory tier) so the fetch
  // must go through the failing disk reads.
  PlanStore cold(config);
  MetricsRegistry cold_registry;
  cold.bind_metrics(cold_registry);
  PlanStore::Origin origin = PlanStore::Origin::kMemory;
  const auto value = cold.fetch_or_compile(*topo, 0, "paper", {},
                                           paper_compile(*topo, 0), &origin);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(origin, PlanStore::Origin::kCompiled);
  EXPECT_EQ(value->plan.num_nodes(), topo->num_nodes());
  const PlanStore::Stats stats = cold.stats();
  EXPECT_EQ(stats.read_retries,
            static_cast<std::uint64_t>(PlanDiskStore::kLoadAttempts - 1));
  EXPECT_EQ(cold_registry.counter("store.read_retries").value(),
            stats.read_retries);
}

}  // namespace
}  // namespace wsn
