// service_mix: an in-process MeshbcastService on loopback TCP (2 workers,
// memory-only plan store, no journal, no timeline) driven by two blocking
// RpcClient connections in a closed loop -- meshbcastd's clients are
// one-in-flight callers by contract.  Out of every 100 requests:
//
//   80 warm `plan` requests over a working set compiled during set-up
//      (store reads);
//   10 cold `plan` requests whose (family, dims, source) never repeats
//      within a run (store writes);
//   10 `simulate` requests: about 3/4 plain paper jobs over warm plans,
//      about 1/4 lossy (iid 0.1, adaptive recovery) with "audit":true, the
//      jobs that genuinely need the event sink.
//
// It loads the service/common transport path and store reads beside
// writes; the simulate split lets a change to unaudited jobs move
// simulate_p50_ms and leave simulate_p99_ms alone.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/json.h"
#include "fault/adaptive.h"
#include "fault/models.h"
#include "harness.h"
#include "obs/audit/auditor.h"
#include "obs/event_sink.h"
#include "obs/observer.h"
#include "protocol/registry.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "service/client.h"
#include "service/journal.h"
#include "service/rpc.h"
#include "service/server.h"
#include "sim/simulator.h"
#include "store/fingerprint.h"
#include "store/plan_store.h"
#include "topology/factory.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetups = 3;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWorkingSet = 256;
constexpr std::size_t kSimPlain = 36;
constexpr std::size_t kSimLossy = 12;
constexpr std::size_t kWarmupPerClient = 200;

struct PlanKey {
  std::string family;
  int m = 0, n = 0, l = 1;
  std::uint32_t source = 0;

  [[nodiscard]] std::string dims_json() const {
    std::string d = "[";
    d += std::to_string(m);
    d += ',';
    d += std::to_string(n);
    if (family == "3D-6") {
      d += ',';
      d += std::to_string(l);
    }
    return d + "]";
  }
  [[nodiscard]] std::string topo_key() const {
    return family + "/" + dims_json();
  }
  [[nodiscard]] std::string id() const {
    return topo_key() + "/" + std::to_string(source);
  }
  [[nodiscard]] std::size_t nodes() const {
    return static_cast<std::size_t>(m) * static_cast<std::size_t>(n) *
           static_cast<std::size_t>(l);
  }
};

struct PlanExpect {
  std::string fingerprint;
  std::uint64_t planned_tx = 0;
  std::uint64_t repairs = 0;
};

/// Offline references: the same requests answered through a local
/// PlanStore and run_scenario_job, never through the service.
class Offline {
 public:
  PlanExpect plan(const PlanKey& key) {
    const wsn::Topology& topo = topology(key);
    wsn::SimOptions options;
    const auto stored = store_.fetch_or_compile(
        topo, key.source, "paper", options,
        [&](wsn::ResolveReport& report) {
          return wsn::paper_plan(topo, key.source, options, &report);
        });
    PlanExpect e;
    e.fingerprint =
        wsn::fingerprint_plan_request(digest(key), key.source, "paper",
                                      options)
            .hex();
    e.planned_tx = stored->plan.total_offsets();
    e.repairs = stored->report.repairs;
    return e;
  }

  /// The record a `simulate` payload must answer with.
  std::string simulate_record(const std::string& payload) {
    wsn::RpcRequest req;
    wsn::RpcError rpc_error;
    wsn::ScenarioSpec spec;
    wsn::JobMatrix matrix;
    std::string error;
    if (!wsn::parse_rpc_request(payload, req, rpc_error) ||
        !wsn::parse_scenario_spec(req.simulate.spec_doc, spec, error) ||
        !wsn::expand_jobs(std::move(spec), matrix, error) ||
        matrix.jobs.size() != 1) {
      return "";
    }
    return wsn::run_scenario_job(matrix, matrix.jobs[0], sim_, &store_,
                                 req.simulate.audit);
  }

  const wsn::Topology& topology(const PlanKey& key) {
    auto& slot = topologies_[key.topo_key()];
    if (!slot) slot = wsn::make_mesh(key.family, key.m, key.n, key.l);
    return *slot;
  }
  const wsn::TopologyDigest& digest(const PlanKey& key) {
    auto it = digests_.find(key.topo_key());
    if (it == digests_.end()) {
      it = digests_.emplace(key.topo_key(), wsn::digest_topology(topology(key)))
               .first;
    }
    return it->second;
  }

 private:
  wsn::PlanStore store_;
  wsn::Simulator sim_;
  std::unordered_map<std::string, std::unique_ptr<wsn::Topology>> topologies_;
  std::unordered_map<std::string, wsn::TopologyDigest> digests_;
};

std::string plan_payload(const PlanKey& key, std::uint64_t id) {
  return "{\"type\":\"plan\",\"id\":" + std::to_string(id) +
         ",\"family\":\"" + key.family + "\",\"dims\":" + key.dims_json() +
         ",\"source\":" + std::to_string(key.source) + "}";
}

std::string simulate_payload(const PlanKey& key, bool lossy) {
  std::string p = "{\"type\":\"simulate\",\"family\":\"" + key.family +
                  "\",\"dims\":" + key.dims_json() + ",\"sources\":[" +
                  std::to_string(key.source) + "],\"protocols\":[\"paper\"]";
  if (lossy) {
    p += ",\"faults\":[{\"kind\":\"iid\",\"loss\":0.1}],"
         "\"recovery\":[\"adaptive\"],\"audit\":true";
  }
  return p + "}";
}

/// Paper-sized instance of `family` with `source`: the warm key space.
PlanKey paper_key(const std::string& family, std::uint32_t source) {
  PlanKey k;
  k.family = family;
  if (family == "3D-6") {
    k.m = k.n = k.l = 8;
  } else {
    k.m = 32;
    k.n = 16;
  }
  k.source = source;
  return k;
}

/// A cold key: dims that never match the paper-sized warm set (2D sides in
/// [12, 28], 3D sides in [4, 7]); the source's parity is the client's, so
/// the two clients' cold keys are disjoint.
PlanKey cold_key(Rng& rng, std::size_t client) {
  PlanKey k;
  k.family = wsn::regular_families()[rng.below(4)];
  if (k.family == "3D-6") {
    k.m = 4 + static_cast<int>(rng.below(4));
    k.n = 4 + static_cast<int>(rng.below(4));
    k.l = 4 + static_cast<int>(rng.below(4));
  } else {
    k.m = 12 + static_cast<int>(rng.below(17));
    k.n = 12 + static_cast<int>(rng.below(17));
  }
  const std::uint64_t half = k.nodes() / 2;
  k.source = static_cast<std::uint32_t>(2 * rng.below(half) + client);
  return k;
}

/// Everything the mix draws from, fixed by the seed.
struct MixInputs {
  std::vector<PlanKey> warm;
  std::vector<PlanExpect> warm_expect;
  std::vector<PlanKey> sim_keys;
  std::vector<std::string> sim_payloads;  // kSimPlain plain, then lossy
  std::vector<std::string> sim_expect;
};

MixInputs make_inputs(std::uint64_t seed, Offline& offline) {
  MixInputs in;
  Rng rng(mix(seed, 0x5e41ce));
  std::vector<PlanKey> all;
  for (const std::string& family : wsn::regular_families()) {
    for (std::uint32_t s = 0; s < 512; ++s) all.push_back(paper_key(family, s));
  }
  rng.shuffle(all);
  in.warm.assign(all.begin(), all.begin() + kWorkingSet);
  for (const PlanKey& k : in.warm) in.warm_expect.push_back(offline.plan(k));
  for (std::size_t i = 0; i < kSimPlain + kSimLossy; ++i) {
    const PlanKey& k = in.warm[rng.below(kWorkingSet)];
    in.sim_keys.push_back(k);
    in.sim_payloads.push_back(simulate_payload(k, i >= kSimPlain));
    in.sim_expect.push_back(offline.simulate_record(in.sim_payloads.back()));
  }
  return in;
}

enum Kind : std::uint8_t { kWarm = 0, kCold = 1, kSim = 2 };

struct Sample {
  Kind kind = kWarm;
  std::uint32_t index = 0;  // warm key, cold key (per client) or sim payload
  bool transport_ok = false;
  double ms = 0.0;
  double end_ms = 0.0;  // completion, from the start of the loop
  std::string response;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::vector<PlanKey> cold;
  std::vector<std::string> payloads;  // kept for the parse measurement
};

/// One client's closed loop until `deadline` (or `count` requests).
/// `used` holds the cold keys this client already sent to the daemon.
void client_loop(wsn::RpcClient& client, const MixInputs& in,
                 std::uint64_t seed, std::size_t index,
                 std::unordered_set<std::string>& used,
                 Clock::time_point deadline, std::size_t count,
                 Tracer& tracer, bool keep_payloads, ClientLog& log,
                 std::atomic<std::uint64_t>* completed = nullptr) {
  const auto origin = Clock::now();
  Rng rng(mix(seed, 0xc11e47 + index));
  std::vector<Kind> deck;
  for (int i = 0; i < 100; ++i) {
    deck.push_back(i < 80 ? kWarm : i < 90 ? kCold : kSim);
  }
  std::size_t next = deck.size();
  std::uint64_t id = 0;
  std::string error;
  for (std::size_t done = 0; done < count; ++done) {
    if (count == ~std::size_t{0} && Clock::now() >= deadline) break;
    if (next == deck.size()) {
      rng.shuffle(deck);
      next = 0;
    }
    Sample s;
    s.kind = deck[next++];
    std::string payload;
    if (s.kind == kWarm) {
      s.index = static_cast<std::uint32_t>(rng.below(in.warm.size()));
      payload = plan_payload(in.warm[s.index], ++id);
    } else if (s.kind == kCold) {
      PlanKey key = cold_key(rng, index);
      while (!used.insert(key.id()).second) key = cold_key(rng, index);
      s.index = static_cast<std::uint32_t>(log.cold.size());
      payload = plan_payload(key, ++id);
      log.cold.push_back(std::move(key));
    } else {
      const bool lossy = rng.below(4) == 0;
      s.index = static_cast<std::uint32_t>(
          lossy ? kSimPlain + rng.below(kSimLossy) : rng.below(kSimPlain));
      payload = in.sim_payloads[s.index];
    }
    const char* span = s.kind == kSim ? "client.simulate" : "client.plan";
    const auto t0 = Clock::now();
    s.transport_ok = tracer.span(
        span, [&] { return client.call(payload, s.response, error); });
    s.ms = ms_since(t0);
    s.end_ms = ms_since(origin);
    if (keep_payloads) log.payloads.push_back(std::move(payload));
    log.samples.push_back(std::move(s));
    if (completed != nullptr) completed->fetch_add(1, std::memory_order_relaxed);
  }
}

/// The JSON text of the "record" member of a simulate response.
std::string record_of(const std::string& response) {
  static const std::string kKey = "\"record\":";
  const std::size_t pos = response.find(kKey);
  if (pos == std::string::npos || response.back() != '}') {
    return "";
  }
  const std::size_t begin = pos + kKey.size();
  return response.substr(begin, response.size() - begin - 1);
}

bool plan_matches(const std::string& response, const PlanExpect& expect) {
  wsn::JsonValue doc;
  if (!wsn::parse_json(response, doc)) return false;
  const wsn::JsonValue* ok = doc.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool() &&
         doc.string_or("fingerprint", "") == expect.fingerprint &&
         doc.number_or("planned_tx", -1.0) ==
             static_cast<double>(expect.planned_tx) &&
         doc.number_or("repairs", -1.0) == static_cast<double>(expect.repairs);
}

/// Checks every sample of `logs`; returns the failed count.  Transport
/// errors, structured errors (sheds included) and wrong answers all fail.
std::size_t verify(const std::vector<ClientLog>& logs, const MixInputs& in,
                   Offline& offline) {
  std::size_t failed = 0;
  for (const ClientLog& log : logs) {
    for (const Sample& s : log.samples) {
      bool ok = s.transport_ok;
      if (ok && s.kind == kWarm) {
        ok = plan_matches(s.response, in.warm_expect[s.index]);
      } else if (ok && s.kind == kCold) {
        ok = plan_matches(s.response, offline.plan(log.cold[s.index]));
      } else if (ok) {
        ok = !in.sim_expect[s.index].empty() &&
             record_of(s.response) == in.sim_expect[s.index];
      }
      if (!ok) ++failed;
    }
  }
  return failed;
}

/// A running service with its store and connected clients.
struct Daemon {
  std::unique_ptr<wsn::PlanStore> store;
  std::unique_ptr<wsn::MeshbcastService> service;
  std::vector<std::unique_ptr<wsn::RpcClient>> clients;
  /// Per client, the cold keys sent so far: none repeats on this daemon.
  std::vector<std::unordered_set<std::string>> cold_used{kClients};

  bool start(wsn::RequestJournal* journal) {
    store = std::make_unique<wsn::PlanStore>();
    wsn::ServiceConfig config;
    config.workers = kWorkers;
    config.store = store.get();
    config.journal = journal;
    service = std::make_unique<wsn::MeshbcastService>(config);
    std::string error;
    if (!service->start(error)) {
      std::fprintf(stderr, "service_mix: %s\n", error.c_str());
      return false;
    }
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<wsn::RpcClient>());
      if (!clients.back()->connect(service->address(), error)) {
        std::fprintf(stderr, "service_mix: %s\n", error.c_str());
        return false;
      }
    }
    return true;
  }
  void stop() {
    for (auto& c : clients) c->close();
    if (service) service->shutdown();
  }
};

/// Set-up on a started daemon: compile the working set and run every
/// simulate payload once through client 0, then a short mix on every
/// client.  Returns the failed count.
std::size_t warm_daemon(Daemon& d, const MixInputs& in, std::uint64_t seed,
                        Offline& offline) {
  std::string response, error;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < in.warm.size(); ++i) {
    const bool ok = d.clients[0]->call(plan_payload(in.warm[i], i + 1),
                                       response, error) &&
                    plan_matches(response, in.warm_expect[i]);
    if (!ok) ++failed;
  }
  for (std::size_t i = 0; i < in.sim_payloads.size(); ++i) {
    const bool ok =
        d.clients[0]->call(in.sim_payloads[i], response, error) &&
        record_of(response) == in.sim_expect[i];
    if (!ok) ++failed;
  }
  std::vector<ClientLog> logs(kClients);
  Tracer off(false);
  for (std::size_t c = 0; c < kClients; ++c) {
    client_loop(*d.clients[c], in, mix(seed, 0xa57), c, d.cold_used[c],
                Clock::now(), kWarmupPerClient, off, false, logs[c]);
  }
  return failed + verify(logs, in, offline);
}

struct Phase {
  std::vector<ClientLog> logs;
  /// Per half-second window: requests completed per second and process
  /// CPU per request.
  std::vector<double> window_rate;
  std::vector<double> window_cpu_ms;
};

/// Both clients in a closed loop for `seconds`.
Phase run_phase(Daemon& d, const MixInputs& in, std::uint64_t seed,
                double seconds, std::vector<Tracer>& tracers,
                bool keep_payloads) {
  Phase phase;
  phase.logs.resize(kClients);
  std::atomic<std::uint64_t> completed{0};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(*d.clients[c], in, seed, c, d.cold_used[c], deadline,
                  ~std::size_t{0}, tracers[c], keep_payloads, phase.logs[c],
                  &completed);
    });
  }
  double last_ms = 0.0, last_cpu = process_cpu_s();
  std::uint64_t last_count = 0;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_until(
        std::min(deadline, Clock::now() + std::chrono::milliseconds(500)));
    const double now_ms = ms_since(t0);
    const double cpu = process_cpu_s();
    const std::uint64_t count = completed.load(std::memory_order_relaxed);
    if (count > last_count && now_ms > last_ms) {
      const double n = static_cast<double>(count - last_count);
      phase.window_rate.push_back(n * 1000.0 / (now_ms - last_ms));
      phase.window_cpu_ms.push_back((cpu - last_cpu) * 1000.0 / n);
    }
    last_ms = now_ms;
    last_cpu = cpu;
    last_count = count;
  }
  for (std::thread& t : threads) t.join();
  return phase;
}

std::vector<double> warm_latencies(const Phase& phase) {
  std::vector<double> out;
  for (const ClientLog& log : phase.logs) {
    for (const Sample& s : log.samples) {
      if (s.kind == kWarm) out.push_back(s.ms);
    }
  }
  return out;
}

std::size_t sample_count(const Phase& phase) {
  std::size_t n = 0;
  for (const ClientLog& log : phase.logs) n += log.samples.size();
  return n;
}

/// The server request id echoed in a response ("req"), 0 when absent.
std::uint64_t req_of(const std::string& response) {
  static const std::string kKey = "\"req\":";
  const std::size_t pos = response.find(kKey);
  if (pos == std::string::npos) return 0;
  return std::strtoull(response.c_str() + pos + kKey.size(), nullptr, 10);
}

void trace_service_mix(Daemon& d, const MixInputs& in, Offline& offline,
                       const Options& options,
                       wsn::RequestJournal& journal,
                       const std::string& journal_path, Result& result) {
  const std::uint64_t seed = mix(options.seed, 0x7e57);
  // The second phase records a client span around every call; what that
  // costs is the tracing overhead reported below.
  std::vector<Tracer> off(kClients, Tracer(false));
  std::vector<Tracer> on(kClients, Tracer(true));
  const Phase plain = run_phase(d, in, seed, options.seconds / 2, off, false);
  const auto hits0 = d.store->memory().stats();
  const Phase traced = run_phase(d, in, mix(seed, 1), options.seconds / 2,
                                 on, true);
  const auto hits1 = d.store->memory().stats();
  result.attempted += sample_count(plain) + sample_count(traced);
  result.failed += verify(plain.logs, in, offline) +
                   verify(traced.logs, in, offline);
  const wsn::MeshbcastService::Counters counters = d.service->counters();
  d.stop();
  journal.close();

  const double lookups = static_cast<double>((hits1.hits - hits0.hits) +
                                             (hits1.misses - hits0.misses));
  result.set("store.hit_rate",
             static_cast<double>(hits1.hits - hits0.hits) / lookups, "ratio");
  result.set("service.sheds", static_cast<double>(counters.sheds), "count");
  result.set("service.errors", static_cast<double>(counters.errors), "count");

  // Server-side stages of the traced phase's requests, from the journal.
  wsn::JournalReadResult read;
  std::string error;
  if (!wsn::read_journal_file(journal_path, read, error)) {
    std::fprintf(stderr, "service_mix: %s\n", error.c_str());
    result.correct = false;
  }
  std::unordered_map<std::uint64_t, const wsn::JournalRecord*> by_seq;
  for (const wsn::JournalRecord& r : read.records) by_seq[r.seq] = &r;
  double admission = 0, queue = 0, exec = 0, emit = 0, client = 0;
  double joined = 0;
  for (const ClientLog& log : traced.logs) {
    for (const Sample& s : log.samples) {
      const auto it = by_seq.find(req_of(s.response));
      if (it == by_seq.end()) continue;
      admission += it->second->admission_ms;
      queue += it->second->queue_ms;
      exec += it->second->exec_ms;
      emit += it->second->emit_ms;
      client += s.ms;
      joined += 1;
    }
  }
  if (joined == 0) {
    result.correct = false;
    joined = 1;
  }
  const double op = client / joined;
  const double stages = (admission + queue + exec + emit) / joined;
  result.set("service.admission_ms", admission / joined, "ms");
  result.set("service.queue_ms", queue / joined, "ms");
  result.set("service.exec_ms", exec / joined, "ms");
  result.set("service.emit_ms", emit / joined, "ms");
  result.set("service_mix.op_ms", op, "ms");
  result.set("service_mix.layer_sum_ms", stages, "ms");
  result.set("service_mix.remainder_ms", op - stages, "ms");
  result.set("service_mix.share.admission", admission / joined / op, "ratio");
  result.set("service_mix.share.queue", queue / joined / op, "ratio");
  result.set("service_mix.share.exec", exec / joined / op, "ratio");
  result.set("service_mix.share.emit", emit / joined / op, "ratio");
  result.set("service_mix.share.remainder", (op - stages) / op, "ratio");
  // Tracing overhead: the client spans' cost on the warm-plan median.
  result.set("service_mix.trace_overhead_ms",
             median(warm_latencies(traced)) - median(warm_latencies(plain)),
             "ms");

  // Layers measured offline on the same inputs.
  Tracer tracer(true);
  std::size_t parsed = 0;
  for (const ClientLog& log : traced.logs) {
    for (std::size_t i = 0; i < log.payloads.size() && i < 4000; ++i) {
      wsn::RpcRequest req;
      wsn::RpcError rpc_error;
      const bool ok = tracer.span("service.rpc_parse", [&] {
        return wsn::parse_rpc_request(log.payloads[i], req, rpc_error);
      });
      if (!ok) ++result.failed;
      ++parsed;
    }
  }
  result.attempted += parsed;
  const double parse_us =
      tracer.total_ms("service.rpc_parse") * 1000.0 / static_cast<double>(parsed);
  result.set("service.rpc_parse_us", parse_us, "us");

  // Store hits on a store holding exactly the working set.
  wsn::SimOptions plan_options;
  wsn::PlanStore hits;
  const auto fetch = [&](const PlanKey& key, wsn::PlanStore::Origin& origin) {
    const wsn::Topology& topo = offline.topology(key);
    return hits.fetch_or_compile(
        topo, key.source, "paper", plan_options,
        [&](wsn::ResolveReport& report) {
          return wsn::paper_plan(topo, key.source, plan_options, &report);
        },
        &origin);
  };
  wsn::PlanStore::Origin origin = wsn::PlanStore::Origin::kCompiled;
  for (const PlanKey& key : in.warm) (void)fetch(key, origin);
  for (int rep = 0; rep < 4; ++rep) {
    for (const PlanKey& key : in.warm) {
      tracer.span("store.hit", [&] { return fetch(key, origin); });
      ++result.attempted;
      if (origin != wsn::PlanStore::Origin::kMemory) ++result.failed;
    }
  }
  const double hit_ms = tracer.total_ms("store.hit") /
                        static_cast<double>(tracer.count("store.hit"));
  result.set("store.hit_ms", hit_ms, "ms");
  const double warm_plan_ms = mean(warm_latencies(traced));
  result.set("service.transport_ms", warm_plan_ms - parse_us / 1000.0 - hit_ms,
             "ms");

  // The lossy jobs' recovery and audit, as the engine runs them.
  for (std::size_t i = kSimPlain; i < in.sim_keys.size(); ++i) {
    const PlanKey& key = in.sim_keys[i];
    const wsn::Topology& topo = offline.topology(key);
    const auto stored = fetch(key, origin);
    const wsn::RelayPlan plan = stored->plan.to_relay_plan();
    wsn::EventSink sink;
    wsn::Observer observer(&sink);
    wsn::IidLossModel loss(0.1, mix(options.seed, i));
    wsn::SimOptions run_options = plan_options;
    run_options.faults = &loss;
    run_options.observer = &observer;
    wsn::AdaptiveArqReport arq;
    const wsn::BroadcastOutcome outcome = tracer.span("fault.arq", [&] {
      return wsn::run_adaptive_arq(topo, plan, run_options, {}, &arq);
    });
    wsn::AuditConfig audit;
    audit.source = key.source;
    audit.stats = &outcome.stats;
    audit.expect_full_coverage = false;
    audit.mean_link_delivery = 0.9;
    audit.planned_tx = stored->plan.total_offsets();
    audit.arq = true;
    audit.retries = arq.retries;
    audit.retry_budget = 256;
    audit.budget_exhausted = arq.budget_exhausted;
    audit.arq_rounds = arq.rounds;
    audit.arq_max_rounds = 8;
    const wsn::AuditReport report = tracer.span(
        "audit.sink", [&] { return wsn::audit_sink(topo, sink, audit); });
    ++result.attempted;
    if (report.checks_run == 0) ++result.failed;
  }
  const auto per = [&](const char* name) {
    const std::size_t n = tracer.count(name);
    return n == 0 ? 0.0 : tracer.total_ms(name) / static_cast<double>(n);
  };
  result.set("fault.arq_ms", per("fault.arq"), "ms");
  result.set("audit.sink_ms", per("audit.sink"), "ms");
}

}  // namespace

Result run_service_mix(const Options& options) {
  Result result;
  Offline offline;
  const MixInputs in = make_inputs(options.seed, offline);
  for (const std::string& e : in.sim_expect) {
    if (e.empty()) result.correct = false;
  }

  // Set-up: daemon start, connections, working-set compiles, every
  // simulate payload once, a short warm-up mix.  Repeated on fresh
  // daemons; the median is setup_s.
  const std::string journal_path = options.work_dir + "/service.wsnj";
  wsn::RequestJournal journal;
  if (options.trace) {
    wsn::RequestJournal::Config config;
    config.path = journal_path;
    std::string error;
    if (!journal.open(config, error)) {
      std::fprintf(stderr, "service_mix: %s\n", error.c_str());
      result.correct = false;
      return result;
    }
  }
  std::unique_ptr<Daemon> daemon;
  std::size_t setup_failures = 0;
  const std::size_t setups = options.trace ? 1 : kSetups;
  const std::vector<double> setup_s = time_repeated(setups, [&] {
    if (daemon) daemon->stop();
    daemon = std::make_unique<Daemon>();
    if (!daemon->start(options.trace ? &journal : nullptr)) {
      ++setup_failures;
      return;
    }
    setup_failures += warm_daemon(*daemon, in, options.seed, offline);
  });
  if (setup_failures > 0) {
    result.correct = false;
    if (daemon) daemon->stop();
    return result;
  }

  if (options.trace) {
    trace_service_mix(*daemon, in, offline, options, journal, journal_path,
                      result);
    return result;
  }

  std::vector<Tracer> off(kClients, Tracer(false));
  const Phase phase = run_phase(*daemon, in, options.seed, options.seconds,
                                off, false);
  const wsn::MeshbcastService::Counters counters = daemon->service->counters();
  daemon->stop();

  result.attempted = sample_count(phase);
  result.failed = verify(phase.logs, in, offline);
  const double ops = static_cast<double>(result.attempted);
  // Rate and CPU per half-second window, latency percentiles per window of
  // about 4 s (a simulate p99 has 20+ samples beyond it).  Bursts of host
  // contention only ever add time, so the run reports the better quartile
  // of the rate and CPU windows and the best window's percentiles.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(options.seconds / 4));
  const double window_ms = options.seconds * 1000.0 / static_cast<double>(windows);
  std::vector<std::vector<double>> plan(windows), simulate(windows);
  std::size_t plan_samples = 0, simulate_samples = 0;
  for (const ClientLog& log : phase.logs) {
    for (const Sample& s : log.samples) {
      const std::size_t w = std::min(
          windows - 1, static_cast<std::size_t>(s.end_ms / window_ms));
      (s.kind == kSim ? simulate : plan)[w].push_back(s.ms);
      ++(s.kind == kSim ? simulate_samples : plan_samples);
    }
  }
  const auto windowed = [](const std::vector<std::vector<double>>& by_window,
                           double q) {
    std::vector<double> per_window;
    for (const std::vector<double>& v : by_window) {
      if (!v.empty()) per_window.push_back(quantile(v, q));
    }
    return quantile(per_window, 0.0);
  };
  result.set("setup_s", median(setup_s), "s");
  result.set("ops_per_s", quantile(phase.window_rate, 0.75), "1/s");
  result.set("cpu_ms_per_op", quantile(phase.window_cpu_ms, 0.25), "ms");
  result.set("success_rate", (ops - static_cast<double>(result.failed)) / ops,
             "ratio");
  result.set("plan_p50_ms", windowed(plan, 0.5), "ms");
  result.set("simulate_p50_ms", windowed(simulate, 0.5), "ms");
  // Tail percentiles follow host contention from run to run (README.md):
  // reported on the detail line, not gated.
  result.note("plan_p99_ms", windowed(plan, 0.99));
  result.note("simulate_p99_ms", windowed(simulate, 0.99));
  result.note("plan_samples", static_cast<double>(plan_samples));
  result.note("simulate_samples", static_cast<double>(simulate_samples));
  result.note("latency_windows", static_cast<double>(windows));
  result.note("setups", static_cast<double>(setups));
  result.note("service_sheds", static_cast<double>(counters.sheds));
  result.note("service_errors", static_cast<double>(counters.errors));
  return result;
}

}  // namespace perfbench
