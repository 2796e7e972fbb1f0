#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bounded_queue.h"
#include "common/socket.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "service/journal.h"
#include "service/rpc.h"
#include "service/slo.h"
#include "store/fingerprint.h"
#include "store/plan_store.h"
#include "topology/topology.h"

/// meshbcastd's core: a long-running broadcast-planning service speaking
/// `meshbcast.rpc` v1 (service/rpc.h) over loopback TCP or a Unix-domain
/// socket.
///
/// Concurrency model -- three thread roles and one queue:
///
///   * one accept thread, polling the listener with a short timeout so
///     the drain flag is observed promptly;
///   * one handler thread per connection, which reads frames, answers
///     `health`/`metrics`/`shutdown` inline (observability and drain
///     must never sit behind a loaded queue), and admits `plan` /
///     `simulate` / `scenario` into the bounded queue -- `try_push`, so
///     a full queue sheds the request with a structured `overloaded`
///     error instead of queueing unboundedly or blocking the socket;
///   * `workers` executor threads popping the queue, running the request
///     and writing the response frames directly to the connection.
///
/// One request is in flight per connection: the handler blocks on the
/// request's completion latch before reading the next frame, which is
/// what makes "workers write to the socket" race-free without a write
/// lock, and gives clients pipelining-free, strictly ordered responses.
///
/// Graceful drain (`shutdown()`, triggered by SIGINT/SIGTERM via
/// obs/heartbeat.h's SignalDrain or by the `shutdown` RPC): stop
/// accepting, close the queue (the backlog still executes), join the
/// workers -- so every admitted request gets its response -- then
/// half-close the connections to unblock the handlers and join them.
/// In-flight `scenario` engines see the drain flag as their cancel
/// signal, so a million-job stream ends promptly in a `cancelled` done
/// frame rather than stalling the drain.
///
/// Concurrent cold `plan` requests for one fingerprint compile once: the
/// plan store single-flights its compiles (store/single_flight.h), and
/// the losers are served from its memory tier.
///
/// Request-scoped observability: every successfully parsed frame gets a
/// unique server request id (`"req"` echoed in responses and errors).
/// Admitted-lane requests are timed per stage -- admission (frame read
/// to enqueue), queue wait, execution, emission -- with the stage spans
/// tagged by the id on the timeline (obs/timeline.h RequestTagScope), a
/// record appended to the request journal when one is configured, and
/// the total folded into the rolling SLO gauges (service/slo.h).  With
/// no journal and the timeline off, the extra cost per request is two
/// steady-clock reads.
namespace wsn {

class Simulator;

struct ServiceConfig {
  /// Non-empty: listen on this Unix-domain socket path (wins over TCP).
  std::string unix_path;
  /// Loopback TCP port when `unix_path` is empty; 0 = ephemeral (read it
  /// back via `port()`).
  int tcp_port = 0;
  /// Executor threads; 0 resolves to 2.
  std::size_t workers = 0;
  /// Admission queue capacity; 0 = max(2 x workers, 8).  Beyond it,
  /// requests shed with `overloaded`.
  std::size_t queue_capacity = 0;
  /// Frame-size cap (the request-size knob): a declared length above
  /// this is answered with `oversized` and the connection dropped.
  std::size_t max_request_bytes = 1u << 20;
  /// Topology-size cap for plan/simulate/scenario requests.
  std::size_t max_nodes = 1u << 20;
  /// Cap on the per-request scenario engine pool.
  std::size_t scenario_workers_cap = 8;
  /// Shared plan cache (nullable: every plan compiles fresh).
  PlanStore* store = nullptr;
  /// Metrics mirror (nullable): service.* counters/gauges/histograms,
  /// scraped live by the `metrics` RPC.
  MetricsRegistry* metrics = nullptr;
  /// Persistent request journal (nullable: no persistence).  Must be
  /// open()ed by the caller, who keeps ownership; the service appends
  /// one record per admitted-lane request (sheds included), seeds its
  /// request-id counter from the replayed max_seq, and publishes the
  /// journal's lifetime totals as service.lifetime_* gauges.
  RequestJournal* journal = nullptr;
  /// Rolling SLO window (requests) behind the service.slo.* gauges;
  /// only meaningful with a metrics registry.
  std::size_t slo_window = 2048;
  /// Time-based heartbeat period (0 = off), via obs/heartbeat.h.
  std::size_t heartbeat_ms = 0;
  /// Heartbeat sink; empty = stderr.
  std::function<void(const HeartbeatRecord&)> heartbeat_sink;
  /// Test hook: runs on the worker thread just before a request
  /// executes (nullable).  The determinism tests use it to hold
  /// requests at a barrier and release them at once.
  std::function<void()> before_execute;
};

class MeshbcastService {
 public:
  explicit MeshbcastService(ServiceConfig config);
  ~MeshbcastService();
  MeshbcastService(const MeshbcastService&) = delete;
  MeshbcastService& operator=(const MeshbcastService&) = delete;

  /// Binds, spawns the pool and the accept thread.  False + `error` on
  /// bind failure.  Call once.
  [[nodiscard]] bool start(std::string& error);

  /// Bound TCP port (-1 when listening on a Unix socket).
  [[nodiscard]] int port() const noexcept;
  /// "tcp:127.0.0.1:<port>" or "unix:<path>" -- RpcClient::connect's
  /// address syntax.
  [[nodiscard]] std::string address() const;

  /// Blocks until the `shutdown` RPC arrives or `external_stop` (e.g.
  /// SignalDrain::flag()) goes true, then performs the graceful drain.
  void wait(const std::atomic<bool>* external_stop = nullptr);

  /// Graceful drain as described above.  Idempotent; must not be called
  /// from a handler or worker thread (they cannot join themselves) --
  /// the `shutdown` RPC therefore only sets a flag that `wait()`
  /// observes.
  void shutdown();

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Lifetime totals, independent of any metrics registry.
  struct Counters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;  // admitted-lane requests (plan/sim/scn)
    std::uint64_t served = 0;    // executed with an ok response
    std::uint64_t errors = 0;    // structured error responses
    std::uint64_t sheds = 0;     // rejected by admission control
    std::uint64_t bad_frames = 0;  // oversized / truncated / transport
  };
  [[nodiscard]] Counters counters() const noexcept;

 private:
  struct Connection {
    Socket sock;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  /// Per-request completion latch; lives on the handler's stack (the
  /// handler always outlives the wait -- every admitted request is
  /// executed, because drain closes the queue instead of cancelling it).
  struct Pending {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool write_ok = true;
  };

  struct Work {
    std::shared_ptr<Connection> conn;
    RpcRequest req;
    Pending* pending = nullptr;
    std::chrono::steady_clock::time_point admitted;
    /// Wall clock at admission (journal timestamp).
    std::uint64_t ts_micros = 0;
    /// Frame read -> enqueue, measured by the handler.
    double admission_ms = 0.0;
  };

  /// Per-request execution trace filled by the respond_* handlers and
  /// folded into the journal record.
  struct StageTrace {
    double exec_ms = 0.0;
    double emit_ms = 0.0;
    std::uint64_t fp_hi = 0;
    std::uint64_t fp_lo = 0;
  };

  /// Topologies built once per distinct (family, dims, spacing) and kept
  /// for the service lifetime: stable addresses are what lets the plan
  /// store memoize its O(links) adjacency digest, and the cached
  /// TopologyDigest makes the response fingerprint O(1) per request.
  struct TopoEntry {
    std::unique_ptr<Topology> topo;
    TopologyDigest digest;
  };

  struct MetricHandles {
    Counter* requests = nullptr;
    Counter* served = nullptr;
    Counter* errors = nullptr;
    Counter* sheds = nullptr;
    Counter* bad_frames = nullptr;
    Counter* connections = nullptr;
    Gauge* queue_depth = nullptr;
    Gauge* workers_busy = nullptr;
    Gauge* connections_open = nullptr;
    Histogram* request_ms = nullptr;
    Histogram* plan_ms = nullptr;
    Histogram* simulate_ms = nullptr;
    Histogram* scenario_ms = nullptr;
    Gauge* lifetime_requests = nullptr;
    Gauge* lifetime_served = nullptr;
    Gauge* lifetime_errors = nullptr;
    Gauge* lifetime_sheds = nullptr;
  };

  void accept_loop();
  void reap_finished();
  void handle_connection(const std::shared_ptr<Connection>& conn);
  void worker_loop();
  void execute(Work& work, Simulator& sim);
  [[nodiscard]] std::string respond_plan(const RpcRequest& req, bool& ok,
                                         StageTrace& trace);
  [[nodiscard]] std::string respond_simulate(const RpcRequest& req,
                                             Simulator& sim, bool& ok,
                                             StageTrace& trace);
  void respond_scenario(Work& work, bool& ok, StageTrace& trace);
  void journal_append(const JournalRecord& record);
  void update_lifetime_gauges();
  [[nodiscard]] std::string health_json(const RpcRequest& req);
  [[nodiscard]] std::string metrics_json(const RpcRequest& req);
  [[nodiscard]] const TopoEntry* topology_for(const PlanRpc& plan,
                                              std::string& error);
  [[nodiscard]] HeartbeatRecord sample_heartbeat();

  ServiceConfig config_;
  std::size_t worker_count_ = 0;
  Listener listener_;
  std::string address_;
  std::unique_ptr<BoundedQueue<Work>> queue_;
  std::vector<std::thread> workers_;
  std::thread accept_thread_;
  std::unique_ptr<HeartbeatEmitter> heartbeat_;

  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::mutex topologies_mutex_;
  std::unordered_map<std::string, std::unique_ptr<TopoEntry>> topologies_;

  std::mutex lifecycle_mutex_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::chrono::steady_clock::time_point started_at_;

  MetricHandles m_;
  std::unique_ptr<SloTracker> slo_;
  /// Unique server request ids; seeded past the journal's replayed
  /// max_seq so ids stay unique across restarts of one journal.
  std::atomic<std::uint64_t> request_seq_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::size_t> busy_{0};
  std::atomic<std::size_t> connections_open_{0};
};

}  // namespace wsn
