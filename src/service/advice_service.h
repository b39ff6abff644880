// The long-running advice service: `oracled`'s engine room.
//
// AdviceService turns the library's one-shot pipeline (oracle -> advice ->
// execution -> report) into a daemon that serves traffic. The paper's
// shape maps directly: advice artifacts are the warm state (one advise()
// per distinct (graph, oracle, source), memoized in a byte-budgeted LRU
// AdviceCache), runs are the requests, and oracle bits are the per-request
// cost the metrics report.
//
// Threads:
//  * an ACCEPTOR listening on a unix stream socket, one CONNECTION thread
//    per client speaking the service/protocol.h framing;
//  * a DISPATCHER that pops bounded-queue work in small batches, resolves
//    advice through the shared AdviceCache (the shared_ptr rides in
//    TrialSpec::advice, so an entry evicted mid-flight stays alive for its
//    holders), and executes run requests on the existing BatchRunner pool;
//  * a METRICS EXPOSER answering HTTP GETs on <socket>.metrics with the
//    Prometheus text rendition of the service's MetricsRegistry.
//
// Flow control: the request queue is bounded (a full queue answers
// "overloaded" immediately — backpressure, not buffering), every queued
// request may carry a deadline (expired requests are rejected before
// execution, never run half-heartedly), and shutdown() drains: accepting
// stops, queued work completes, responses flush, then the threads join.
//
// Identity contract: a run answered by the service is field-identical to
// the same TrialSpec executed directly on a BatchRunner — the dispatcher
// adds queueing and caching around the execution, never inside it.
// tests/test_service.cpp checks it per request; perfbench's `service`
// workload checks every reply under concurrent load with the LRU cache
// below its working set.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/advice_cache.h"
#include "core/batch_runner.h"
#include "service/graph_store.h"
#include "service/protocol.h"
#include "service/task_catalog.h"
#include "sim/metrics_registry.h"

namespace oraclesize::service {

struct ServiceConfig {
  std::string socket_path;
  /// Unix socket of the HTTP metrics exposer; "" = socket_path + ".metrics".
  std::string metrics_socket_path;
  std::size_t jobs = 1;  ///< BatchRunner workers; 0 = hardware concurrency
  /// AdviceCache byte budget; 0 = unbounded (no eviction).
  std::uint64_t cache_budget_bytes = 0;
  std::size_t queue_limit = 256;  ///< pending advise/run requests
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::size_t max_batch = 16;  ///< dispatcher micro-batch size
  /// Applied to requests that carry no deadline_ms of their own; 0 = none.
  std::uint64_t default_deadline_ms = 0;
};

/// One response: the status ladder byte plus a text body.
struct ServiceResponse {
  std::uint8_t status = kStatusError;
  std::string body;
};

class AdviceService {
 public:
  explicit AdviceService(ServiceConfig config);
  ~AdviceService();  // initiates shutdown and joins everything

  AdviceService(const AdviceService&) = delete;
  AdviceService& operator=(const AdviceService&) = delete;

  /// Binds both sockets and launches the threads. Throws
  /// std::runtime_error on any setup failure (nothing is left running).
  void start();

  /// Graceful drain: stop accepting, reject new work, finish queued work,
  /// flush responses, stop the threads. Idempotent; safe from any thread
  /// (including a connection thread serving a Shutdown request).
  void shutdown();

  /// Blocks until shutdown() has run to completion (from a signal handler
  /// thread, a Shutdown request, or a direct call) and every service
  /// thread has been joined. Call from the owning thread only.
  void wait();

  const ServiceConfig& config() const noexcept { return config_; }
  bool started() const noexcept { return started_; }

  // ---- Introspection (tests, bench, the Stats opcode) ----
  AdviceCache::Stats cache_stats() const { return cache_.stats(); }
  std::size_t graphs_resident() const { return store_.size(); }
  std::size_t queue_depth() const;
  /// The document the exposer serves: the registry in Prometheus text
  /// format plus gauge lines for cache bytes/entries, resident graphs,
  /// and queue depth.
  std::string metrics_text() const;

  /// Test/bench seam: holds the dispatcher before its next pop so a
  /// harness can stage queue contents deterministically (fill to the
  /// limit for an overload, let a deadline lapse). resume_dispatching()
  /// releases it. Shutdown also releases a paused dispatcher.
  void pause_dispatching();
  void resume_dispatching();

 private:
  struct Pending {
    bool is_run = false;  ///< false = advise-only
    TaskRequest request;
    std::shared_ptr<const PortGraph> graph;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute queue deadline; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    std::promise<ServiceResponse> promise;
  };

  void acceptor_loop();
  void connection_loop(int fd);
  void dispatcher_loop();
  void exposer_loop();

  /// Handles one decoded request frame on a connection thread. Queued
  /// opcodes (advise/run) block on the dispatcher's response future.
  ServiceResponse handle_frame(const std::string& payload);
  ServiceResponse enqueue_and_wait(bool is_run, const std::string& body);
  void execute_batch(std::vector<Pending> batch);
  static ServiceResponse error_response(const std::string& message);

  ServiceConfig config_;
  GraphStore store_;
  AdviceCache cache_;
  BatchRunner runner_;
  MetricsRegistry registry_;

  // Instruments, registered before any worker starts (stable references).
  Counter& requests_total_;
  Counter& requests_ping_;
  Counter& requests_upload_;
  Counter& requests_advise_;
  Counter& requests_run_;
  Counter& requests_metrics_;
  Counter& requests_stats_;
  Counter& requests_shutdown_;
  Counter& responses_ok_;
  Counter& responses_task_failed_;
  Counter& responses_error_;
  Counter& rejected_overload_;
  Counter& expired_deadline_;
  Counter& malformed_frames_;
  Counter& connections_total_;
  Counter& cache_hits_;
  Counter& cache_misses_;
  Histogram& request_latency_ns_;
  Histogram& queue_wait_ns_;
  Histogram& batch_lanes_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  int listen_fd_ = -1;
  int metrics_fd_ = -1;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool queue_closed_ = false;
  bool paused_ = false;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;

  std::thread acceptor_;
  std::thread dispatcher_;
  std::thread exposer_;

  std::mutex join_mu_;
  bool joined_ = false;
  std::condition_variable stop_cv_;
  std::mutex stop_mu_;
  bool shutdown_done_ = false;  ///< guarded by stop_mu_; set as shutdown() ends
};

}  // namespace oraclesize::service
