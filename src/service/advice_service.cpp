#include "service/advice_service.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace oraclesize::service {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

int bind_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path unusable (empty or longer than " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " chars): '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot listen on '" + path + "': " + err);
  }
  return fd;
}

void best_effort_write(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return;
  }
}

}  // namespace

AdviceService::AdviceService(ServiceConfig config)
    : config_(std::move(config)),
      dispatcher_count_(resolve_jobs(config_.jobs)),
      cache_(config_.cache_budget_bytes),
      runner_(1),
      requests_total_(registry_.counter("oracled_requests_total")),
      requests_ping_(registry_.counter("oracled_requests_ping")),
      requests_upload_(registry_.counter("oracled_requests_upload")),
      requests_advise_(registry_.counter("oracled_requests_advise")),
      requests_run_(registry_.counter("oracled_requests_run")),
      requests_metrics_(registry_.counter("oracled_requests_metrics")),
      requests_stats_(registry_.counter("oracled_requests_stats")),
      requests_shutdown_(registry_.counter("oracled_requests_shutdown")),
      responses_ok_(registry_.counter("oracled_responses_ok")),
      responses_task_failed_(registry_.counter("oracled_responses_task_failed")),
      responses_error_(registry_.counter("oracled_responses_error")),
      rejected_overload_(registry_.counter("oracled_rejected_overload")),
      expired_deadline_(registry_.counter("oracled_expired_deadline")),
      malformed_frames_(registry_.counter("oracled_malformed_frames")),
      connections_total_(registry_.counter("oracled_connections_total")),
      cache_hits_(registry_.counter("oracled_advice_cache_hits")),
      cache_misses_(registry_.counter("oracled_advice_cache_misses")),
      request_latency_ns_(registry_.histogram("oracled_request_latency_ns")),
      queue_wait_ns_(registry_.histogram("oracled_queue_wait_ns")),
      batch_lanes_(registry_.histogram("oracled_batch_lanes")) {
  if (config_.metrics_socket_path.empty()) {
    config_.metrics_socket_path = config_.socket_path + ".metrics";
  }
}

AdviceService::~AdviceService() {
  shutdown();
  wait();
}

void AdviceService::start() {
  if (started_) throw std::runtime_error("service already started");
  listen_fd_ = bind_unix_listener(config_.socket_path);
  try {
    metrics_fd_ = bind_unix_listener(config_.metrics_socket_path);
  } catch (...) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw;
  }
  started_ = true;
  try {
    acceptor_ = std::thread(&AdviceService::acceptor_loop, this);
    dispatcher_threads_.reserve(dispatcher_count_);
    for (std::size_t d = 0; d < dispatcher_count_; ++d) {
      dispatcher_threads_.emplace_back(&AdviceService::dispatcher_loop, this);
    }
    exposer_ = std::thread(&AdviceService::exposer_loop, this);
  } catch (...) {
    // A thread failed to start: drain and join the ones that did, close
    // and unlink both sockets, and leave the service unstarted.
    shutdown();
    wait();
    started_ = false;
    throw;
  }
}

void AdviceService::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;  // someone else is already draining
  }
  if (started_) {
    // Stop accepting: accept() on the acceptor thread fails immediately.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::shutdown(metrics_fd_, SHUT_RDWR);
    {
      // Close the queue (new enqueues answer "draining") and release
      // paused dispatchers so they drain what is already queued.
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_closed_ = true;
      paused_ = false;
      queue_cv_.notify_all();
    }
    {
      // Unblock idle connection threads. SHUT_RD only: a thread mid-reply
      // still flushes its response before it sees the EOF.
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    }
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    shutdown_done_ = true;
  }
  stop_cv_.notify_all();
}

void AdviceService::wait() {
  {
    // Wait for shutdown() to FINISH, not merely to start: it may be running
    // on a connection thread, and joining or clearing conn_fds_ before it
    // has unblocked the idle connections would leave that thread stuck in
    // read_frame forever.
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait(lock, [&] { return shutdown_done_; });
  }
  std::lock_guard<std::mutex> lock(join_mu_);
  if (joined_) return;
  joined_ = true;
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : dispatcher_threads_) t.join();
  dispatcher_threads_.clear();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> conn_lock(conn_mu_);
    conns = std::move(conn_threads_);
    conn_fds_.clear();
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  if (exposer_.joinable()) exposer_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (metrics_fd_ >= 0) ::close(metrics_fd_);
  listen_fd_ = -1;
  metrics_fd_ = -1;
  if (started_) {
    ::unlink(config_.socket_path.c_str());
    ::unlink(config_.metrics_socket_path.c_str());
  }
}

std::size_t AdviceService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void AdviceService::pause_dispatching() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  paused_ = true;
}

void AdviceService::resume_dispatching() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  paused_ = false;
  queue_cv_.notify_all();
}

std::string AdviceService::metrics_text() const {
  std::ostringstream out;
  registry_.snapshot().write_prometheus(out);
  const AdviceCache::Stats cs = cache_.stats();
  out << "# TYPE oracled_advice_cache_bytes gauge\n"
      << "oracled_advice_cache_bytes " << cs.bytes << '\n'
      << "# TYPE oracled_advice_cache_entries gauge\n"
      << "oracled_advice_cache_entries " << cs.entries << '\n'
      << "# TYPE oracled_advice_cache_evictions counter\n"
      << "oracled_advice_cache_evictions " << cs.evictions << '\n'
      << "# TYPE oracled_graphs_resident gauge\n"
      << "oracled_graphs_resident " << store_.size() << '\n'
      << "# TYPE oracled_queue_depth gauge\n"
      << "oracled_queue_depth " << queue_depth() << '\n';
  return out.str();
}

void AdviceService::acceptor_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or a hard error: stop accepting)
    }
    connections_total_.add();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(&AdviceService::connection_loop, this, fd);
  }
}

void AdviceService::connection_loop(int fd) {
  std::string payload;
  for (;;) {
    bool got = false;
    try {
      got = read_frame(fd, payload, config_.max_frame_bytes);
    } catch (const FrameError& e) {
      // Framing violation: one best-effort error frame, then hang up —
      // the stream position is unrecoverable after a bad prefix.
      malformed_frames_.add();
      responses_error_.add();
      std::string reply(1, static_cast<char>(kStatusError));
      reply += "error=";
      reply += e.what();
      reply += '\n';
      try {
        write_frame(fd, reply);
      } catch (const FrameError&) {
      }
      break;
    }
    if (!got) break;  // clean EOF

    requests_total_.add();
    const std::uint8_t opcode = static_cast<std::uint8_t>(payload[0]);
    ServiceResponse response;
    if (opcode == kOpShutdown) {
      requests_shutdown_.add();
      response = ServiceResponse{kStatusOk, "draining=1\n"};
    } else {
      response = handle_frame(payload);
    }
    switch (response.status) {
      case kStatusOk:
        responses_ok_.add();
        break;
      case kStatusTaskFailed:
        responses_task_failed_.add();
        break;
      default:
        responses_error_.add();
        break;
    }
    std::string reply(1, static_cast<char>(response.status));
    reply += response.body;
    try {
      write_frame(fd, reply);
    } catch (const FrameError&) {
      break;
    }
    // The drain starts only after the acknowledgment is on the wire.
    if (opcode == kOpShutdown) shutdown();
  }
  {
    // Deregister before closing, so shutdown() never applies SHUT_RD to a
    // descriptor number the process has already reused.
    std::lock_guard<std::mutex> lock(conn_mu_);
    std::erase(conn_fds_, fd);
  }
  ::close(fd);
}

ServiceResponse AdviceService::error_response(const std::string& message) {
  std::string body;
  append_kv(body, "error", message);
  return ServiceResponse{kStatusError, std::move(body)};
}

ServiceResponse AdviceService::handle_frame(const std::string& payload) {
  const std::uint8_t opcode = static_cast<std::uint8_t>(payload[0]);
  const std::string body = payload.substr(1);
  switch (opcode) {
    case kOpPing: {
      requests_ping_.add();
      std::string out;
      append_kv(out, "service", "oracled");
      append_kv(out, "protocol", std::uint64_t{1});
      return ServiceResponse{kStatusOk, std::move(out)};
    }
    case kOpUpload: {
      requests_upload_.add();
      try {
        const GraphStore::Inserted ins = store_.insert(body, ParseLimits{});
        std::string out;
        append_kv(out, "digest", ins.digest);
        append_kv(out, "nodes",
                  static_cast<std::uint64_t>(ins.graph->num_nodes()));
        append_kv(out, "fresh", std::uint64_t{ins.fresh ? 1u : 0u});
        return ServiceResponse{kStatusOk, std::move(out)};
      } catch (const std::invalid_argument& e) {
        return error_response(std::string("bad network: ") + e.what());
      }
    }
    case kOpAdvise:
      requests_advise_.add();
      return enqueue_and_wait(/*is_run=*/false, body);
    case kOpRun:
      requests_run_.add();
      return enqueue_and_wait(/*is_run=*/true, body);
    case kOpMetrics:
      requests_metrics_.add();
      return ServiceResponse{kStatusOk, metrics_text()};
    case kOpStats: {
      requests_stats_.add();
      const AdviceCache::Stats cs = cache_.stats();
      std::string out;
      append_kv(out, "cache_entries", static_cast<std::uint64_t>(cs.entries));
      append_kv(out, "cache_hits", static_cast<std::uint64_t>(cs.hits));
      append_kv(out, "cache_misses", static_cast<std::uint64_t>(cs.misses));
      append_kv(out, "cache_bytes", cs.bytes);
      append_kv(out, "cache_evictions",
                static_cast<std::uint64_t>(cs.evictions));
      append_kv(out, "cache_budget_bytes", cache_.byte_budget());
      append_kv(out, "graphs", static_cast<std::uint64_t>(store_.size()));
      append_kv(out, "queue_depth",
                static_cast<std::uint64_t>(queue_depth()));
      append_kv(out, "queue_limit",
                static_cast<std::uint64_t>(config_.queue_limit));
      append_kv(out, "jobs", static_cast<std::uint64_t>(dispatcher_count_));
      return ServiceResponse{kStatusOk, std::move(out)};
    }
    default:
      return error_response("unknown opcode " + std::to_string(opcode));
  }
}

ServiceResponse AdviceService::enqueue_and_wait(bool is_run,
                                               const std::string& body) {
  Pending pending;
  pending.is_run = is_run;
  try {
    pending.request = parse_task_request(parse_kv(body));
    bind_task(pending.request);  // reject unknown tasks/trees up front
    if (is_run) run_options_for(pending.request);
  } catch (const std::invalid_argument& e) {
    return error_response(e.what());
  }
  pending.graph = store_.find(pending.request.digest);
  if (!pending.graph) {
    return error_response("unknown digest " + pending.request.digest);
  }
  if (pending.request.source >= pending.graph->num_nodes()) {
    return error_response("source out of range");
  }
  pending.enqueued = Clock::now();
  const std::uint64_t deadline_ms = pending.request.deadline_ms
                                        ? pending.request.deadline_ms
                                        : config_.default_deadline_ms;
  pending.deadline = deadline_ms
                         ? pending.enqueued +
                               std::chrono::milliseconds(deadline_ms)
                         : Clock::time_point::max();
  std::future<ServiceResponse> future = pending.promise.get_future();
  const Clock::time_point enqueued = pending.enqueued;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_closed_) return error_response("draining");
    if (queue_.size() >= config_.queue_limit) {
      rejected_overload_.add();
      return error_response("overloaded: " +
                            std::to_string(config_.queue_limit) +
                            " requests already queued");
    }
    queue_.push_back(std::move(pending));
    queue_cv_.notify_all();
  }
  ServiceResponse response = future.get();
  request_latency_ns_.observe(ns_between(enqueued, Clock::now()));
  return response;
}

void AdviceService::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return (queue_closed_ && queue_.empty()) ||
               (!paused_ && !queue_.empty());
      });
      if (queue_closed_ && queue_.empty()) return;
      const std::size_t n = std::min(queue_.size(), config_.max_batch);
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    execute_batch(std::move(batch));
  }
}

void AdviceService::execute_batch(std::vector<Pending> batch) {
  const Clock::time_point now = Clock::now();

  struct Item {
    Pending pending;
    TaskBinding binding;
    AdviceCache::Lookup lookup;
  };
  std::vector<Item> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (now > p.deadline) {
      expired_deadline_.add();
      p.promise.set_value(error_response(
          "deadline expired after " +
          std::to_string(ns_between(p.enqueued, now) / 1'000'000) +
          " ms in queue"));
      continue;
    }
    queue_wait_ns_.observe(ns_between(p.enqueued, now));
    live.push_back(Item{std::move(p), TaskBinding{}, {}});
  }
  if (live.empty()) return;
  batch_lanes_.observe(live.size());

  // Resolve advice through the shared LRU cache. The shared_ptr in the
  // lookup pins the artifact for this batch even if a concurrent
  // completion (or this very batch's later misses) evicts the entry.
  std::vector<TrialSpec> specs;
  std::vector<Item*> run_items;
  for (Item& item : live) {
    Pending& p = item.pending;
    try {
      item.binding = bind_task(p.request);
      item.lookup =
          cache_.lookup(*p.graph, *item.binding.oracle, p.request.source);
      (item.lookup.hit ? cache_hits_ : cache_misses_).add();
    } catch (const std::exception& e) {
      p.promise.set_value(
          error_response(std::string("advise failed: ") + e.what()));
      item.binding.oracle.reset();
      continue;
    }
    const std::vector<BitString>& advice = *item.lookup.advice;
    if (!p.is_run) {
      std::string out;
      append_kv(out, "oracle", item.binding.oracle->name());
      append_kv(out, "algorithm", item.binding.algorithm->name());
      append_kv(out, "oracle_bits", oracle_size_bits(advice));
      append_kv(out, "max_advice_bits", max_advice_bits(advice));
      append_kv(out, "cached", std::uint64_t{item.lookup.hit ? 1u : 0u});
      append_kv(out, "advise_ns", item.lookup.advise_ns);
      append_kv(out, "nodes",
                static_cast<std::uint64_t>(p.graph->num_nodes()));
      p.promise.set_value(ServiceResponse{kStatusOk, std::move(out)});
      item.binding.oracle.reset();
      continue;
    }
    specs.emplace_back(p.graph.get(), p.request.source,
                       item.binding.oracle.get(), item.binding.algorithm,
                       run_options_for(p.request), item.lookup.advice);
    run_items.push_back(&item);
  }
  if (specs.empty()) return;

  // One BatchRunner pass serves the whole micro-batch, inline on this
  // dispatcher; trials are fault-isolated, so one poisoned request cannot
  // take down its batch. Anything run() still throws is answered to the
  // batch's runs: escaping the dispatcher thread would end the daemon.
  std::vector<TaskReport> reports;
  try {
    reports = runner_.run(specs);
  } catch (const std::exception& e) {
    for (Item* item : run_items) {
      item->pending.promise.set_value(
          error_response(std::string("run failed: ") + e.what()));
    }
    return;
  }
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const TaskReport& report = reports[i];
    Pending& p = run_items[i]->pending;
    if (report.failed()) {
      p.promise.set_value(error_response(report.error));
      continue;
    }
    std::string out;
    append_kv(out, "status", to_string(report.run.status));
    append_kv(out, "oracle", report.oracle_name);
    append_kv(out, "algorithm", report.algorithm_name);
    append_kv(out, "oracle_bits", report.oracle_bits);
    append_kv(out, "max_advice_bits", report.max_advice_bits);
    // The spec carries the cache-resolved advice, so BatchRunner always
    // reports it as cached; whether it was is the lookup's verdict.
    append_kv(out, "advice_cached",
              std::uint64_t{run_items[i]->lookup.hit ? 1u : 0u});
    append_kv(out, "attempts", std::uint64_t{report.attempts});
    append_kv(out, "messages_total", report.run.metrics.messages_total);
    append_kv(out, "bits_sent", report.run.metrics.bits_sent);
    append_kv(out, "deliveries", report.run.metrics.deliveries);
    append_kv(out, "completion_key",
              std::to_string(report.run.metrics.completion_key));
    append_kv(out, "queue_depth_peak", report.run.metrics.queue_depth_peak);
    append_kv(out, "informed",
              static_cast<std::uint64_t>(report.run.informed_count()));
    append_kv(out, "nodes",
              static_cast<std::uint64_t>(p.graph->num_nodes()));
    append_kv(out, "all_informed",
              std::uint64_t{report.run.all_informed ? 1u : 0u});
    if (!report.run.violation.empty()) {
      append_kv(out, "violation", report.run.violation);
    }
    append_kv(out, "run_ns", report.run_ns);
    const std::uint8_t status =
        report.ok() ? kStatusOk : kStatusTaskFailed;
    p.promise.set_value(ServiceResponse{status, std::move(out)});
  }
}

void AdviceService::exposer_loop() {
  for (;;) {
    const int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Drain whatever request line the scraper sends (if any), then answer.
    // The exposer serves exactly one document, so the request is not
    // parsed — curl, Prometheus, and a bare connect-and-read all work.
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 200) > 0) {
      char buf[1024];
      (void)!::read(fd, buf, sizeof buf);
    }
    const std::string body = metrics_text();
    std::string reply =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    best_effort_write(fd, reply);
    ::close(fd);
  }
}

}  // namespace oraclesize::service
