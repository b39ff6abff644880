// End-to-end tests of the advice service (src/service/): the frame
// protocol, content-addressed uploads, the run identity contract against a
// direct BatchRunner, malformed-frame rejection, backpressure, queue
// deadlines, graceful drain, and the Prometheus exposer. Every test runs
// an in-process AdviceService on a throwaway unix socket under /tmp (the
// 108-char sun_path limit rules out deep build trees).
#include "service/advice_service.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_runner.h"
#include "graph/builders.h"
#include "graph/io.h"
#include "service/client.h"
#include "sim/metrics_registry.h"

namespace oraclesize::service {
namespace {

// One temporary socket directory per fixture instance; mkdtemp under /tmp
// keeps sun_path comfortably short.
class ServiceFixture {
 public:
  explicit ServiceFixture(ServiceConfig config = {}) {
    char tmpl[] = "/tmp/oracled_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir;
    config.socket_path = dir_ + "/s";
    service_ = std::make_unique<AdviceService>(std::move(config));
    service_->start();
  }

  ~ServiceFixture() {
    service_->shutdown();
    service_->wait();
    service_.reset();
    ::rmdir(dir_.c_str());
  }

  AdviceService& service() { return *service_; }
  const std::string& socket_path() { return service_->config().socket_path; }
  const std::string& metrics_socket_path() {
    return service_->config().metrics_socket_path;
  }

  /// Polls until `cond` holds (the staging seams are asynchronous: a raw
  /// send is enqueued by a connection thread we do not control).
  template <typename Cond>
  bool eventually(Cond cond, int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; ++waited) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return cond();
  }

 private:
  std::string dir_;
  std::unique_ptr<AdviceService> service_;
};

std::string upload_grid(ServiceClient& client, std::size_t rows,
                        std::size_t cols) {
  const auto reply = client.upload(to_text(make_grid(rows, cols)));
  EXPECT_TRUE(reply.ok()) << reply.body;
  return reply.field("digest");
}

/// The request frame for an advise/run body, built the same way the client
/// does — used with send_raw to stage requests without blocking on the
/// reply.
std::string raw_frame(std::uint8_t opcode, const std::string& body) {
  std::string payload(1, static_cast<char>(opcode));
  payload += body;
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.push_back(static_cast<char>(n & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame += payload;
  return frame;
}

TEST(ServiceProtocol, DigestAndKvPrimitives) {
  // FNV-1a 64 known vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(digest_hex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
  EXPECT_EQ(digest_hex(0x1ull), "0000000000000001");

  std::string body;
  append_kv(body, "task", "wakeup");
  append_kv(body, "seed", std::uint64_t{42});
  const auto kv = parse_kv(body + "garbage line\n=nokey\nseed=43\n");
  EXPECT_EQ(kv.at("task"), "wakeup");
  EXPECT_EQ(kv.at("seed"), "43");  // last value wins
  EXPECT_EQ(kv.count(""), 0u);    // empty keys dropped
}

TEST(ServiceRoundTrip, PingUploadAdviseRunStats) {
  ServiceFixture fx;
  ServiceClient client(fx.socket_path());

  const auto pong = client.ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.field("service"), "oracled");

  const std::string text = to_text(make_grid(6, 6));
  const auto up1 = client.upload(text);
  ASSERT_TRUE(up1.ok()) << up1.body;
  EXPECT_EQ(up1.field_u64("fresh"), 1u);
  EXPECT_EQ(up1.field_u64("nodes"), 36u);
  const std::string digest = up1.field("digest");
  ASSERT_EQ(digest.size(), 16u);

  // Content addressing: a re-upload and a cosmetic variant (leading
  // comment, trailing blank lines) both land on the same digest.
  const auto up2 = client.upload(text);
  EXPECT_EQ(up2.field_u64("fresh"), 0u);
  EXPECT_EQ(up2.field("digest"), digest);
  const auto up3 = client.upload("# a comment\n" + text + "\n\n");
  EXPECT_EQ(up3.field("digest"), digest);
  EXPECT_EQ(fx.service().graphs_resident(), 1u);

  TaskRequest req;
  req.digest = digest;
  req.task = "wakeup";
  const auto advised = client.advise(req);
  ASSERT_TRUE(advised.ok()) << advised.body;
  EXPECT_GT(advised.field_u64("oracle_bits"), 0u);
  EXPECT_EQ(advised.field_u64("cached"), 0u);
  const auto advised_again = client.advise(req);
  EXPECT_EQ(advised_again.field_u64("cached"), 1u);
  EXPECT_EQ(advised_again.field_u64("oracle_bits"),
            advised.field_u64("oracle_bits"));

  const auto ran = client.run(req);
  ASSERT_TRUE(ran.ok()) << ran.body;
  EXPECT_EQ(ran.field("status"), "completed");
  EXPECT_EQ(ran.field_u64("advice_cached"), 1u);  // advise() warmed it
  EXPECT_EQ(ran.field_u64("all_informed"), 1u);

  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.field_u64("graphs"), 1u);
  EXPECT_GE(stats.field_u64("cache_hits"), 2u);
  EXPECT_EQ(stats.field_u64("jobs"), 1u);
}

TEST(ServiceRoundTrip, RepeatRunsHitTheWarmAdvice) {
  // With the unbounded cache, N runs of one spec advise once: N - 1 hits,
  // a hit rate of (N - 1) / N.
  ServiceFixture fx;
  ServiceClient client(fx.socket_path());
  TaskRequest req;
  req.digest = upload_grid(client, 6, 6);
  req.task = "broadcast";
  constexpr std::uint64_t kRuns = 8;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    const auto ran = client.run(req);
    ASSERT_TRUE(ran.ok()) << ran.body;
  }
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.field_u64("cache_hits"), kRuns - 1);
  EXPECT_EQ(stats.field_u64("cache_misses"), 1u);
  EXPECT_EQ(stats.field_u64("cache_evictions"), 0u);
}

TEST(ServiceRoundTrip, RunMatchesDirectBatchRunner) {
  ServiceFixture fx;
  ServiceClient client(fx.socket_path());
  const PortGraph g = make_grid(6, 6);
  const auto up = client.upload(to_text(g));
  ASSERT_TRUE(up.ok());

  std::vector<TaskRequest> requests;
  for (const char* task : {"wakeup", "broadcast", "flooding", "census"}) {
    TaskRequest req;
    req.digest = up.field("digest");
    req.task = task;
    req.source = 7;
    req.scheduler = "fifo";
    req.seed = 11;
    requests.push_back(req);
  }
  requests.push_back(requests[2]);
  requests.back().fault_drop = 0.2;  // a faulty flooding run
  requests.back().fault_seed = 5;

  BatchRunner direct(1);
  for (const auto& req : requests) {
    const auto reply = client.run(req);
    ASSERT_LE(reply.status, kStatusTaskFailed) << reply.body;

    const TaskBinding binding = bind_task(req);
    const auto reports = direct.run(
        {TrialSpec(&g, req.source, binding.oracle.get(), binding.algorithm,
                   run_options_for(req))});
    ASSERT_EQ(reports.size(), 1u);
    const TaskReport& want = reports[0];
    ASSERT_FALSE(want.failed()) << want.error;

    // The identity contract: every result-bearing field the service
    // reports equals the direct execution, bit for bit.
    EXPECT_EQ(reply.field("status"), to_string(want.run.status)) << req.task;
    EXPECT_EQ(reply.field("oracle"), want.oracle_name);
    EXPECT_EQ(reply.field("algorithm"), want.algorithm_name);
    EXPECT_EQ(reply.field_u64("oracle_bits"), want.oracle_bits) << req.task;
    EXPECT_EQ(reply.field_u64("max_advice_bits"), want.max_advice_bits);
    EXPECT_EQ(reply.field_u64("messages_total"),
              want.run.metrics.messages_total)
        << req.task;
    EXPECT_EQ(reply.field_u64("bits_sent"), want.run.metrics.bits_sent);
    EXPECT_EQ(reply.field_u64("deliveries"), want.run.metrics.deliveries);
    EXPECT_EQ(reply.field_u64("completion_key"),
              want.run.metrics.completion_key)
        << req.task;
    EXPECT_EQ(reply.field_u64("informed"),
              static_cast<std::uint64_t>(want.run.informed_count()));
    EXPECT_EQ(reply.status, want.ok() ? kStatusOk : kStatusTaskFailed);
  }
}

TEST(ServiceErrors, BadRequestsGetInfrastructureStatus) {
  ServiceFixture fx;
  ServiceClient client(fx.socket_path());
  const std::string digest = upload_grid(client, 4, 4);

  TaskRequest req;
  req.digest = "00000000deadbeef";  // never uploaded
  auto reply = client.run(req);
  EXPECT_EQ(reply.status, kStatusError);
  EXPECT_NE(reply.field("error").find("unknown digest"), std::string::npos)
      << reply.body;

  req.digest = digest;
  req.task = "teleportation";
  reply = client.run(req);
  EXPECT_EQ(reply.status, kStatusError);

  req.task = "wakeup";
  req.source = 16;  // one past the last node
  reply = client.run(req);
  EXPECT_EQ(reply.status, kStatusError);

  // Unparseable upload.
  reply = client.upload("this is not a network\n");
  EXPECT_EQ(reply.status, kStatusError);

  // A request error must not poison the connection.
  EXPECT_TRUE(client.ping().ok());
}

TEST(ServiceErrors, MalformedFramesCloseTheConnection) {
  ServiceFixture fx;

  {  // Oversized length prefix: rejected before any allocation.
    ServiceClient client(fx.socket_path());
    const std::uint32_t huge = kDefaultMaxFrameBytes + 1;
    client.send_raw(&huge, sizeof huge);
    ServiceClient::Reply reply;
    ASSERT_TRUE(client.read_reply(reply));
    EXPECT_EQ(reply.status, kStatusError);
    EXPECT_NE(reply.body.find("oversized"), std::string::npos) << reply.body;
    EXPECT_FALSE(client.read_reply(reply));  // server hung up
  }
  {  // Empty frame (length 0).
    ServiceClient client(fx.socket_path());
    const std::uint32_t zero = 0;
    client.send_raw(&zero, sizeof zero);
    ServiceClient::Reply reply;
    ASSERT_TRUE(client.read_reply(reply));
    EXPECT_EQ(reply.status, kStatusError);
    EXPECT_FALSE(client.read_reply(reply));
  }
  {  // Truncated payload: promise 64 bytes, deliver 3, hang up.
    ServiceClient client(fx.socket_path());
    const std::uint32_t length = 64;
    client.send_raw(&length, sizeof length);
    client.send_raw("abc", 3);
    ::shutdown(client.fd(), SHUT_WR);
    ServiceClient::Reply reply;
    ASSERT_TRUE(client.read_reply(reply));
    EXPECT_EQ(reply.status, kStatusError);
    EXPECT_NE(reply.body.find("truncated"), std::string::npos) << reply.body;
    EXPECT_FALSE(client.read_reply(reply));
  }
  {  // Unknown opcode is a REQUEST error: answered, connection kept.
    ServiceClient client(fx.socket_path());
    const auto reply = client.request(99, "");
    EXPECT_EQ(reply.status, kStatusError);
    EXPECT_TRUE(client.ping().ok());
  }
  // The daemon survived all of it.
  ServiceClient client(fx.socket_path());
  EXPECT_TRUE(client.ping().ok());
  EXPECT_GE(fx.service().cache_stats().entries, 0u);
}

TEST(ServiceFlow, BackpressureRejectsWhenQueueIsFull) {
  ServiceConfig config;
  config.queue_limit = 1;
  ServiceFixture fx(std::move(config));
  ServiceClient staged(fx.socket_path());
  const std::string digest = upload_grid(staged, 4, 4);

  TaskRequest req;
  req.digest = digest;

  // Hold the dispatcher, stage one request to fill the queue (raw send —
  // reading the reply now would block), then watch the next one bounce.
  fx.service().pause_dispatching();
  const std::string frame =
      raw_frame(kOpAdvise, encode_task_request(req, false));
  staged.send_raw(frame.data(), frame.size());
  ASSERT_TRUE(fx.eventually([&] { return fx.service().queue_depth() == 1; }));

  ServiceClient bounced(fx.socket_path());
  const auto reply = bounced.advise(req);
  EXPECT_EQ(reply.status, kStatusError);
  EXPECT_NE(reply.field("error").find("overloaded"), std::string::npos)
      << reply.body;

  // Release the dispatcher: the staged request completes normally.
  fx.service().resume_dispatching();
  ServiceClient::Reply ok_reply;
  ASSERT_TRUE(staged.read_reply(ok_reply));
  EXPECT_TRUE(ok_reply.ok()) << ok_reply.body;
}

TEST(ServiceFlow, QueueDeadlineExpiresBeforeExecution) {
  ServiceFixture fx;
  ServiceClient client(fx.socket_path());
  const std::string digest = upload_grid(client, 4, 4);

  TaskRequest req;
  req.digest = digest;
  req.deadline_ms = 1;

  fx.service().pause_dispatching();
  const std::string frame = raw_frame(kOpRun, encode_task_request(req, true));
  client.send_raw(frame.data(), frame.size());
  ASSERT_TRUE(fx.eventually([&] { return fx.service().queue_depth() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fx.service().resume_dispatching();

  ServiceClient::Reply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, kStatusError);
  EXPECT_NE(reply.field("error").find("deadline expired"), std::string::npos)
      << reply.body;

  // Without the artificial stall the same request sails through.
  const auto fine = client.run(req);
  EXPECT_TRUE(fine.ok()) << fine.body;
}

TEST(ServiceFlow, GracefulDrainFinishesQueuedWork) {
  ServiceFixture fx;
  ServiceClient uploader(fx.socket_path());
  const std::string digest = upload_grid(uploader, 6, 6);

  TaskRequest req;
  req.digest = digest;
  const std::string frame = raw_frame(kOpRun, encode_task_request(req, true));

  // Three queued runs on three connections, dispatcher held.
  fx.service().pause_dispatching();
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<ServiceClient>(fx.socket_path()));
    clients.back()->send_raw(frame.data(), frame.size());
  }
  ASSERT_TRUE(fx.eventually([&] { return fx.service().queue_depth() == 3; }));

  // Drain. Every queued request still gets its full answer.
  fx.service().shutdown();
  for (auto& client : clients) {
    ServiceClient::Reply reply;
    ASSERT_TRUE(client->read_reply(reply));
    EXPECT_TRUE(reply.ok()) << reply.body;
    EXPECT_EQ(reply.field("status"), "completed");
    ASSERT_FALSE(client->read_reply(reply));  // then EOF
  }
  fx.service().wait();
  // Post-drain the socket is gone: new connections are refused.
  EXPECT_THROW(ServiceClient{fx.socket_path()}, ServiceError);
}

TEST(ServiceFlow, ShutdownRequestAnswersThenDrains) {
  ServiceFixture fx;
  ServiceClient client(fx.socket_path());
  const auto reply = client.shutdown_server();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.field_u64("draining"), 1u);
  fx.service().wait();  // returns: the request really did stop the service
}

TEST(ServiceFlow, ShutdownRequestThenWaitNeverHangs) {
  // The connection thread that serves a Shutdown request runs shutdown()
  // itself. wait() must not go on until that call has FINISHED: clearing
  // conn_fds_ before shutdown() has applied SHUT_RD to them leaves the
  // thread blocked in read_frame on the still-open client, and wait()
  // joining it forever. The window is narrow, so repeat the flow many
  // times; a hang fails the test (and the process) at the deadline
  // instead of stalling ctest.
  constexpr int kRounds = 1000;
  auto rounds = std::async(std::launch::async, [] {
    for (int i = 0; i < kRounds; ++i) {
      ServiceFixture fx;
      ServiceClient client(fx.socket_path());
      const auto reply = client.shutdown_server();
      EXPECT_TRUE(reply.ok()) << "round " << i;
      fx.service().wait();  // client still connected while the drain runs
    }
  });
  if (rounds.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::cerr << "ShutdownRequestThenWaitNeverHangs: wait() hung\n";
    std::_Exit(1);
  }
  rounds.get();
}

TEST(ServiceMetrics, PrometheusTextFormat) {
  MetricsRegistry registry;
  auto& hits = registry.counter("demo_hits");
  auto& latency = registry.histogram("demo latency.ns");  // needs sanitizing
  hits.add(3);
  latency.observe(0);
  latency.observe(1);
  latency.observe(900);  // bucket [512, 1024)

  std::ostringstream out;
  registry.snapshot().write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE demo_hits counter\ndemo_hits 3\n"),
            std::string::npos)
      << text;
  // Name sanitized, buckets cumulative, +Inf closes the histogram.
  EXPECT_NE(text.find("demo_latency_ns_bucket{le=\"0\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("demo_latency_ns_bucket{le=\"1023\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("demo_latency_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("demo_latency_ns_sum 901\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("demo_latency_ns_count 3\n"), std::string::npos) << text;
}

TEST(ServiceMetrics, ExposerServesScrapeOverHttp) {
  ServiceFixture fx;
  ServiceClient client(fx.socket_path());
  const std::string digest = upload_grid(client, 5, 5);
  TaskRequest req;
  req.digest = digest;
  ASSERT_TRUE(client.advise(req).ok());
  ASSERT_TRUE(client.advise(req).ok());  // second one is a cache hit

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(fx.metrics_socket_path().size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, fx.metrics_socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char get[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, get, sizeof get - 1, 0),
            static_cast<ssize_t>(sizeof get - 1));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) response.append(buf, n);
  ::close(fd);

  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("oracled_requests_total"), std::string::npos);
  EXPECT_NE(response.find("oracled_advice_cache_bytes"), std::string::npos);
  // The repeat advise above registered as a hit.
  EXPECT_NE(response.find("oracled_advice_cache_hits 1"), std::string::npos)
      << response;
  // The in-process document matches what the exposer serves (modulo the
  // HTTP envelope): spot-check a line.
  EXPECT_NE(fx.service().metrics_text().find("oracled_advice_cache_hits 1"),
            std::string::npos);
}

TEST(ServiceMetrics, LruBudgetEvictsAndCounts) {
  // A deliberately starved cache: every advise recomputes, evictions tick.
  ServiceConfig config;
  config.cache_budget_bytes = 1;
  ServiceFixture fx(std::move(config));
  ServiceClient client(fx.socket_path());
  const std::string digest = upload_grid(client, 5, 5);

  TaskRequest req;
  req.digest = digest;
  const auto first = client.advise(req);
  ASSERT_TRUE(first.ok());
  const auto second = client.advise(req);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.field_u64("cached"), 0u);  // evicted in between
  EXPECT_EQ(second.field_u64("oracle_bits"), first.field_u64("oracle_bits"));

  const auto stats = client.stats();
  EXPECT_EQ(stats.field_u64("cache_budget_bytes"), 1u);
  EXPECT_GE(stats.field_u64("cache_evictions"), 2u);
  EXPECT_EQ(stats.field_u64("cache_hits"), 0u);
}

}  // namespace
}  // namespace oraclesize::service
