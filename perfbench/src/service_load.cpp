// Workload `service`: open-loop traffic against an in-process AdviceService.
//
// The service runs in this process behind a real unix socket in the
// benchmark's scratch directory. One generator thread drives a few client
// connections open-loop: request i is due at a fixed Poisson schedule and
// is written when due whether or not earlier replies have arrived, so a
// slow service builds a backlog instead of slowing the load. Latency is
// timed from each request's due time; how late the generator itself ran is
// reported beside it. The deterministic request mix is mostly `run`, some
// `advise`, and a few percent of `upload`s re-sending texts from a fixed
// graph pool (the write path: parse, canonicalise, digest). The advice
// cache's byte budget is a third of the mix's working set, so the LRU both
// hits and evicts. Every run reply is compared with a direct BatchRunner
// execution computed at set-up.
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/advice_cache.h"
#include "core/batch_runner.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/io.h"
#include "service/advice_service.h"
#include "service/client.h"
#include "service/graph_store.h"
#include "service/protocol.h"
#include "service/task_catalog.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace oraclesize;
using namespace oraclesize::service;

// The reference rate the latency metrics are read at, the rate ladder
// (requests per second) that starts from it, and the p99 limit a ladder
// rate must meet. The ladder steps by 2^(1/4) and reaches well past the
// ~7k requests/s measured on a 4-core x86 VM, so a faster service still
// finds its ceiling on it.
constexpr double kReferenceRate = 2000;
const std::vector<double> kLadder = {
    kReferenceRate, 2378, 2828, 3364, 4000, 4757, 5657, 6727, 8000,
    9514, 11314, 13454, 16000, 19027, 22627, 26909, 32000};
constexpr double kP99LimitMs = 20.0;
// Latency quantiles are taken per window of this many seconds of traffic
// (at least a thousand requests at the reference rate, so p99 has ten
// samples beyond it) and the median across windows is reported.
constexpr double kWindowS = 0.5;
constexpr std::size_t kConnections = 4;
// Requests kept in flight by the closed-loop phase: two per connection.
constexpr std::size_t kClosedOutstanding = 8;

enum class Op { kUpload, kAdvise, kRun };

const char* op_name(Op op) {
  switch (op) {
    case Op::kUpload:
      return "upload";
    case Op::kAdvise:
      return "advise";
    case Op::kRun:
      return "run";
  }
  return "?";
}

/// What a reply must say, computed at set-up without the service.
struct Expected {
  std::string status;
  std::uint64_t oracle_bits = 0;
  std::uint64_t max_advice_bits = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t bits_sent = 0;
  std::uint64_t deliveries = 0;
  std::int64_t completion_key = 0;
  std::uint64_t informed = 0;
  std::string digest;  ///< uploads
  std::uint64_t nodes = 0;
};

struct Request {
  Op op = Op::kRun;
  std::string payload;  ///< opcode byte + body, ready to frame
  std::size_t expected = 0;  ///< index into the expected table
};

struct Pool {
  std::vector<std::pair<std::string, PortGraph>> graphs;
  std::vector<std::string> texts;
};

Pool make_pool(std::uint64_t seed, bool smoke) {
  Pool pool;
  Rng rng(seed);
  const std::size_t k = smoke ? 2 : 1;
  pool.graphs.emplace_back("grid", make_grid(16 / k, 16 / k));
  pool.graphs.emplace_back("random-tree", make_random_tree(256 / k, rng));
  const std::size_t random_n = 192 / k;
  pool.graphs.emplace_back(
      "random(p=8/n)",
      make_random_connected(random_n, 8.0 / static_cast<double>(random_n),
                            rng));
  pool.graphs.emplace_back("hypercube", make_hypercube(smoke ? 5 : 7));
  pool.graphs.emplace_back("torus", make_torus(12 / k, 12 / k));
  pool.graphs.emplace_back("complete", make_complete_star(64 / k));
  for (const auto& [name, g] : pool.graphs) pool.texts.push_back(to_text(g));
  return pool;
}

/// One Prometheus histogram from metrics_text: cumulative (le, count).
struct PromHistogram {
  std::vector<std::pair<double, double>> buckets;
  double count = 0;

  double cum_at(double le) const {
    double c = 0;
    for (const auto& [b, n] : buckets) {
      if (b <= le) c = n;
    }
    return c;
  }
};

struct PromSnapshot {
  std::map<std::string, double> values;
  std::map<std::string, PromHistogram> histograms;

  double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

PromSnapshot parse_prometheus(const std::string& text) {
  PromSnapshot snap;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    const double v = std::strtod(line.c_str() + sp + 1, nullptr);
    const std::size_t brace = key.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      const std::string le = key.substr(brace + 12, key.size() - brace - 14);
      if (le != "+Inf") {
        snap.histograms[key.substr(0, brace)].buckets.emplace_back(
            std::strtod(le.c_str(), nullptr), v);
      }
    } else if (key.size() > 6 && key.ends_with("_count")) {
      snap.histograms[key.substr(0, key.size() - 6)].count = v;
      snap.values[key] = v;
    } else {
      snap.values[key] = v;
    }
  }
  return snap;
}

/// Quantile q of the observations made between two snapshots of one
/// power-of-two histogram, interpolated linearly inside the bucket.
double delta_quantile(const PromSnapshot& before, const PromSnapshot& after,
                      const std::string& name, double q) {
  const auto ia = after.histograms.find(name);
  if (ia == after.histograms.end()) return 0.0;
  const auto ib = before.histograms.find(name);
  const PromHistogram empty;
  const PromHistogram& b = ib == before.histograms.end() ? empty : ib->second;
  const PromHistogram& a = ia->second;
  const double total = a.count - b.count;
  if (total <= 0) return 0.0;
  const double target = q * total;
  double prev_le = -1;
  double prev_cum = 0;
  for (const auto& [le, cum] : a.buckets) {
    const double d = cum - b.cum_at(le);
    if (d >= target && d > prev_cum) {
      const double lo = prev_le + 1;
      return lo + (le - lo) * (target - prev_cum) / (d - prev_cum);
    }
    prev_le = le;
    prev_cum = d;
  }
  return prev_le;
}

double ms(Clock::duration d) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()) /
         1e6;
}

/// Result of driving one fixed rate for a while.
struct PhaseResult {
  bool open_loop = true;
  std::uint64_t sent = 0;
  /// Error or overload replies, wrong replies, and requests unanswered
  /// when the drain time ran out.
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  ///< replies that differ from the reference
  std::vector<std::string> problems;  ///< the first few, described
  std::uint64_t backlog = 0;  ///< requests in flight when sending ended
  /// Per reply: (due time since the phase began in s, reply time minus
  /// due time in ms).
  std::vector<std::pair<double, double>> latency;
  /// Per request: (due time since the phase began in s, send time minus
  /// due time in ms) — how late the generator ran.
  std::vector<std::pair<double, double>> late;
  std::map<Op, std::vector<double>> service_ms;  ///< reply minus send, per op

  /// The phase cut into windows of kWindowS by due time, keeping the
  /// half in which the generator ran least late. A window where the load
  /// itself was sent late measured the host, not the service: the
  /// generator's lateness marks when other tenants of the machine held the
  /// CPU, and those windows would otherwise decide the tail.
  Windows windows() const {
    std::vector<Windows::Window> all;
    std::vector<double> late_max;
    const auto index = [&](double due_s) {
      const std::size_t i = static_cast<std::size_t>(due_s / kWindowS);
      if (all.size() <= i) {
        all.resize(i + 1);
        late_max.resize(i + 1, 0.0);
      }
      return i;
    };
    for (const auto& [due_s, latency_ms] : latency) {
      all[index(due_s)].latency_ms.push_back(latency_ms);
    }
    for (const auto& [due_s, late_ms] : late) {
      const std::size_t i = index(due_s);
      late_max[i] = std::max(late_max[i], late_ms);
    }
    std::vector<std::size_t> order(all.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return late_max[a] < late_max[b];
                     });
    Windows w;
    const std::size_t keep = open_loop ? (order.size() + 1) / 2 : order.size();
    for (std::size_t k = 0; k < keep; ++k) {
      Windows::Window& win = all[order[k]];
      win.ops = static_cast<double>(win.latency_ms.size());
      win.wall_s = kWindowS;
      w.windows.push_back(std::move(win));
    }
    return w;
  }
  /// Median across the kept windows of their q-quantile latency.
  double p(double q) const { return windows().latency_ms(q); }
};

/// The open-loop load generator: one thread, kConnections connections.
/// Sockets are driven non-blocking — a request is queued on its
/// connection when due and written as the socket accepts it, replies are
/// read as they arrive — so a service that stops reading cannot stall the
/// schedule (or deadlock against replies the generator is not reading).
class Generator {
 public:
  Generator(const std::string& socket_path, std::vector<Request> requests,
            std::vector<Expected> expected, std::uint64_t seed)
      : requests_(std::move(requests)),
        expected_(std::move(expected)),
        rng_(seed ^ 0xa5a5a5a5ULL) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_.emplace_back();
      conns_.back().client = std::make_unique<ServiceClient>(socket_path);
    }
  }

  /// Drives `rate` requests per second for `seconds` — or, with rate 0,
  /// keeps kClosedOutstanding requests in flight (closed loop) — then
  /// waits up to
  /// `drain_s` for the replies; requests still unanswered then count as
  /// failed, and their replies are read and dropped before returning.
  /// With a recorder, every request is a span from send to reply.
  PhaseResult run(double rate, double seconds, double drain_s,
                  SpanRecorder* spans) {
    PhaseResult res;
    res.open_loop = rate > 0;
    start_ = Clock::now();
    const auto at = [&](double offset_s) {
      return start_ + std::chrono::nanoseconds(
                          static_cast<std::int64_t>(offset_s * 1e9));
    };
    double next_offset = res.open_loop ? gap(rate) : 0.0;
    const auto send_end = at(seconds);
    const auto drain_end = at(seconds + drain_s);
    bool backlog_taken = false;
    bool counting = true;
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      auto now = Clock::now();
      if (res.open_loop) {
        while (next_offset < seconds && at(next_offset) <= now) {
          send_one(at(next_offset), now, res, spans);
          next_offset += gap(rate);
          now = Clock::now();
        }
      } else {
        while (now < send_end && in_flight() < kClosedOutstanding) {
          send_one(now, now, res, spans);
          now = Clock::now();
        }
      }
      const bool sending =
          res.open_loop ? next_offset < seconds : now < send_end;
      if (!sending && !backlog_taken && now >= send_end) {
        res.backlog = in_flight();
        backlog_taken = true;
      }
      if (!sending && backlog_taken && in_flight() == 0) break;
      if (counting && backlog_taken && now >= drain_end) {
        res.failed += in_flight();
        counting = false;
      }
      Clock::time_point wake = Clock::time_point::max();
      if (sending) {
        wake = res.open_loop ? at(next_offset) : send_end;
      } else if (!backlog_taken) {
        wake = send_end;
      } else if (counting) {
        wake = drain_end;
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        const Conn& conn = conns_[c];
        short events = conn.inflight.empty() ? 0 : POLLIN;
        if (conn.out_off < conn.out.size()) events |= POLLOUT;
        fds[c] = pollfd{conn.client->fd(), events, 0};
      }
      timespec ts{1, 0};  // cap the wait even with nothing scheduled
      if (wake != Clock::time_point::max()) {
        const std::int64_t ns = std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
                   .count());
        ts = timespec{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
      }
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents & POLLOUT) flush(conns_[c]);
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
          receive(c, res, spans, counting);
        }
      }
    }
    return res;
  }

 private:
  struct InFlight {
    std::size_t request = 0;
    Clock::time_point due;
    Clock::time_point sent;
    std::uint64_t span = 0;
  };
  struct Conn {
    std::unique_ptr<ServiceClient> client;
    std::deque<InFlight> inflight;
    std::string out;  ///< framed requests not yet written
    std::size_t out_off = 0;
    std::string in;  ///< bytes received, not yet a whole frame
  };

  double gap(double rate) { return -std::log(1.0 - rng_.unit()) / rate; }

  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.inflight.size();
    return n;
  }

  void send_one(Clock::time_point due, Clock::time_point now,
                PhaseResult& res, SpanRecorder* spans) {
    // The connection with the fewest requests in flight takes the next one.
    std::size_t best = 0;
    for (std::size_t c = 1; c < conns_.size(); ++c) {
      if (conns_[c].inflight.size() < conns_[best].inflight.size()) best = c;
    }
    Conn& conn = conns_[best];
    const std::size_t r = next_request_++ % requests_.size();
    InFlight f{r, due, now, 0};
    if (spans != nullptr) {
      f.span = spans->open("service.request", op_name(requests_[r].op), 0);
    }
    // The frame: 4-byte little-endian payload length, then the payload.
    const std::string& payload = requests_[r].payload;
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      conn.out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
    }
    conn.out += payload;
    flush(conn);
    f.sent = Clock::now();
    res.late.emplace_back(ms(due - start_) / 1e3, ms(now - due));
    conn.inflight.push_back(f);
    ++res.sent;
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t w =
          ::send(conn.client->fd(), conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        throw ServiceError("request write failed");
      }
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  void receive(std::size_t c, PhaseResult& res, SpanRecorder* spans,
               bool counting) {
    Conn& conn = conns_[c];
    char buf[1 << 16];
    const ssize_t got =
        ::recv(conn.client->fd(), buf, sizeof buf, MSG_DONTWAIT);
    if (got == 0) throw ServiceError("service closed a client connection");
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      throw ServiceError("reply read failed");
    }
    conn.in.append(buf, static_cast<std::size_t>(got));
    std::size_t pos = 0;
    while (conn.in.size() - pos >= 4) {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(conn.in[pos + i]))
               << (8 * i);
      }
      if (len == 0 || conn.inflight.empty()) {
        throw ServiceError("malformed or unexpected reply frame");
      }
      if (conn.in.size() - pos - 4 < len) break;
      ServiceClient::Reply reply;
      reply.status = static_cast<std::uint8_t>(conn.in[pos + 4]);
      reply.body = conn.in.substr(pos + 5, len - 1);
      reply.kv = parse_kv(reply.body);
      pos += 4 + len;
      const InFlight f = conn.inflight.front();
      conn.inflight.pop_front();
      if (spans != nullptr) spans->close(f.span);
      if (counting) record(f, reply, res);
    }
    conn.in.erase(0, pos);
  }

  void record(const InFlight& f, const ServiceClient::Reply& reply,
              PhaseResult& res) {
    const auto now = Clock::now();
    res.latency.emplace_back(ms(f.due - start_) / 1e3, ms(now - f.due));
    const Request& req = requests_[f.request];
    res.service_ms[req.op].push_back(ms(now - f.sent));
    std::string problem;
    if (reply.status != kStatusOk) {
      problem = "status " + std::to_string(reply.status) + " " +
                reply.field("error");
    } else {
      problem = check(req, reply);
      res.wrong += !problem.empty();
    }
    if (!problem.empty()) {
      ++res.failed;
      if (res.problems.size() < 8) {
        res.problems.push_back(std::string(op_name(req.op)) + ": " + problem);
      }
    }
  }

  /// "" when an ok reply carries exactly the expected answer.
  std::string check(const Request& req, const ServiceClient::Reply& r) const {
    const Expected& e = expected_[req.expected];
    switch (req.op) {
      case Op::kUpload:
        if (r.field("digest") != e.digest || r.field_u64("nodes") != e.nodes) {
          return "digest " + r.field("digest") + " want " + e.digest;
        }
        return "";
      case Op::kAdvise:
        if (r.field_u64("oracle_bits") != e.oracle_bits ||
            r.field_u64("max_advice_bits") != e.max_advice_bits) {
          return "advice bits differ from the direct oracle";
        }
        return "";
      case Op::kRun:
        if (r.field("status") != e.status ||
            r.field_u64("oracle_bits") != e.oracle_bits ||
            r.field_u64("max_advice_bits") != e.max_advice_bits ||
            r.field_u64("messages_total") != e.messages_total ||
            r.field_u64("bits_sent") != e.bits_sent ||
            r.field_u64("deliveries") != e.deliveries ||
            r.field("completion_key") != std::to_string(e.completion_key) ||
            r.field_u64("informed") != e.informed) {
          return "run reply differs from the direct BatchRunner run";
        }
        return "";
    }
    return "";
  }

  std::vector<Request> requests_;
  std::vector<Expected> expected_;
  Rng rng_;
  std::vector<Conn> conns_;
  std::size_t next_request_ = 0;
  Clock::time_point start_;  ///< when the current phase began
};

}  // namespace

Outcome run_service(const Options& opts, SpanRecorder& recorder) {
  Outcome out;
  const Pool pool = make_pool(opts.seed, opts.smoke);
  const char* tasks[] = {"wakeup", "broadcast", "flooding"};
  const char* schedulers[] = {"sync", "fifo"};
  constexpr std::size_t kTasks = 3;
  constexpr std::size_t kSchedulers = 2;
  constexpr std::size_t kSources = 8;
  const std::size_t G = pool.graphs.size();

  // Every distinct request the mix can make, with its expected reply:
  // uploads per graph, advise per (graph, task, source), runs per (graph,
  // task, source, scheduler). Sources are node 0 plus seeded picks.
  std::vector<Expected> expected;
  std::vector<TaskRequest> templates;
  std::vector<Op> ops;
  std::vector<std::size_t> graph_of;
  const auto add = [&](Op op, std::size_t g, Expected e, TaskRequest req) {
    expected.push_back(std::move(e));
    templates.push_back(std::move(req));
    ops.push_back(op);
    graph_of.push_back(g);
    return expected.size() - 1;
  };
  Rng key_rng(opts.seed * 31 + 7);
  std::vector<std::size_t> upload_key(G);
  // advise_key[g][t][r], run_key[g][t][r][s], flattened.
  std::vector<std::size_t> advise_key(G * kTasks * kSources);
  std::vector<std::size_t> run_key(G * kTasks * kSources * kSchedulers);
  AdviceCache working_set;
  const BatchRunner direct(1);
  for (std::size_t g = 0; g < G; ++g) {
    const PortGraph& graph = pool.graphs[g].second;
    const std::uint64_t n = graph.num_nodes();
    const PortGraph parsed = from_text(pool.texts[g]);
    Expected up;
    up.digest = digest_hex(fnv1a64(to_text(parsed)));
    up.nodes = parsed.num_nodes();
    upload_key[g] = add(Op::kUpload, g, up, TaskRequest{});
    std::vector<NodeId> sources = {0};
    while (sources.size() < kSources) {
      sources.push_back(static_cast<NodeId>(key_rng.below(n)));
    }
    for (std::size_t t = 0; t < kTasks; ++t) {
      for (std::size_t r = 0; r < kSources; ++r) {
        TaskRequest req;
        req.task = tasks[t];
        req.source = sources[r];
        req.seed = opts.seed;
        const TaskBinding binding = bind_task(req);
        const AdviceCache::Lookup advice =
            working_set.lookup(graph, *binding.oracle, req.source);
        Expected e;
        e.oracle_bits = oracle_size_bits(*advice.advice);
        e.max_advice_bits = max_advice_bits(*advice.advice);
        advise_key[(g * kTasks + t) * kSources + r] =
            add(Op::kAdvise, g, e, req);
        for (std::size_t sc = 0; sc < kSchedulers; ++sc) {
          req.scheduler = schedulers[sc];
          // The reference run, with the paper's claims checked on it.
          const TaskReport rep = direct.run({TrialSpec(
              &graph, req.source, binding.oracle.get(), binding.algorithm,
              run_options_for(req))})[0];
          const std::uint64_t msgs = rep.run.metrics.messages_total;
          if (!rep.ok() || (req.task == "wakeup" && msgs != n - 1) ||
              (req.task == "broadcast" && msgs > 3 * (n - 1))) {
            out.mismatch(pool.graphs[g].first + " " + req.task +
                         ": reference run breaks the paper's claim");
          }
          Expected run = e;
          run.status = to_string(rep.run.status);
          run.messages_total = msgs;
          run.bits_sent = rep.run.metrics.bits_sent;
          run.deliveries = rep.run.metrics.deliveries;
          run.completion_key = rep.run.metrics.completion_key;
          run.informed = rep.run.informed_count();
          run_key[((g * kTasks + t) * kSources + r) * kSchedulers + sc] =
              add(Op::kRun, g, run, req);
        }
      }
    }
  }
  const std::uint64_t working_set_bytes = working_set.stats().bytes;
  const std::uint64_t budget =
      std::max<std::uint64_t>(1, working_set_bytes / 3);

  // The deterministic request stream: 4% uploads, 16% advise, 80% run.
  // Graph, task and scheduler are uniform, so every seed asks for the same
  // kind of work; the source follows Zipf(1) over the graph's eight
  // sources, so some advice stays hot while the rest churns the LRU.
  std::vector<double> zipf_cdf;
  double acc = 0;
  for (std::size_t r = 0; r < kSources; ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    zipf_cdf.push_back(acc);
  }
  for (double& c : zipf_cdf) c /= acc;
  Rng mix_rng(opts.seed);
  std::vector<std::size_t> stream(1 << 16);
  for (std::size_t& key : stream) {
    const double u = mix_rng.unit();
    const std::size_t g = mix_rng.below(G);
    const std::size_t t = mix_rng.below(kTasks);
    const std::size_t sc = mix_rng.below(kSchedulers);
    const std::size_t r = std::min<std::size_t>(
        kSources - 1,
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), mix_rng.unit()) -
            zipf_cdf.begin());
    const std::size_t k = (g * kTasks + t) * kSources + r;
    key = u < 0.04   ? upload_key[g]
          : u < 0.20 ? advise_key[k]
                     : run_key[k * kSchedulers + sc];
  }

  // Set-up, kSetupRepeats times: start the service, connect, upload the
  // pool, and warm the advice cache with one advise per key. The last
  // service stays up for the measurement.
  ::mkdir(".bench_build", 0755);
  const std::string socket_path =
      ".bench_build/oracled-" + std::to_string(::getpid()) + ".sock";
  ServiceConfig config;
  config.socket_path = socket_path;
  config.jobs = opts.workers;
  config.cache_budget_bytes = budget;
  std::vector<double> setup_s;
  std::unique_ptr<AdviceService> svc;
  std::vector<std::string> digests(G);
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (svc) {
      svc->shutdown();
      svc->wait();
    }
    const auto t0 = Clock::now();
    svc = std::make_unique<AdviceService>(config);
    svc->start();
    ServiceClient uploader(socket_path);
    for (std::size_t g = 0; g < G; ++g) {
      digests[g] = uploader.upload(pool.texts[g]).field("digest");
    }
    for (std::size_t k : advise_key) {
      TaskRequest req = templates[k];
      req.digest = digests[graph_of[k]];
      if (!uploader.advise(req).ok()) out.mismatch("warm-up advise failed");
    }
    setup_s.push_back(static_cast<double>(since_ns(t0)) / 1e9);
  }

  std::vector<Request> requests;
  requests.reserve(stream.size());
  for (std::size_t k : stream) {
    Request req;
    req.op = ops[k];
    req.expected = k;
    if (req.op == Op::kUpload) {
      req.payload = std::string(1, static_cast<char>(kOpUpload)) +
                    pool.texts[graph_of[k]];
    } else {
      TaskRequest t = templates[k];
      t.digest = digests[graph_of[k]];
      req.payload =
          std::string(1, static_cast<char>(req.op == Op::kRun ? kOpRun
                                                              : kOpAdvise)) +
          encode_task_request(t, req.op == Op::kRun);
    }
    requests.push_back(std::move(req));
  }

  Generator gen(socket_path, std::move(requests), std::move(expected),
                opts.seed);
  const double S = opts.seconds;
  const double drain_s = 1.0;
  // Counts a phase into the result. Every failure counts at the reference
  // rate; elsewhere (warm-up, ladder rates past capacity) a request may
  // time out or be refused, but a wrong reply still counts.
  const auto account = [&](const PhaseResult& ph, bool reference) {
    out.attempted += ph.sent;
    out.failed += reference ? ph.failed : ph.wrong;
    if (reference || ph.wrong > 0) {
      for (const std::string& p : ph.problems) {
        if (out.mismatches.size() < 8) out.mismatches.push_back(p);
      }
    }
  };
  // Warm-up: the cache fills and lazy set-up finishes before timing.
  account(gen.run(kReferenceRate, std::min(1.0, S / 10), drain_s, nullptr),
          false);

  std::ostringstream ladder;
  for (double r : kLadder) ladder << (ladder.tellp() > 0 ? "," : "") << r;
  out.provenance["rate_ladder_rps"] = ladder.str();
  out.provenance["reference_rps"] = std::to_string(kReferenceRate);
  out.provenance["p99_limit_ms"] = std::to_string(kP99LimitMs);
  out.provenance["connections"] = std::to_string(kConnections);
  out.provenance["closed_loop_in_flight"] = std::to_string(kClosedOutstanding);
  out.provenance["cache_budget_bytes"] = std::to_string(budget);
  out.provenance["working_set_bytes"] = std::to_string(working_set_bytes);

  if (!opts.trace) {
    // End to end: a closed loop holding kClosedOutstanding requests in
    // flight, so throughput and latency average over the host's stalls
    // instead of being decided by them (see the traced run for the open
    // loop).
    reset_peak_rss();
    const PhaseResult closed = gen.run(0, 0.9 * S, drain_s, nullptr);
    const double rss_mb = peak_rss_mb();
    account(closed, true);
    svc->shutdown();
    svc->wait();
    const Windows w = closed.windows();
    out.set("setup_s", median(setup_s), setup_s.size());
    out.set("ok_frac",
            1.0 - static_cast<double>(closed.failed) /
                      static_cast<double>(closed.sent),
            closed.sent);
    out.set("peak_rss_mb", rss_mb, 1);
    out.set("ops_per_s", w.ops_per_s(), w.windows.size());
    out.set("p50_ms", w.latency_ms(0.50), w.samples());
    return out;
  }

  // Traced run, open loop: the reference rate untraced, then traced with
  // the service's own counters and histograms read around the traced
  // half, then the ladder. The untraced reference phase is also the
  // ladder's first rate. The ladder climbs until a rate misses the limit —
  // p99 over the limit, an error, or a backlog left when sending stopped.
  // The highest rate that met the limit is refined towards the first that
  // did not, to where p99 crosses the limit (log-linear in rate and p99),
  // so the figure moves smoothly rather than a ladder step at a time.
  const PhaseResult plain = gen.run(kReferenceRate, 0.3 * S, drain_s, nullptr);
  ServiceClient control(socket_path);
  const PromSnapshot before = parse_prometheus(control.metrics().body);
  const PhaseResult traced =
      gen.run(kReferenceRate, 0.3 * S, drain_s, &recorder);
  const PromSnapshot after = parse_prometheus(control.metrics().body);
  account(plain, true);
  account(traced, true);
  double max_rps = 0;
  double max_p99 = 0;
  std::ostringstream rungs;
  for (double rate : kLadder) {
    const PhaseResult ph = rate == kReferenceRate
                               ? plain
                               : gen.run(rate, 0.06 * S, drain_s, nullptr);
    if (rate != kReferenceRate) account(ph, false);
    const double p99 = ph.p(0.99);
    rungs << (rungs.tellp() > 0 ? " " : "") << rate << ":" << p99 << "ms/"
          << ph.backlog;
    const bool backlog_grew =
        ph.backlog > std::max<std::uint64_t>(8, ph.sent / 50);
    if (ph.failed == 0 && !backlog_grew && p99 <= kP99LimitMs) {
      max_rps = rate;
      max_p99 = p99;
      continue;
    }
    if (max_rps > 0 && p99 > kP99LimitMs) {
      const double frac =
          std::log(kP99LimitMs / max_p99) / std::log(p99 / max_p99);
      max_rps *= std::pow(rate / max_rps, frac);
    }
    break;
  }
  out.provenance["ladder_p99_ms_backlog"] = rungs.str();
  svc->shutdown();
  svc->wait();

  // The upload write path on its own: from_text, then GraphStore::insert.
  std::vector<double> parse_ms;
  {
    GraphStore store;
    for (int rep = 0; rep < 5; ++rep) {
      for (const std::string& text : pool.texts) {
        const auto t0 = Clock::now();
        {
          Span span(&recorder, "graph.from_text");
          (void)from_text(text);
        }
        parse_ms.push_back(static_cast<double>(since_ns(t0)) / 1e6);
        Span span(&recorder, "graph.store_insert");
        store.insert(text, ParseLimits{});
      }
    }
  }

  const auto delta = [&](const std::string& name) {
    return after.value(name) - before.value(name);
  };
  const double server_p50 =
      delta_quantile(before, after, "oracled_request_latency_ns", 0.5) / 1e6;
  const double hits = delta("oracled_advice_cache_hits");
  const double misses = delta("oracled_advice_cache_misses");
  const double lanes_n = delta("oracled_batch_lanes_count");
  const auto op_ms = [&](Op op) {
    const auto it = traced.service_ms.find(op);
    return it == traced.service_ms.end() ? std::vector<double>{} : it->second;
  };
  std::vector<double> all_service_ms;
  for (const auto& [op, v] : traced.service_ms) {
    all_service_ms.insert(all_service_ms.end(), v.begin(), v.end());
  }
  const std::uint64_t n = traced.latency.size();
  out.set("graph.parse_ms_p50", median(parse_ms), parse_ms.size());
  out.set("service.server_ms_p50", server_p50, n);
  out.set("service.server_ms_p99",
          delta_quantile(before, after, "oracled_request_latency_ns", 0.99) /
              1e6,
          n);
  out.set("service.queue_wait_ms_p50",
          delta_quantile(before, after, "oracled_queue_wait_ns", 0.5) / 1e6,
          n);
  out.set("service.queue_wait_ms_p99",
          delta_quantile(before, after, "oracled_queue_wait_ns", 0.99) / 1e6,
          n);
  out.set("service.transport_ms_p50", median(all_service_ms) - server_p50, n);
  out.set("service.batch_lanes_mean",
          lanes_n > 0 ? delta("oracled_batch_lanes_sum") / lanes_n : 0.0,
          static_cast<std::uint64_t>(lanes_n));
  out.set("service.cache_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0,
          static_cast<std::uint64_t>(hits + misses));
  out.set("service.evictions", delta("oracled_advice_cache_evictions"), n);
  out.set("service.rejected_overload", delta("oracled_rejected_overload"), n);
  out.set("service.upload_ms_p50", median(op_ms(Op::kUpload)),
          op_ms(Op::kUpload).size());
  out.set("service.run_ms_p50", median(op_ms(Op::kRun)),
          op_ms(Op::kRun).size());
  out.set("service.advise_ms_p50", median(op_ms(Op::kAdvise)),
          op_ms(Op::kAdvise).size());
  std::vector<double> late_ms;
  for (const auto& entry : traced.late) late_ms.push_back(entry.second);
  out.set("service.gen_late_ms_p99", quantile(late_ms, 0.99), late_ms.size());
  const Windows plain_w = plain.windows();
  out.set("service.ref_p50_ms", plain_w.latency_ms(0.50), plain_w.samples());
  out.set("tail_p99_ms", plain_w.latency_ms(0.99), plain_w.samples());
  out.set("service.max_rps", max_rps, kLadder.size());
  out.set("trace_overhead_frac",
          traced.p(0.5) / plain.p(0.5) - 1.0, n);
  return out;
}

}  // namespace perfbench
