#include "sim/trace_recorder.h"

#include "graph/io.h"

#include <iomanip>
#include <ios>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace oraclesize {

namespace {

// ---- FNV-1a (64-bit) over explicit integers --------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

// ---- token helpers for the line format ------------------------------------

[[noreturn]] void parse_fail(std::size_t line, const std::string& what) {
  std::ostringstream os;
  os << "trace parse error (line " << line << "): " << what;
  throw std::runtime_error(os.str());
}

std::uint64_t tok_u64(std::istringstream& in, std::size_t line,
                      const char* what) {
  std::uint64_t v = 0;
  if (!(in >> v)) parse_fail(line, std::string("expected integer ") + what);
  return v;
}

std::int64_t tok_i64(std::istringstream& in, std::size_t line,
                     const char* what) {
  std::int64_t v = 0;
  if (!(in >> v)) parse_fail(line, std::string("expected integer ") + what);
  return v;
}

double tok_double(std::istringstream& in, std::size_t line,
                  const char* what) {
  double v = 0;
  if (!(in >> v)) parse_fail(line, std::string("expected number ") + what);
  return v;
}

std::string tok_word(std::istringstream& in, std::size_t line,
                     const char* what) {
  std::string v;
  if (!(in >> v)) parse_fail(line, std::string("expected token ") + what);
  return v;
}

SchedulerKind scheduler_from_string(const std::string& s, std::size_t line) {
  if (s == "sync") return SchedulerKind::kSynchronous;
  if (s == "async-random") return SchedulerKind::kAsyncRandom;
  if (s == "async-fifo") return SchedulerKind::kAsyncFifo;
  if (s == "async-lifo") return SchedulerKind::kAsyncLifo;
  if (s == "async-link-fifo") return SchedulerKind::kAsyncLinkFifo;
  if (s == "async-adversarial") return SchedulerKind::kAsyncAdversarial;
  parse_fail(line, "unknown scheduler '" + s + "'");
}

ByzantineStrategy strategy_from_string(const std::string& s,
                                       std::size_t line) {
  if (s == "random-bits") return ByzantineStrategy::kRandomBits;
  if (s == "replay") return ByzantineStrategy::kReplay;
  if (s == "structured-lie") return ByzantineStrategy::kStructuredLie;
  parse_fail(line, "unknown byzantine strategy '" + s + "'");
}

TraceEventKind event_kind_from_string(const std::string& s,
                                      std::size_t line) {
  if (s == "send") return TraceEventKind::kSend;
  if (s == "deliver") return TraceEventKind::kDeliver;
  if (s == "drop") return TraceEventKind::kDrop;
  if (s == "dup") return TraceEventKind::kDuplicate;
  if (s == "delay") return TraceEventKind::kDelay;
  if (s == "crash") return TraceEventKind::kCrash;
  if (s == "dead") return TraceEventKind::kDeadDelivery;
  if (s == "informed") return TraceEventKind::kInformed;
  if (s == "advice") return TraceEventKind::kAdviceRead;
  if (s == "forge") return TraceEventKind::kForge;
  if (s == "equivocate") return TraceEventKind::kEquivocate;
  if (s == "replay") return TraceEventKind::kReplayAttack;
  if (s == "advlie") return TraceEventKind::kAdviceLie;
  parse_fail(line, "unknown event kind '" + s + "'");
}

MsgKind msg_kind_from_string(const std::string& s, std::size_t line) {
  if (s == "source") return MsgKind::kSource;
  if (s == "hello") return MsgKind::kHello;
  if (s == "control") return MsgKind::kControl;
  parse_fail(line, "unknown message kind '" + s + "'");
}

RunStatus status_from_string(const std::string& s, std::size_t line) {
  if (s == "completed") return RunStatus::kCompleted;
  if (s == "task_failed") return RunStatus::kTaskFailed;
  if (s == "timeout") return RunStatus::kTimeout;
  if (s == "budget_exhausted") return RunStatus::kBudgetExhausted;
  if (s == "crashed") return RunStatus::kCrashed;
  if (s == "byzantine_detected") return RunStatus::kByzantineDetected;
  parse_fail(line, "unknown run status '" + s + "'");
}

TraceLevel level_from_string(const std::string& s, std::size_t line) {
  if (s == "messages") return TraceLevel::kMessages;
  if (s == "full") return TraceLevel::kFull;
  parse_fail(line, "unknown trace level '" + s + "'");
}

/// Doubles (fault probabilities) are written with enough digits to
/// round-trip exactly through text.
void write_double(std::ostream& os, double v) {
  std::ostringstream buf;
  buf << std::setprecision(17) << v;
  os << buf.str();
}

/// JSON string escaping for the Chrome export.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSend: return "send";
    case TraceEventKind::kDeliver: return "deliver";
    case TraceEventKind::kDrop: return "drop";
    case TraceEventKind::kDuplicate: return "dup";
    case TraceEventKind::kDelay: return "delay";
    case TraceEventKind::kCrash: return "crash";
    case TraceEventKind::kDeadDelivery: return "dead";
    case TraceEventKind::kInformed: return "informed";
    case TraceEventKind::kAdviceRead: return "advice";
    case TraceEventKind::kForge: return "forge";
    case TraceEventKind::kEquivocate: return "equivocate";
    case TraceEventKind::kReplayAttack: return "replay";
    case TraceEventKind::kAdviceLie: return "advlie";
  }
  return "unknown";
}

const char* to_string(TraceLevel level) {
  switch (level) {
    case TraceLevel::kMessages: return "messages";
    case TraceLevel::kFull: return "full";
  }
  return "unknown";
}

std::string to_string(const TraceEvent& e) {
  std::ostringstream os;
  os << to_string(e.kind) << " node=" << e.node << " port=" << e.port
     << " peer=" << e.peer << " msg=" << to_string(e.msg) << " key=" << e.key
     << " seq=" << e.seq << " link=" << e.link << " aux=" << e.aux
     << " flag=" << (e.flag ? 1 : 0);
  return os.str();
}

RunOptions TraceHeader::to_run_options() const {
  RunOptions o;
  o.scheduler = scheduler;
  o.seed = seed;
  o.max_delay = max_delay;
  o.max_messages = max_messages;
  o.max_events = max_events;
  o.enforce_wakeup = enforce_wakeup;
  o.anonymous = anonymous;
  o.fault = fault;
  o.adversary = adversary;
  return o;
}

std::uint64_t RecordedTrace::digest() const {
  std::uint64_t h = kFnvOffset;
  for (const TraceEvent& e : events) {
    fnv_u64(h, static_cast<std::uint64_t>(e.kind));
    fnv_u64(h, static_cast<std::uint64_t>(e.key));
    fnv_u64(h, e.seq);
    fnv_u64(h, e.link);
    fnv_u64(h, e.aux);
    fnv_u64(h, e.node);
    fnv_u64(h, e.peer);
    fnv_u64(h, e.port);
    fnv_u64(h, static_cast<std::uint64_t>(e.msg));
    fnv_u64(h, e.flag ? 1 : 0);
  }
  fnv_u64(h, static_cast<std::uint64_t>(status));
  fnv_u64(h, metrics.messages_total);
  fnv_u64(h, metrics.messages_source);
  fnv_u64(h, metrics.messages_hello);
  fnv_u64(h, metrics.messages_control);
  fnv_u64(h, metrics.bits_sent);
  fnv_u64(h, metrics.deliveries);
  fnv_u64(h, static_cast<std::uint64_t>(metrics.completion_key));
  fnv_u64(h, metrics.queue_depth_peak);
  fnv_u64(h, faults.dropped);
  fnv_u64(h, faults.duplicated);
  fnv_u64(h, faults.delayed);
  fnv_u64(h, faults.crashed_nodes);
  fnv_u64(h, faults.dead_deliveries);
  fnv_u64(h, faults.advice_bits_flipped);
  // Adversary counters fold in only when the run saw Byzantine activity:
  // the zero case hashes nothing extra, so every pre-Byzantine pinned
  // golden digest (tests/test_goldens.cpp) is preserved.
  if (!(adversary == AdversaryCounters{})) {
    fnv_u64(h, adversary.lying_nodes);
    fnv_u64(h, adversary.forged);
    fnv_u64(h, adversary.equivocated);
    fnv_u64(h, adversary.replayed);
    fnv_u64(h, adversary.structured_lies);
    fnv_u64(h, adversary.advice_lies);
  }
  return h;
}

void save_trace(std::ostream& os, const RecordedTrace& t) {
  os << "oracletrace 1\n";
  os << "algorithm " << t.header.algorithm << "\n";
  if (!t.header.oracle.empty()) os << "oracle " << t.header.oracle << "\n";
  os << "source " << t.header.source << "\n"
     << "scheduler " << to_string(t.header.scheduler) << "\n"
     << "keying counter\n"
     << "seed " << t.header.seed << "\n"
     << "max_delay " << t.header.max_delay << "\n"
     << "max_messages " << t.header.max_messages << "\n"
     << "max_events " << t.header.max_events << "\n"
     << "enforce_wakeup " << (t.header.enforce_wakeup ? 1 : 0) << "\n"
     << "anonymous " << (t.header.anonymous ? 1 : 0) << "\n"
     << "level " << to_string(t.header.level) << "\n";
  const FaultPlanParams& f = t.header.fault;
  os << "fault " << f.seed << " ";
  write_double(os, f.drop);
  os << " ";
  write_double(os, f.duplicate);
  os << " ";
  write_double(os, f.delay);
  os << " " << f.max_extra_delay << " ";
  write_double(os, f.crash);
  os << " " << f.max_crash_key << " " << (f.crash_source ? 1 : 0) << " ";
  write_double(os, f.advice_flip);
  os << "\n";
  // The adversary line exists only on Byzantine traces: older readers (and
  // older files) never see or miss it.
  if (t.header.adversary.enabled()) {
    const AdversaryPlanParams& a = t.header.adversary;
    os << "adversary " << a.seed << " ";
    write_double(os, a.byz_rate);
    os << " " << a.byz_nodes << " " << (a.byz_source ? 1 : 0) << " "
       << to_string(a.strategy) << " ";
    write_double(os, a.forge);
    os << " ";
    write_double(os, a.equivocate);
    os << " ";
    write_double(os, a.advice_lie);
    os << " " << a.replay_window << "\n";
  }

  std::size_t graph_lines = 0;
  for (char c : t.graph_text) graph_lines += (c == '\n') ? 1 : 0;
  if (!t.graph_text.empty() && t.graph_text.back() != '\n') ++graph_lines;
  os << "graph " << graph_lines << "\n" << t.graph_text;
  if (!t.graph_text.empty() && t.graph_text.back() != '\n') os << "\n";

  os << "advice " << t.advice.size() << "\n";
  for (const BitString& a : t.advice) {
    os << (a.empty() ? "-" : a.to_string()) << "\n";
  }

  os << "events " << t.events.size() << "\n";
  for (const TraceEvent& e : t.events) {
    os << "e " << to_string(e.kind) << " " << e.node << " " << e.port << " "
       << e.peer << " " << to_string(e.msg) << " " << e.key << " " << e.seq
       << " " << e.link << " " << e.aux << " " << (e.flag ? 1 : 0) << "\n";
  }

  os << "status " << to_string(t.status) << "\n";
  const Metrics& m = t.metrics;
  os << "metrics " << m.messages_total << " " << m.messages_source << " "
     << m.messages_hello << " " << m.messages_control << " " << m.bits_sent
     << " " << m.deliveries << " " << m.completion_key << " "
     << m.queue_depth_peak << "\n";
  const FaultCounters& fc = t.faults;
  os << "faults " << fc.dropped << " " << fc.duplicated << " " << fc.delayed
     << " " << fc.crashed_nodes << " " << fc.dead_deliveries << " "
     << fc.advice_bits_flipped << "\n";
  if (!(t.adversary == AdversaryCounters{})) {
    const AdversaryCounters& ac = t.adversary;
    os << "byzantine " << ac.lying_nodes << " " << ac.forged << " "
       << ac.equivocated << " " << ac.replayed << " " << ac.structured_lies
       << " " << ac.advice_lies << "\n";
  }
  os << "digest " << std::hex << t.digest() << std::dec << "\n";
}

RecordedTrace load_trace(std::istream& is) {
  RecordedTrace t;
  std::size_t lineno = 0;
  std::string line;
  auto next_line = [&]() -> std::string& {
    if (!std::getline(is, line)) parse_fail(lineno, "unexpected end of file");
    ++lineno;
    return line;
  };

  {
    std::istringstream in(next_line());
    std::string magic = tok_word(in, lineno, "magic");
    const std::uint64_t version = tok_u64(in, lineno, "version");
    if (magic != "oracletrace" || version != 1) {
      parse_fail(lineno, "not an oracletrace v1 file");
    }
  }

  bool have_keying = false;
  bool have_events = false;
  std::size_t num_events = 0;
  while (!have_events) {
    std::istringstream in(next_line());
    const std::string tag = tok_word(in, lineno, "section tag");
    if (tag == "algorithm") {
      t.header.algorithm = tok_word(in, lineno, "algorithm name");
    } else if (tag == "oracle") {
      t.header.oracle = tok_word(in, lineno, "oracle name");
    } else if (tag == "source") {
      t.header.source = static_cast<NodeId>(tok_u64(in, lineno, "source"));
    } else if (tag == "scheduler") {
      t.header.scheduler =
          scheduler_from_string(tok_word(in, lineno, "scheduler"), lineno);
    } else if (tag == "keying") {
      // Delays are counter-keyed (sim/scheduler.h); traces recorded under
      // the retired draw-order stream keying cannot be replayed.
      const std::string keying = tok_word(in, lineno, "keying");
      if (keying != "counter") {
        parse_fail(lineno, "unsupported keying '" + keying + "'");
      }
      have_keying = true;
    } else if (tag == "seed") {
      t.header.seed = tok_u64(in, lineno, "seed");
    } else if (tag == "max_delay") {
      t.header.max_delay =
          static_cast<std::uint32_t>(tok_u64(in, lineno, "max_delay"));
    } else if (tag == "max_messages") {
      t.header.max_messages = tok_u64(in, lineno, "max_messages");
    } else if (tag == "max_events") {
      t.header.max_events = tok_u64(in, lineno, "max_events");
    } else if (tag == "enforce_wakeup") {
      t.header.enforce_wakeup = tok_u64(in, lineno, "enforce_wakeup") != 0;
    } else if (tag == "anonymous") {
      t.header.anonymous = tok_u64(in, lineno, "anonymous") != 0;
    } else if (tag == "level") {
      t.header.level = level_from_string(tok_word(in, lineno, "level"), lineno);
    } else if (tag == "fault") {
      FaultPlanParams& f = t.header.fault;
      f.seed = tok_u64(in, lineno, "fault seed");
      f.drop = tok_double(in, lineno, "drop");
      f.duplicate = tok_double(in, lineno, "duplicate");
      f.delay = tok_double(in, lineno, "delay");
      f.max_extra_delay =
          static_cast<std::uint32_t>(tok_u64(in, lineno, "max_extra_delay"));
      f.crash = tok_double(in, lineno, "crash");
      f.max_crash_key =
          static_cast<std::uint32_t>(tok_u64(in, lineno, "max_crash_key"));
      f.crash_source = tok_u64(in, lineno, "crash_source") != 0;
      f.advice_flip = tok_double(in, lineno, "advice_flip");
    } else if (tag == "adversary") {
      AdversaryPlanParams& a = t.header.adversary;
      a.seed = tok_u64(in, lineno, "adversary seed");
      a.byz_rate = tok_double(in, lineno, "byz_rate");
      a.byz_nodes =
          static_cast<std::uint32_t>(tok_u64(in, lineno, "byz_nodes"));
      a.byz_source = tok_u64(in, lineno, "byz_source") != 0;
      a.strategy =
          strategy_from_string(tok_word(in, lineno, "strategy"), lineno);
      a.forge = tok_double(in, lineno, "forge");
      a.equivocate = tok_double(in, lineno, "equivocate");
      a.advice_lie = tok_double(in, lineno, "advice_lie");
      a.replay_window =
          static_cast<std::uint32_t>(tok_u64(in, lineno, "replay_window"));
    } else if (tag == "graph") {
      const std::uint64_t lines = tok_u64(in, lineno, "graph line count");
      std::string text;
      for (std::uint64_t i = 0; i < lines; ++i) {
        text += next_line();
        text += '\n';
      }
      t.graph_text = std::move(text);
    } else if (tag == "advice") {
      const std::uint64_t n = tok_u64(in, lineno, "advice count");
      t.advice.clear();
      t.advice.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::string& a = next_line();
        t.advice.push_back(a == "-" ? BitString{}
                                    : BitString::from_string(a));
      }
    } else if (tag == "events") {
      if (!have_keying) parse_fail(lineno, "missing keying header line");
      num_events = tok_u64(in, lineno, "event count");
      have_events = true;
    } else {
      parse_fail(lineno, "unknown section '" + tag + "'");
    }
  }

  t.events.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    std::istringstream in(next_line());
    const std::string tag = tok_word(in, lineno, "event tag");
    if (tag != "e") parse_fail(lineno, "expected event line");
    TraceEvent e;
    e.kind = event_kind_from_string(tok_word(in, lineno, "kind"), lineno);
    e.node = static_cast<NodeId>(tok_u64(in, lineno, "node"));
    e.port = static_cast<Port>(tok_u64(in, lineno, "port"));
    e.peer = static_cast<NodeId>(tok_u64(in, lineno, "peer"));
    e.msg = msg_kind_from_string(tok_word(in, lineno, "msg"), lineno);
    e.key = tok_i64(in, lineno, "key");
    e.seq = tok_u64(in, lineno, "seq");
    e.link = tok_u64(in, lineno, "link");
    e.aux = tok_u64(in, lineno, "aux");
    e.flag = tok_u64(in, lineno, "flag") != 0;
    t.events.push_back(e);
  }

  bool have_digest = false;
  while (!have_digest) {
    std::istringstream in(next_line());
    const std::string tag = tok_word(in, lineno, "footer tag");
    if (tag == "status") {
      t.status = status_from_string(tok_word(in, lineno, "status"), lineno);
    } else if (tag == "metrics") {
      Metrics& m = t.metrics;
      m.messages_total = tok_u64(in, lineno, "messages_total");
      m.messages_source = tok_u64(in, lineno, "messages_source");
      m.messages_hello = tok_u64(in, lineno, "messages_hello");
      m.messages_control = tok_u64(in, lineno, "messages_control");
      m.bits_sent = tok_u64(in, lineno, "bits_sent");
      m.deliveries = tok_u64(in, lineno, "deliveries");
      m.completion_key = tok_i64(in, lineno, "completion_key");
      m.queue_depth_peak = tok_u64(in, lineno, "queue_depth_peak");
    } else if (tag == "faults") {
      FaultCounters& fc = t.faults;
      fc.dropped = tok_u64(in, lineno, "dropped");
      fc.duplicated = tok_u64(in, lineno, "duplicated");
      fc.delayed = tok_u64(in, lineno, "delayed");
      fc.crashed_nodes = tok_u64(in, lineno, "crashed_nodes");
      fc.dead_deliveries = tok_u64(in, lineno, "dead_deliveries");
      fc.advice_bits_flipped = tok_u64(in, lineno, "advice_bits_flipped");
    } else if (tag == "byzantine") {
      AdversaryCounters& ac = t.adversary;
      ac.lying_nodes = tok_u64(in, lineno, "lying_nodes");
      ac.forged = tok_u64(in, lineno, "forged");
      ac.equivocated = tok_u64(in, lineno, "equivocated");
      ac.replayed = tok_u64(in, lineno, "replayed");
      ac.structured_lies = tok_u64(in, lineno, "structured_lies");
      ac.advice_lies = tok_u64(in, lineno, "advice_lies");
    } else if (tag == "digest") {
      std::uint64_t stored = 0;
      in >> std::hex >> stored >> std::dec;
      if (in.fail()) parse_fail(lineno, "bad digest");
      if (stored != t.digest()) {
        parse_fail(lineno, "digest mismatch: file corrupted or hand-edited");
      }
      have_digest = true;
    } else {
      parse_fail(lineno, "unknown footer section '" + tag + "'");
    }
  }
  return t;
}

void write_chrome_trace(std::ostream& os, const RecordedTrace& t) {
  os << "{\"traceEvents\":[\n";
  os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
        "\"args\":{\"name\":\""
     << json_escape(t.header.algorithm) << " ("
     << to_string(t.header.scheduler) << ")\"}}";
  for (const TraceEvent& e : t.events) {
    // Message events render as 1-unit slices on the acting node's track;
    // state events as instants. ts is the scheduler's logical clock.
    const bool instant = e.kind == TraceEventKind::kInformed ||
                         e.kind == TraceEventKind::kAdviceRead ||
                         e.kind == TraceEventKind::kCrash ||
                         e.kind == TraceEventKind::kDrop;
    os << ",\n  {\"name\":\"" << to_string(e.kind) << "\",\"cat\":\""
       << to_string(e.msg) << "\",\"ph\":\"" << (instant ? "i" : "X")
       << "\",\"ts\":" << e.key << (instant ? "" : ",\"dur\":1")
       << ",\"pid\":0,\"tid\":" << e.node
       << (instant ? ",\"s\":\"t\"" : "") << ",\"args\":{\"peer\":" << e.peer
       << ",\"port\":" << e.port << ",\"seq\":" << e.seq
       << ",\"link\":" << e.link << ",\"aux\":" << e.aux << ",\"flag\":"
       << (e.flag ? "true" : "false") << "}}";
  }
  os << "\n]}\n";
}

void TraceRecorder::begin_run(const TraceRunInfo& info) {
  complete_ = false;
  trace_.events.clear();
  trace_.header = TraceHeader{};
  trace_.header.algorithm = info.algorithm;
  trace_.header.source = info.source;
  trace_.header.level = level_;
  if (info.options != nullptr) {
    const RunOptions& o = *info.options;
    trace_.header.scheduler = o.scheduler;
    trace_.header.seed = o.seed;
    trace_.header.max_delay = o.max_delay;
    trace_.header.max_messages = o.max_messages;
    trace_.header.max_events = o.max_events;
    trace_.header.enforce_wakeup = o.enforce_wakeup;
    trace_.header.anonymous = o.anonymous;
    trace_.header.fault = o.fault;
    trace_.header.adversary = o.adversary;
  }
  trace_.graph_text.clear();
  if (info.graph != nullptr) trace_.graph_text = to_text(*info.graph);
  trace_.advice.clear();
  if (info.advice != nullptr) trace_.advice = *info.advice;
}

void TraceRecorder::record(const TraceEvent& event) {
  if (level_ == TraceLevel::kMessages &&
      (event.kind == TraceEventKind::kInformed ||
       event.kind == TraceEventKind::kAdviceRead)) {
    return;
  }
  trace_.events.push_back(event);
}

void TraceRecorder::end_run(const RunResult& result) {
  trace_.status = result.status;
  trace_.metrics = result.metrics;
  trace_.faults = result.faults;
  trace_.adversary = result.adversary;
  complete_ = true;
}

RecordedTrace TraceRecorder::take() {
  complete_ = false;
  return std::move(trace_);
}

}  // namespace oraclesize
