// The paper's history-function formalism: a scheme written as a pure
// function of the full history must behave identically to its stateful
// incremental counterpart.
#include "sim/history.h"

#include <gtest/gtest.h>

#include <set>

#include "bitio/codecs.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/trace_analysis.h"

namespace oraclesize {
namespace {

// The Theorem 2.1 wakeup scheme, written literally as the paper defines a
// scheme: sends as a function of (f(v), s(v), id(v), deg(v), (m_i, p_i)*).
std::vector<Send> wakeup_as_history_function(const History& h) {
  // Decide whether this history contains the moment of becoming informed:
  // the source is informed from the start; others upon the first kSource
  // message. If informed, the (cumulative) send-set is M on every advised
  // child port; otherwise empty.
  bool informed = h.input.is_source;
  for (const auto& [msg, port] : h.received) {
    informed = informed || msg.kind == MsgKind::kSource;
  }
  if (!informed) return {};
  std::vector<Send> sends;
  for (std::uint64_t p : decode_port_list(*h.input.advice)) {
    sends.push_back(Send{Message::source(), static_cast<Port>(p)});
  }
  return sends;
}

TEST(HistoryScheme, PureWakeupMatchesStatefulWakeup) {
  Rng rng(801);
  const PortGraph g = make_random_connected(40, 0.2, rng);
  const auto advice = TreeWakeupOracle().advise(g, 0);
  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions opts;
  opts.trace_sink = &recorder;
  opts.enforce_wakeup = true;

  const HistorySchemeAlgorithm pure(wakeup_as_history_function,
                                    "wakeup-pure", /*wakeup=*/true);
  const RunResult a = run_execution(g, 0, advice, pure, opts);
  const auto sa = send_events(recorder.trace().events);
  const RunResult b = run_execution(g, 0, advice, WakeupTreeAlgorithm(),
                                    opts);
  const auto sb = send_events(recorder.trace().events);
  ASSERT_TRUE(a.violation.empty()) << a.violation;
  EXPECT_TRUE(a.all_informed);
  ASSERT_EQ(sa.size(), a.metrics.messages_total);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].node, sb[i].node) << i;
    EXPECT_EQ(sa[i].port, sb[i].port) << i;
    EXPECT_EQ(sa[i].msg, sb[i].msg) << i;
  }
}

TEST(HistoryScheme, PureWakeupExactMessageCount) {
  const PortGraph g = make_grid(5, 5);
  const auto advice = TreeWakeupOracle().advise(g, 3);
  const HistorySchemeAlgorithm pure(wakeup_as_history_function,
                                    "wakeup-pure", true);
  RunOptions opts;
  opts.enforce_wakeup = true;
  const RunResult r = run_execution(g, 3, advice, pure, opts);
  EXPECT_TRUE(r.all_informed);
  EXPECT_EQ(r.metrics.messages_total, g.num_nodes() - 1);
}

TEST(HistoryScheme, MonotoneEmissionNoDuplicates) {
  // A scheme whose cumulative output grows by one send per received
  // message: the adapter must emit each exactly once.
  const HistoryScheme echo = [](const History& h) {
    std::vector<Send> sends;
    if (h.input.is_source) sends.push_back(Send{Message::control(0), 0});
    for (std::size_t i = 0; i < h.received.size(); ++i) {
      sends.push_back(Send{Message::control(i + 1), 0});
    }
    return sends;
  };
  const PortGraph g = make_path(2);
  const std::vector<BitString> advice(2);
  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions opts;
  opts.trace_sink = &recorder;
  opts.max_messages = 40;  // the two nodes echo forever; cap it
  const RunResult r = run_execution(
      g, 0, advice, HistorySchemeAlgorithm(echo, "echo"), opts);
  // Each cumulative send is emitted exactly once: one fresh send per
  // delivery plus the source's initial one. Deliveries lag sends by the
  // in-flight messages, so sends <= deliveries + small slack; re-emission
  // would make sends grow ~quadratically in deliveries instead.
  // The ping-pong actually ran.
  EXPECT_GT(send_events(recorder.trace().events).size(), 4u);
  EXPECT_LE(r.metrics.messages_total, r.metrics.deliveries + 3);
  EXPECT_NE(r.violation.find("budget"), std::string::npos);
}

TEST(RecordingBehavior, CapturesFullHistory) {
  auto inner = WakeupTreeAlgorithm().make_behavior(NodeInput{});
  RecordingBehavior rec(std::move(inner));
  NodeInput input;
  input.degree = 3;
  const BitString adv = encode_port_list({1}, 2);
  input.advice = &adv;
  std::vector<Send> sink;
  rec.on_start(input, sink);
  rec.on_receive(input, Message::source(), 2, sink);
  rec.on_receive(input, Message::hello(), 0, sink);
  const History& h = rec.history();
  EXPECT_EQ(h.input.degree, 3u);
  ASSERT_EQ(h.received.size(), 2u);
  EXPECT_EQ(h.received[0].first.kind, MsgKind::kSource);
  EXPECT_EQ(h.received[0].second, 2u);
  EXPECT_EQ(h.received[1].first.kind, MsgKind::kHello);
}

}  // namespace
}  // namespace oraclesize
