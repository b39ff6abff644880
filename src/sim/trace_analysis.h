// Post-hoc analysis of recorded event streams.
//
// A TraceRecorder attached through RunOptions::trace_sink (or load_trace on
// an `oracletrace` file) yields the run's event stream; these helpers read
// its kSend events — one per transmission, dropped ones included — and turn
// them into the quantities invariants are stated about: per-edge traffic,
// per-direction traffic, per-kind breakdowns, and the "does all traffic
// ride a given edge set" predicate the Theorem 3.1 proofs use. Every other
// event kind (deliveries, fault decisions, node-state transitions) is
// ignored, so a TraceLevel::kMessages and a kFull recording of one run
// analyze identically.
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/trace_recorder.h"

namespace oraclesize {

/// Normalized undirected edge key (min id, max id).
using EdgeKey = std::pair<NodeId, NodeId>;
/// Directed key (from, to).
using DirectedKey = std::pair<NodeId, NodeId>;

/// The kSend events of `events`, in stream order.
std::vector<TraceEvent> send_events(const std::vector<TraceEvent>& events);

/// Messages per undirected edge, optionally restricted to one kind.
std::map<EdgeKey, std::uint64_t> traffic_per_edge(
    const std::vector<TraceEvent>& events);
std::map<EdgeKey, std::uint64_t> traffic_per_edge(
    const std::vector<TraceEvent>& events, MsgKind kind);

/// Messages per directed (from, to) pair.
std::map<DirectedKey, std::uint64_t> traffic_per_direction(
    const std::vector<TraceEvent>& events);

/// The heaviest undirected edge's message count (0 for an empty stream).
std::uint64_t max_edge_traffic(const std::vector<TraceEvent>& events);

/// True iff every sent message traveled inside `allowed` (normalized
/// undirected keys) — e.g. the spanning-tree edge set.
bool traffic_within(const std::vector<TraceEvent>& events,
                    const std::set<EdgeKey>& allowed);

/// Number of messages sent by nodes that were not informed at send time
/// (0 for any wakeup-legal execution).
std::uint64_t uninformed_sends(const std::vector<TraceEvent>& events);

}  // namespace oraclesize
