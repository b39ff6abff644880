// The request surface of the advice service: which tasks it serves and how
// a wire request becomes (oracle, algorithm, RunOptions).
//
// The catalog follows the CLI's task table (tools/oraclesize_cli.cpp
// select_task): the same task names, oracle classes, tree defaults and
// scheduler names. It is not an exact mirror:
//  * `run hybrid` on the CLI passes --seed as both the advised-set seed
//    and the scheduler seed; the service takes a separate `oracle_seed`;
//  * the service exposes only scheduler, seed and message-drop faults of
//    the CLI's run options.
// Nothing checks the catalog against the CLI. What is checked is that a
// service reply equals a direct BatchRunner run of the same bind_task /
// run_options_for binding: tests/test_service.cpp
// (ServiceRoundTrip.RunMatchesDirectBatchRunner) and perfbench's `service`
// workload, which checks every reply under concurrent load.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/replay.h"
#include "oracle/oracle.h"
#include "sim/engine.h"

namespace oraclesize::service {

/// One advise or run request, decoded. Field defaults match the CLI's.
struct TaskRequest {
  std::string digest;             ///< names an uploaded network
  std::string task = "wakeup";    ///< wakeup|broadcast|flooding|census|gossip|hybrid
  NodeId source = 0;
  std::string tree;               ///< bfs|dfs|kruskal|light; "" = task default
  double fraction = 0.5;          ///< hybrid: advised fraction
  std::uint64_t oracle_seed = 1;  ///< hybrid: advised-set seed
  // Run-only fields (ignored by advise):
  std::string scheduler = "sync";
  std::uint64_t seed = 1;
  double fault_drop = 0.0;
  std::uint64_t fault_seed = 0;
  /// Queue deadline, relative to receipt; 0 = none. Enforced BEFORE
  /// execution (an expired request is rejected, never run), so it cannot
  /// perturb the result of a request that does run.
  std::uint64_t deadline_ms = 0;
};

/// The (oracle, algorithm) pair a request denotes. The algorithm comes
/// from the shared core/replay.h registry; the oracle is freshly built
/// with a parameter-complete name, so equal requests share cache entries.
struct TaskBinding {
  std::unique_ptr<Oracle> oracle;
  const Algorithm* algorithm = nullptr;
};

/// Decodes wire fields into a TaskRequest. Unknown keys are ignored;
/// malformed values throw std::invalid_argument.
TaskRequest parse_task_request(const std::map<std::string, std::string>& kv);

/// Encodes a request as wire fields (run=false omits the run-only fields).
std::string encode_task_request(const TaskRequest& req, bool run);

/// Builds the oracle and resolves the algorithm. Throws
/// std::invalid_argument on an unknown task or tree name.
TaskBinding bind_task(const TaskRequest& req);

/// Engine options for a run request: scheduler, seed, fault plan. Wakeup
/// enforcement is NOT set here — BatchRunner switches it on from
/// Algorithm::is_wakeup(), exactly as the direct path does.
RunOptions run_options_for(const TaskRequest& req);

}  // namespace oraclesize::service
