// The request surface of the advice service: how a wire request becomes
// (oracle, algorithm, RunOptions).
//
// The service and the CLI bind tasks through the same table,
// core/task_registry.h: task names, oracle classes, tree defaults and
// scheduler short names cannot drift apart. The two surfaces differ only
// in how flags map onto a request:
//  * `run hybrid` on the CLI maps --seed onto both the advised-set seed
//    (TaskParams::oracle_seed) and the scheduler seed; the service takes
//    `oracle_seed` and `seed` as separate fields;
//  * the service exposes only scheduler, seed and message-drop faults of
//    the CLI's run options.
// A service reply equals a direct BatchRunner run of the same bind_task /
// run_options_for binding: tests/test_service.cpp
// (ServiceRoundTrip.RunMatchesDirectBatchRunner) and perfbench's `service`
// workload, which checks every reply under concurrent load.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/task_registry.h"
#include "sim/engine.h"

namespace oraclesize::service {

/// One advise or run request, decoded: the registry's TaskParams (task,
/// tree, fraction, oracle_seed) plus the network, source and run fields.
/// Field defaults match the CLI's. bind_task(req) resolves the binding.
struct TaskRequest : TaskParams {
  std::string digest;  ///< names an uploaded network
  NodeId source = 0;
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

/// Decodes wire fields into a TaskRequest. Unknown keys are ignored;
/// malformed values throw std::invalid_argument.
TaskRequest parse_task_request(const std::map<std::string, std::string>& kv);

/// Encodes a request as wire fields (run=false omits the run-only fields).
std::string encode_task_request(const TaskRequest& req, bool run);

/// Engine options for a run request: scheduler, seed, fault plan. Throws
/// std::invalid_argument on an unknown scheduler name. Wakeup
/// enforcement is NOT set here — BatchRunner switches it on from
/// Algorithm::is_wakeup(), exactly as the direct path does.
RunOptions run_options_for(const TaskRequest& req);

}  // namespace oraclesize::service
