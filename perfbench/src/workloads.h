// The three benchmark workloads. Each builds its inputs from opts.seed,
// sets up kSetupRepeats times (setup_s is the median), measures for
// opts.seconds, checks every output, and fills either the end-to-end
// metrics (opts.trace == false) or the per-layer metrics (opts.trace ==
// true) of report.h. Traced runs record their spans into `spans`.
#pragma once

#include "report.h"
#include "trace.h"

namespace perfbench {

/// The paper's regeneration path: fresh graphs over the standard families
/// every pass, one wakeup and one scheme-B trial per graph, unique advice.
Outcome run_sweep(const Options& opts, SpanRecorder& spans);

/// A seed campaign: a few graphs built at setup, 64 seed lanes per spec,
/// advice computed once and reused by every later lane.
Outcome run_campaign(const Options& opts, SpanRecorder& spans);

/// Open-loop traffic against an in-process AdviceService over a unix
/// socket: a rate ladder, latency timed from each request's due time.
Outcome run_service(const Options& opts, SpanRecorder& spans);

}  // namespace perfbench
