// perfbench: the system benchmark's measuring program.
//
//   perfbench --workload sweep|campaign|service --seed N --seconds S
//             --trace 0|1 [--smoke] [--trace-out FILE]
//             [--commit SHA] [--source-digest HEX]
//
// Prints, in order: one provenance line (JSON), a table of every metric
// with its unit and sample count, any correctness mismatches, and — as the
// last line of standard output — the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end set of report.h, with
// --trace 1 the per-layer set; the traced run also writes its spans.
// Exit status: 0 when every output checked out, 1 on a mismatch or failed
// operation (the result is still printed), 2 on bad usage or a run that
// could not complete (nothing is printed as a result).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void write_trace(const std::string& path, const std::string& provenance,
                 const SpanRecorder& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write trace file " << path << "\n";
    return;
  }
  out << "{\"provenance\": " << provenance << ",\n \"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : spans.self_ms_by_name()) {
    out << (first ? "" : ", ") << "\"" << json_escape(name)
        << "\": " << number(ms);
    first = false;
  }
  out << "},\n \"spans\": [";
  first = true;
  for (const SpanRecord& s : spans.spans()) {
    out << (first ? "\n  " : ",\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \""
        << json_escape(s.name) << "\", \"detail\": \"" << json_escape(s.detail)
        << "\", \"thread\": " << s.thread << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}";
    first = false;
  }
  out << "\n ]}\n";
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|campaign|service --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out FILE] "
               "[--commit SHA] [--source-digest HEX]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  opts.workers = std::min<std::size_t>(2, cores);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--smoke") {
        opts.smoke = true;
      } else if (!has_value) {
        return usage("missing value after " + arg);
      } else if (arg == "--workload") {
        opts.workload = argv[++i];
      } else if (arg == "--seed") {
        opts.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace") {
        opts.trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--trace-out") {
        opts.trace_path = argv[++i];
      } else if (arg == "--commit") {
        commit = argv[++i];
      } else if (arg == "--source-digest") {
        source_digest = argv[++i];
      } else {
        return usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  if (!(opts.seconds > 0.0) || opts.seconds > 600.0) {
    return usage("--seconds must be in (0, 600]");
  }

  SpanRecorder spans;
  Outcome out;
  try {
    if (opts.workload == "sweep") {
      out = run_sweep(opts, spans);
    } else if (opts.workload == "campaign") {
      out = run_campaign(opts, spans);
    } else if (opts.workload == "service") {
      out = run_service(opts, spans);
    } else {
      return usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " run failed: " << e.what()
              << "\n";
    return 2;
  }

  // Every metric of the mode is reported; a layer the workload does not
  // exercise reads 0 with no samples.
  const std::vector<MetricDef>& defs =
      opts.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    out.metrics.try_emplace(d.name, MetricValue{});
  }

  std::ostringstream prov;
  prov << "{\"workload\": \"" << json_escape(opts.workload)
       << "\", \"seed\": " << opts.seed << ", \"seconds\": "
       << number(opts.seconds) << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"smoke\": " << (opts.smoke ? 1 : 0) << ", \"nproc\": " << cores
       << ", \"workers\": " << opts.workers << ", \"compiler\": \""
       << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
       << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"commit\": \""
       << json_escape(commit) << "\", \"source_digest\": \""
       << json_escape(source_digest) << "\"";
  for (const auto& [k, v] : out.provenance) {
    prov << ", \"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  prov << ", \"samples\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    prov << (first ? "" : ", ") << "\"" << d.name
         << "\": " << out.metrics[d.name].samples;
    first = false;
  }
  prov << "}}";
  std::cout << "{\"provenance\": " << prov.str() << "}\n";

  std::cout << std::left << std::setw(30) << "metric" << std::right
            << std::setw(18) << "value" << "  " << std::left << std::setw(7)
            << "unit" << std::right << std::setw(10) << "samples" << "\n";
  for (const MetricDef& d : defs) {
    const MetricValue& m = out.metrics[d.name];
    std::cout << std::left << std::setw(30) << d.name << std::right
              << std::setw(18) << number(m.value) << "  " << std::left
              << std::setw(7) << d.unit << std::right << std::setw(10)
              << m.samples << "\n";
  }
  for (const std::string& m : out.mismatches) {
    std::cout << "MISMATCH: " << m << "\n";
  }
  if (opts.trace && !opts.trace_path.empty()) {
    write_trace(opts.trace_path, prov.str(), spans);
  }

  bool finite = true;
  std::ostringstream result;
  result << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
  first = true;
  for (const MetricDef& d : defs) {
    const double v = out.metrics[d.name].value;
    finite = finite && std::isfinite(v);
    result << (first ? "" : ", ") << "\"" << d.name
           << "\": {\"value\": " << number(std::isfinite(v) ? v : 0.0)
           << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  result << "}}";
  if (!finite || out.attempted == 0) {
    std::cerr << "perfbench: a metric is not finite or nothing was attempted\n";
    return 2;
  }
  std::cout << result.str() << std::endl;
  return out.failed == 0 ? 0 : 1;
}
