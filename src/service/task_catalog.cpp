#include "service/task_catalog.h"

#include <stdexcept>

#include "service/protocol.h"

namespace oraclesize::service {
namespace {

std::uint64_t to_u64(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad " + what + ": '" + s + "'");
  }
}

double to_double(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad " + what + ": '" + s + "'");
  }
}

}  // namespace

TaskRequest parse_task_request(const std::map<std::string, std::string>& kv) {
  TaskRequest req;
  auto get = [&kv](const char* key) -> const std::string* {
    auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  };
  if (const auto* v = get("digest")) req.digest = *v;
  if (const auto* v = get("task")) req.task = *v;
  if (const auto* v = get("source")) {
    req.source = static_cast<NodeId>(to_u64(*v, "source"));
  }
  if (const auto* v = get("tree")) req.tree = *v;
  if (const auto* v = get("fraction")) {
    req.fraction = to_double(*v, "fraction");
  }
  if (const auto* v = get("oracle_seed")) {
    req.oracle_seed = to_u64(*v, "oracle_seed");
  }
  if (const auto* v = get("scheduler")) req.scheduler = *v;
  if (const auto* v = get("seed")) req.seed = to_u64(*v, "seed");
  if (const auto* v = get("fault_drop")) {
    req.fault_drop = to_double(*v, "fault_drop");
    if (req.fault_drop < 0.0 || req.fault_drop > 1.0) {
      throw std::invalid_argument("fault_drop must be in [0, 1]");
    }
  }
  if (const auto* v = get("fault_seed")) {
    req.fault_seed = to_u64(*v, "fault_seed");
  }
  if (const auto* v = get("deadline_ms")) {
    req.deadline_ms = to_u64(*v, "deadline_ms");
  }
  if (req.digest.empty()) throw std::invalid_argument("missing digest");
  return req;
}

std::string encode_task_request(const TaskRequest& req, bool run) {
  std::string body;
  append_kv(body, "digest", req.digest);
  append_kv(body, "task", req.task);
  append_kv(body, "source", static_cast<std::uint64_t>(req.source));
  if (!req.tree.empty()) append_kv(body, "tree", req.tree);
  if (req.task == "hybrid") {
    append_kv(body, "fraction", std::to_string(req.fraction));
    append_kv(body, "oracle_seed", req.oracle_seed);
  }
  if (run) {
    append_kv(body, "scheduler", req.scheduler);
    append_kv(body, "seed", req.seed);
    if (req.fault_drop > 0.0) {
      append_kv(body, "fault_drop", std::to_string(req.fault_drop));
      append_kv(body, "fault_seed", req.fault_seed);
    }
    if (req.deadline_ms > 0) append_kv(body, "deadline_ms", req.deadline_ms);
  }
  return body;
}

RunOptions run_options_for(const TaskRequest& req) {
  RunOptions options;
  options.scheduler = scheduler_by_name(req.scheduler);
  options.seed = req.seed;
  options.fault.drop = req.fault_drop;
  options.fault.seed = req.fault_seed;
  return options;
}

}  // namespace oraclesize::service
