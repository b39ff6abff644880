// Execution metrics: the quantities the paper's statements are about.
#pragma once

#include <cstdint>
#include <string>

#include "sim/message.h"

namespace oraclesize {

struct Metrics {
  std::uint64_t messages_total = 0;
  std::uint64_t messages_source = 0;   ///< kSource messages (carrying M)
  std::uint64_t messages_hello = 0;    ///< kHello
  std::uint64_t messages_control = 0;  ///< kControl
  std::uint64_t bits_sent = 0;         ///< sum of Message::size_bits()
  std::uint64_t deliveries = 0;
  std::int64_t completion_key = 0;  ///< largest delivery key (time, for sync)
  /// Largest number of simultaneously in-flight messages (the engine's
  /// event-queue high-water mark). Deterministic, so replay compares it.
  std::uint64_t queue_depth_peak = 0;

  void count_send(const Message& msg) noexcept;
  std::string summary() const;

  friend bool operator==(const Metrics&, const Metrics&) = default;
};

}  // namespace oraclesize
