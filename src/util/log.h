// Minimal logger: each call writes one `[LEVEL] message` line to stderr.
// There is no level threshold; benchmarks and tests print every line. Not
// a general-purpose logging framework by design.
#pragma once

#include <sstream>
#include <string>

namespace socl::util {

enum class LogLevel { kInfo, kWarn };

/// Emits a single line `[LEVEL] message` to stderr. Thread-safe (single
/// formatted write).
void log_message(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream out;
  (out << ... << std::forward<Args>(args));
  return out.str();
}
}  // namespace detail

template <typename... Args>
void log_info(Args&&... args) {
  log_message(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}

}  // namespace socl::util
