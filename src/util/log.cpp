#include "util/log.h"

#include <cstdio>

namespace socl::util {

void log_message(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[%s] %s\n", level == LogLevel::kWarn ? "WARN" : "INFO",
               message.c_str());
}

}  // namespace socl::util
