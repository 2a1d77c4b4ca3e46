#include "common/logging.h"

#include <cstdio>
#include <mutex>

namespace impliance {

namespace {
std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return LogLevel::kWarning; }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[FATAL " << base << ":" << line << "] Check failed: " << condition
          << " ";
}

FatalLogMessage::~FatalLogMessage() {
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  std::abort();
}

}  // namespace internal_logging
}  // namespace impliance
