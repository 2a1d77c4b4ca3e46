#ifndef IMPLIANCE_COMMON_LOGGING_H_
#define IMPLIANCE_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace impliance {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Minimum level actually emitted: kWarning, so tests/benches run quiet.
LogLevel GetLogLevel();

namespace internal_logging {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Aborts the process in the destructor after flushing the message.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

struct Voidify {
  // Lowest-precedence operator that still binds looser than <<.
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace impliance

#define IMPLIANCE_LOG(level)                                              \
  (::impliance::LogLevel::k##level < ::impliance::GetLogLevel())          \
      ? (void)0                                                           \
      : ::impliance::internal_logging::Voidify() &                        \
            ::impliance::internal_logging::LogMessage(                    \
                ::impliance::LogLevel::k##level, __FILE__, __LINE__)      \
                .stream()

// Internal invariant check: always on, aborts on violation.
#define IMPLIANCE_CHECK(condition)                                     \
  (condition) ? (void)0                                                \
              : ::impliance::internal_logging::Voidify() &             \
                    ::impliance::internal_logging::FatalLogMessage(    \
                        __FILE__, __LINE__, #condition)                \
                        .stream()

#define IMPLIANCE_CHECK_OK(expr)                                     \
  do {                                                               \
    ::impliance::Status _st_check = (expr);                          \
    IMPLIANCE_CHECK(_st_check.ok()) << _st_check.ToString();         \
  } while (0)

#endif  // IMPLIANCE_COMMON_LOGGING_H_
