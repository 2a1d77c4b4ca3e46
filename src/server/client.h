#ifndef IMPLIANCE_SERVER_CLIENT_H_
#define IMPLIANCE_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/wire_protocol.h"

namespace impliance::server {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // required
  // Connect retries with exponential backoff (appliances reboot; clients
  // should ride it out): attempt, sleep backoff, attempt, sleep 2x, ...
  int connect_attempts = 3;
  uint64_t retry_backoff_ms = 50;
  // SO_RCVTIMEO on the socket so a wedged server surfaces as IOError
  // rather than a hang; 0 = block forever.
  uint64_t recv_timeout_ms = 10'000;
  // Deadline stamped on every request (server sheds it once expired);
  // 0 = none.
  uint64_t deadline_ms = 0;
};

// Blocking client for the appliance wire protocol. One connection, one
// outstanding request at a time; not thread-safe — use one client per
// thread (they are cheap).
class ImplianceClient {
 public:
  static Result<std::unique_ptr<ImplianceClient>> Connect(
      ClientOptions options);
  ~ImplianceClient();

  ImplianceClient(const ImplianceClient&) = delete;
  ImplianceClient& operator=(const ImplianceClient&) = delete;

  // Typed wrappers. Each returns the server-side error as a non-OK Status
  // when the response status is not kOk (kOverloaded maps to Busy,
  // kDeadlineExceeded to Aborted, kShuttingDown to Unavailable-ish Busy,
  // kNotFound to NotFound, the rest to Internal/InvalidArgument).
  Status Ping();
  Result<std::vector<uint64_t>> Ingest(const std::string& kind,
                                       const std::string& raw);
  // Latest version of a document, rendered as JSON.
  Result<std::string> Get(uint64_t doc_id);
  Result<std::vector<wire::SearchResult>> Search(const std::string& keywords,
                                                 uint64_t limit = 10);
  // Search that surfaces the answer's completeness: with a scale-out
  // appliance, node failures can leave an explicitly degraded answer
  // (degraded=true, missing_partitions > 0) rather than a silently
  // partial one. Callers that care about completeness use this form.
  struct SearchAnswer {
    std::vector<wire::SearchResult> hits;
    bool degraded = false;
    uint64_t missing_partitions = 0;
  };
  Result<SearchAnswer> SearchChecked(const std::string& keywords,
                                     uint64_t limit = 10);
  // Rows as tab-separated strings. `planner` selects the engine:
  // "" / "cost" = cost-aware optimizer (default), "simple" = baseline.
  Result<std::vector<std::string>> Sql(const std::string& statement,
                                       const std::string& planner = "");
  // SQL with the same completeness contract as SearchChecked: the rows
  // plus whether unreachable partitions were excluded from the scan.
  struct SqlAnswer {
    std::vector<std::string> rows;
    bool degraded = false;
    uint64_t missing_partitions = 0;
  };
  Result<SqlAnswer> SqlChecked(const std::string& statement,
                               const std::string& planner = "");
  // EXPLAIN without executing: the costed plan tree (structured nodes)
  // plus the server's text rendering in `text`.
  struct ExplainAnswer {
    std::vector<wire::PlanNode> plan;
    std::string text;
  };
  Result<ExplainAnswer> Explain(const std::string& statement,
                                const std::string& planner = "");
  Result<wire::Response> Facet(const std::string& keywords,
                               const std::string& kind,
                               const std::vector<std::string>& facet_paths,
                               uint64_t limit = 10);
  Result<wire::Response> Stats();
  // Asks the server to drain and stop. OK means the drain was accepted.
  Status RequestShutdown();

  // Escape hatch: send any request and return the raw response. Fills in
  // request.id and request.deadline_ms (when unset) automatically.
  Result<wire::Response> Call(wire::Request request);

 private:
  explicit ImplianceClient(ClientOptions options);

  // Converts a non-kOk wire status into a Status for the typed wrappers.
  static Status ToStatus(const wire::Response& response);

  ClientOptions options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
};

}  // namespace impliance::server

#endif  // IMPLIANCE_SERVER_CLIENT_H_
