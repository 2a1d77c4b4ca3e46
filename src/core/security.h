#ifndef IMPLIANCE_CORE_SECURITY_H_
#define IMPLIANCE_CORE_SECURITY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "model/document.h"

namespace impliance::core {

// Policy-driven access control (Section 4): "information is provided to
// the right people, and only to the right people." Grants are per document
// kind (schema class), the natural policy unit in a system whose schemas
// are discovered rather than declared. The implicit "admin" principal can
// read everything. Thread-safe.
class AccessController {
 public:
  static constexpr const char* kAdmin = "admin";

  void CreatePrincipal(const std::string& principal);
  bool HasPrincipal(const std::string& principal) const;

  // Grants read on `kind` ("*" = every kind) to an existing principal.
  Status GrantRead(const std::string& principal, const std::string& kind);
  Status RevokeRead(const std::string& principal, const std::string& kind);

  // Admin: always. Unknown principals: never.
  bool CanRead(const std::string& principal, const std::string& kind) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::set<std::string>> grants_;  // principal -> kinds
};

// Monitoring and auditing (Section 4): every query is recorded with the
// documents it surfaced, so one can "trace ... queries that have accessed"
// a piece of data. Thread-safe, append-only.
class AuditLog {
 public:
  struct Entry {
    uint64_t seq = 0;
    std::string principal;
    std::string interface;  // "keyword", "sql", "faceted", "graph", "get"
    std::string query;
    std::vector<model::DocId> docs_accessed;
  };

  // Returns the entry's sequence number.
  uint64_t Record(std::string principal, std::string interface,
                  std::string query, std::vector<model::DocId> docs);

  // Hippocratic-database style disclosure: which queries touched `doc`?
  std::vector<Entry> QueriesTouching(model::DocId doc) const;

  std::vector<Entry> ByPrincipal(const std::string& principal) const;

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  uint64_t next_seq_ = 1;
};

}  // namespace impliance::core

#endif  // IMPLIANCE_CORE_SECURITY_H_
