#include "core/security.h"

namespace impliance::core {

void AccessController::CreatePrincipal(const std::string& principal) {
  std::lock_guard<std::mutex> lock(mutex_);
  grants_.try_emplace(principal);
}

bool AccessController::HasPrincipal(const std::string& principal) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return principal == kAdmin || grants_.count(principal) > 0;
}

Status AccessController::GrantRead(const std::string& principal,
                                   const std::string& kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = grants_.find(principal);
  if (it == grants_.end()) {
    return Status::NotFound("no such principal: " + principal);
  }
  it->second.insert(kind);
  return Status::OK();
}

Status AccessController::RevokeRead(const std::string& principal,
                                    const std::string& kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = grants_.find(principal);
  if (it == grants_.end()) {
    return Status::NotFound("no such principal: " + principal);
  }
  it->second.erase(kind);
  return Status::OK();
}

bool AccessController::CanRead(const std::string& principal,
                               const std::string& kind) const {
  if (principal == kAdmin) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = grants_.find(principal);
  if (it == grants_.end()) return false;
  return it->second.count("*") > 0 || it->second.count(kind) > 0;
}

uint64_t AuditLog::Record(std::string principal, std::string interface,
                          std::string query,
                          std::vector<model::DocId> docs) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.seq = next_seq_++;
  entry.principal = std::move(principal);
  entry.interface = std::move(interface);
  entry.query = std::move(query);
  entry.docs_accessed = std::move(docs);
  entries_.push_back(std::move(entry));
  return entries_.back().seq;
}

std::vector<AuditLog::Entry> AuditLog::QueriesTouching(
    model::DocId doc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> matching;
  for (const Entry& entry : entries_) {
    for (model::DocId accessed : entry.docs_accessed) {
      if (accessed == doc) {
        matching.push_back(entry);
        break;
      }
    }
  }
  return matching;
}

std::vector<AuditLog::Entry> AuditLog::ByPrincipal(
    const std::string& principal) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> matching;
  for (const Entry& entry : entries_) {
    if (entry.principal == principal) matching.push_back(entry);
  }
  return matching;
}

size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace impliance::core
