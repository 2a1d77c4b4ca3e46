#include "server/wire_protocol.h"

#include <bit>

#include "common/coding.h"

namespace impliance::server::wire {

namespace {

constexpr uint8_t kMaxStatus = static_cast<uint8_t>(WireStatus::kShuttingDown);

void PutDouble(std::string* dst, double value) {
  PutFixed64(dst, std::bit_cast<uint64_t>(value));
}

bool GetDouble(std::string_view* input, double* value) {
  uint64_t bits = 0;
  if (!GetFixed64(input, &bits)) return false;
  *value = std::bit_cast<double>(bits);
  return true;
}

bool GetByte(std::string_view* input, uint8_t* value) {
  if (input->empty()) return false;
  *value = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  return true;
}

bool GetString(std::string_view* input, std::string* out) {
  std::string_view piece;
  if (!GetLengthPrefixed(input, &piece)) return false;
  out->assign(piece);
  return true;
}

// Wraps `body` in a length-prefixed frame appended to *dst.
void AppendFrame(std::string_view body, std::string* dst) {
  PutFixed32(dst, static_cast<uint32_t>(body.size()));
  dst->append(body);
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kIngest: return "ingest";
    case Op::kGet: return "get";
    case Op::kSearch: return "search";
    case Op::kFacet: return "facet";
    case Op::kSql: return "sql";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
    case Op::kExplain: return "explain";
  }
  return "unknown";
}

void EncodeRequest(const Request& request, std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(kWireVersion));
  body.push_back(static_cast<char>(request.op));
  PutVarint64(&body, request.id);
  PutVarint64(&body, request.deadline_ms);
  PutLengthPrefixed(&body, request.kind);
  PutLengthPrefixed(&body, request.payload);
  PutVarint64(&body, request.doc_id);
  PutVarint64(&body, request.limit);
  PutVarint32(&body, static_cast<uint32_t>(request.facet_paths.size()));
  for (const std::string& path : request.facet_paths) {
    PutLengthPrefixed(&body, path);
  }
  AppendFrame(body, dst);
}

Status DecodeRequest(std::string_view body, Request* out) {
  uint8_t version = 0, op = 0;
  if (!GetByte(&body, &version)) return Malformed("missing version");
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  if (!GetByte(&body, &op)) return Malformed("missing op");
  if (op > static_cast<uint8_t>(kLastOp)) {
    return Status::InvalidArgument("unknown op " + std::to_string(op));
  }
  out->op = static_cast<Op>(op);
  uint32_t n_paths = 0;
  if (!GetVarint64(&body, &out->id) ||
      !GetVarint64(&body, &out->deadline_ms) ||
      !GetString(&body, &out->kind) || !GetString(&body, &out->payload) ||
      !GetVarint64(&body, &out->doc_id) || !GetVarint64(&body, &out->limit) ||
      !GetVarint32(&body, &n_paths)) {
    return Malformed("truncated request");
  }
  if (n_paths > body.size()) return Malformed("facet path count");
  out->facet_paths.clear();
  out->facet_paths.reserve(n_paths);
  for (uint32_t i = 0; i < n_paths; ++i) {
    std::string path;
    if (!GetString(&body, &path)) return Malformed("truncated facet path");
    out->facet_paths.push_back(std::move(path));
  }
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

void EncodeResponse(const Response& response, std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(kWireVersion));
  body.push_back(static_cast<char>(response.status));
  PutVarint64(&body, response.id);
  PutLengthPrefixed(&body, response.error);
  PutVarint32(&body, static_cast<uint32_t>(response.doc_ids.size()));
  for (uint64_t id : response.doc_ids) PutVarint64(&body, id);
  PutVarint32(&body, static_cast<uint32_t>(response.hits.size()));
  for (const SearchResult& hit : response.hits) {
    PutVarint64(&body, hit.doc);
    PutDouble(&body, hit.score);
    PutLengthPrefixed(&body, hit.kind);
    PutLengthPrefixed(&body, hit.snippet);
  }
  PutVarint32(&body, static_cast<uint32_t>(response.rows.size()));
  for (const std::string& row : response.rows) PutLengthPrefixed(&body, row);
  PutVarint32(&body, static_cast<uint32_t>(response.counters.size()));
  for (const auto& [name, value] : response.counters) {
    PutLengthPrefixed(&body, name);
    PutVarint64(&body, value);
  }
  PutVarint32(&body, static_cast<uint32_t>(response.op_latencies.size()));
  for (const OpLatency& latency : response.op_latencies) {
    PutLengthPrefixed(&body, latency.op);
    PutVarint64(&body, latency.count);
    PutDouble(&body, latency.p50_ms);
    PutDouble(&body, latency.p95_ms);
    PutDouble(&body, latency.p99_ms);
  }
  PutVarint32(&body, static_cast<uint32_t>(response.traces.size()));
  for (const TraceSummary& trace : response.traces) {
    PutVarint64(&body, trace.trace_id);
    PutLengthPrefixed(&body, trace.op);
    PutVarint64(&body, trace.total_micros);
    body.push_back(static_cast<char>(trace.slow ? 1 : 0));
    PutVarint64(&body, trace.spans_dropped);
    PutVarint32(&body, static_cast<uint32_t>(trace.spans.size()));
    for (const TraceSpan& span : trace.spans) {
      PutLengthPrefixed(&body, span.name);
      PutVarint64(&body, span.start_micros);
      PutVarint64(&body, span.duration_micros);
    }
  }
  PutVarint32(&body, static_cast<uint32_t>(response.plan.size()));
  for (const PlanNode& node : response.plan) {
    PutVarint32(&body, node.depth);
    PutLengthPrefixed(&body, node.name);
    PutLengthPrefixed(&body, node.detail);
    PutDouble(&body, node.est_rows);
    PutDouble(&body, node.est_cost);
  }
  body.push_back(static_cast<char>(response.degraded ? 1 : 0));
  PutVarint64(&body, response.missing_partitions);
  PutLengthPrefixed(&body, response.body);
  AppendFrame(body, dst);
}

Status DecodeResponse(std::string_view body, Response* out) {
  uint8_t version = 0, status = 0;
  if (!GetByte(&body, &version)) return Malformed("missing version");
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  if (!GetByte(&body, &status)) return Malformed("missing status");
  if (status > kMaxStatus) {
    return Status::InvalidArgument("unknown status " + std::to_string(status));
  }
  out->status = static_cast<WireStatus>(status);
  if (!GetVarint64(&body, &out->id) || !GetString(&body, &out->error)) {
    return Malformed("truncated response header");
  }

  uint32_t n = 0;
  if (!GetVarint32(&body, &n) || n > body.size()) return Malformed("doc ids");
  out->doc_ids.clear();
  out->doc_ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    if (!GetVarint64(&body, &id)) return Malformed("truncated doc id");
    out->doc_ids.push_back(id);
  }

  if (!GetVarint32(&body, &n) || n > body.size()) return Malformed("hits");
  out->hits.clear();
  out->hits.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SearchResult hit;
    if (!GetVarint64(&body, &hit.doc) || !GetDouble(&body, &hit.score) ||
        !GetString(&body, &hit.kind) || !GetString(&body, &hit.snippet)) {
      return Malformed("truncated hit");
    }
    out->hits.push_back(std::move(hit));
  }

  if (!GetVarint32(&body, &n) || n > body.size()) return Malformed("rows");
  out->rows.clear();
  out->rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string row;
    if (!GetString(&body, &row)) return Malformed("truncated row");
    out->rows.push_back(std::move(row));
  }

  if (!GetVarint32(&body, &n) || n > body.size()) return Malformed("counters");
  out->counters.clear();
  out->counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!GetString(&body, &name) || !GetVarint64(&body, &value)) {
      return Malformed("truncated counter");
    }
    out->counters.emplace_back(std::move(name), value);
  }

  if (!GetVarint32(&body, &n) || n > body.size()) return Malformed("latencies");
  out->op_latencies.clear();
  out->op_latencies.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OpLatency latency;
    if (!GetString(&body, &latency.op) ||
        !GetVarint64(&body, &latency.count) ||
        !GetDouble(&body, &latency.p50_ms) ||
        !GetDouble(&body, &latency.p95_ms) ||
        !GetDouble(&body, &latency.p99_ms)) {
      return Malformed("truncated latency");
    }
    out->op_latencies.push_back(std::move(latency));
  }

  if (!GetVarint32(&body, &n) || n > body.size()) return Malformed("traces");
  out->traces.clear();
  out->traces.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TraceSummary trace;
    uint8_t slow = 0;
    uint32_t n_spans = 0;
    if (!GetVarint64(&body, &trace.trace_id) || !GetString(&body, &trace.op) ||
        !GetVarint64(&body, &trace.total_micros) || !GetByte(&body, &slow) ||
        slow > 1 || !GetVarint64(&body, &trace.spans_dropped) ||
        !GetVarint32(&body, &n_spans) || n_spans > body.size()) {
      return Malformed("truncated trace");
    }
    trace.slow = slow != 0;
    trace.spans.reserve(n_spans);
    for (uint32_t s = 0; s < n_spans; ++s) {
      TraceSpan span;
      if (!GetString(&body, &span.name) ||
          !GetVarint64(&body, &span.start_micros) ||
          !GetVarint64(&body, &span.duration_micros)) {
        return Malformed("truncated span");
      }
      trace.spans.push_back(std::move(span));
    }
    out->traces.push_back(std::move(trace));
  }

  if (!GetVarint32(&body, &n) || n > body.size()) return Malformed("plan");
  out->plan.clear();
  out->plan.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PlanNode node;
    if (!GetVarint32(&body, &node.depth) || !GetString(&body, &node.name) ||
        !GetString(&body, &node.detail) || !GetDouble(&body, &node.est_rows) ||
        !GetDouble(&body, &node.est_cost)) {
      return Malformed("truncated plan node");
    }
    out->plan.push_back(std::move(node));
  }

  uint8_t degraded = 0;
  if (!GetByte(&body, &degraded) || degraded > 1) {
    return Malformed("degraded flag");
  }
  out->degraded = degraded != 0;
  if (!GetVarint64(&body, &out->missing_partitions)) {
    return Malformed("truncated missing partitions");
  }
  if (!GetString(&body, &out->body)) return Malformed("truncated body");
  if (!body.empty()) return Malformed("trailing bytes");
  return Status::OK();
}

Status ExtractFrame(std::string* buffer, std::string* body,
                    uint32_t max_frame_bytes) {
  if (buffer->size() < 4) return Status::Busy("need length prefix");
  std::string_view view(*buffer);
  uint32_t length = 0;
  GetFixed32(&view, &length);
  if (length > max_frame_bytes) {
    return Status::InvalidArgument("frame of " + std::to_string(length) +
                                   " bytes exceeds limit of " +
                                   std::to_string(max_frame_bytes));
  }
  if (view.size() < length) return Status::Busy("need frame body");
  body->assign(view.substr(0, length));
  buffer->erase(0, 4 + length);
  return Status::OK();
}

}  // namespace impliance::server::wire
