#ifndef IMPLIANCE_SERVER_WIRE_PROTOCOL_H_
#define IMPLIANCE_SERVER_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace impliance::server::wire {

// The appliance wire protocol: a compact length-prefixed binary framing
// that turns the in-process `core::Impliance` facade into a network
// service ("users interact with it through a network API", Section 2.1).
// Encode/decode is fully separated from transport so every frame shape is
// unit-testable without sockets.
//
// Frame layout on the wire:
//
//   fixed32 body_length | body
//
// where body is, for requests:
//
//   byte version | byte op | varint64 request_id | varint64 deadline_ms |
//   lp(kind) | lp(payload) | varint64 doc_id | varint64 limit |
//   varint32 n_facet_paths | n * lp(path)
//
// and for responses:
//
//   byte version | byte status | varint64 request_id | lp(error) |
//   varint32 n_doc_ids | n * varint64 |
//   varint32 n_hits   | n * (varint64 doc | fixed64 score-bits |
//                            lp(kind) | lp(snippet)) |
//   varint32 n_rows   | n * lp(row) |
//   varint32 n_counters | n * (lp(name) | varint64 value) |
//   varint32 n_latencies | n * (lp(op) | varint64 count |
//                               3 * fixed64 pXX-ms-bits) |
//   varint32 n_traces | n * (varint64 trace_id | lp(op) |
//                            varint64 total_micros | byte slow |
//                            varint64 spans_dropped | varint32 n_spans |
//                            n * (lp(name) | varint64 start_micros |
//                                 varint64 duration_micros)) |
//   varint32 n_plan | n * (varint32 depth | lp(name) | lp(detail) |
//                          fixed64 est-rows-bits | fixed64 est-cost-bits) |
//   byte degraded | varint64 missing_partitions |
//   lp(body)
//
// (`lp` = length-prefixed string: varint32 size + bytes.) Every field is
// always present — absent semantics are "empty"/0 — which keeps decode
// branch-free and makes randomized round-trip testing exhaustive.

// Bumped on any incompatible layout change; peers reject mismatches.
// v2: responses carry degraded/missing_partitions (result completeness).
// v3: Stats responses carry recent request traces with per-stage spans.
// v4: Explain op; responses carry the costed plan tree (pre-order,
//     depth-encoded). Request `kind` doubles as the planner name for
//     Sql/Explain ("" = cost-aware default, "simple" = baseline).
inline constexpr uint8_t kWireVersion = 4;

// Upper bound on a frame body; anything larger is rejected before
// allocation so a garbage length prefix cannot OOM the server.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

enum class Op : uint8_t {
  kPing = 0,
  kIngest = 1,    // kind + payload (raw content, format sniffed)
  kGet = 2,       // doc_id -> JSON body
  kSearch = 3,    // payload = keywords, limit = top-k
  kFacet = 4,     // payload = keywords, kind, facet_paths
  kSql = 5,       // payload = statement -> rows (kind = planner name)
  kStats = 6,     // appliance + serving statistics
  kShutdown = 7,  // graceful drain
  kExplain = 8,   // payload = statement -> plan tree, not executed
};

// Highest valid Op value. Every per-op table must be sized kLastOp + 1, and
// decoding rejects anything above it.
inline constexpr Op kLastOp = Op::kExplain;

enum class WireStatus : uint8_t {
  kOk = 0,
  kError = 1,             // op-level failure; see `error`
  kNotFound = 2,
  kInvalidRequest = 3,    // malformed frame / unknown op / bad version
  kOverloaded = 4,        // admission queue full — load was shed
  kDeadlineExceeded = 5,  // expired before a worker picked it up
  kShuttingDown = 6,      // server is draining; no new work accepted
};

const char* OpName(Op op);

struct Request {
  Op op = Op::kPing;
  uint64_t id = 0;
  // Total budget for the request measured from server receipt; 0 = none.
  // Requests still queued when the budget lapses are answered with
  // kDeadlineExceeded instead of being executed.
  uint64_t deadline_ms = 0;
  std::string kind;     // Ingest, Facet kind restriction, Sql/Explain planner
  std::string payload;  // Ingest raw / Search+Facet keywords / Sql text
  uint64_t doc_id = 0;  // Get
  uint64_t limit = 10;  // Search/Facet top-k
  std::vector<std::string> facet_paths;  // Facet

  friend bool operator==(const Request&, const Request&) = default;
};

struct SearchResult {
  uint64_t doc = 0;
  double score = 0.0;
  std::string kind;
  std::string snippet;

  friend bool operator==(const SearchResult&, const SearchResult&) = default;
};

// Per-op serving latency, read server-side from a bounded registry
// histogram (quantiles are bucket upper bounds).
struct OpLatency {
  std::string op;
  uint64_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  friend bool operator==(const OpLatency&, const OpLatency&) = default;
};

// One timed stage of a traced request (start is trace-relative).
struct TraceSpan {
  std::string name;
  uint64_t start_micros = 0;
  uint64_t duration_micros = 0;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

// One node of the costed plan tree an Explain response carries: pre-order
// with explicit depth, so the client can re-indent without a tree codec.
struct PlanNode {
  uint32_t depth = 0;
  std::string name;    // operator ("HashJoin", "IndexLookup", ...)
  std::string detail;  // operator argument rendering
  double est_rows = 0.0;
  double est_cost = 0.0;

  friend bool operator==(const PlanNode&, const PlanNode&) = default;
};

// A finished request trace as surfaced by the Stats op: where each stage
// of a recent request spent its time, and whether it crossed the
// slow-query threshold.
struct TraceSummary {
  uint64_t trace_id = 0;
  std::string op;
  uint64_t total_micros = 0;
  bool slow = false;
  uint64_t spans_dropped = 0;
  std::vector<TraceSpan> spans;

  friend bool operator==(const TraceSummary&, const TraceSummary&) = default;
};

struct Response {
  uint64_t id = 0;
  WireStatus status = WireStatus::kOk;
  std::string error;               // non-empty iff status != kOk
  std::vector<uint64_t> doc_ids;   // Ingest
  std::vector<SearchResult> hits;  // Search
  std::vector<std::string> rows;   // Sql (tab-separated values per row)
  // Stats: named counters (documents, terms, shed_total, ...).
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<OpLatency> op_latencies;  // Stats
  std::vector<TraceSummary> traces;     // Stats: recent request traces
  std::vector<PlanNode> plan;           // Explain: costed plan tree
  // Result completeness: a kOk answer with degraded=true is explicitly
  // partial — `missing_partitions` units of work were lost to node
  // failures even after failover. Complete answers are {false, 0}.
  bool degraded = false;
  uint64_t missing_partitions = 0;
  std::string body;                // Get JSON / Facet rendering

  friend bool operator==(const Response&, const Response&) = default;
};

// Appends a complete frame (length prefix + body) to *dst.
void EncodeRequest(const Request& request, std::string* dst);
void EncodeResponse(const Response& response, std::string* dst);

// Decodes a frame *body* (without the length prefix). Returns
// InvalidArgument on version mismatch, unknown op/status, or trailing or
// truncated bytes; *out is unspecified on error.
Status DecodeRequest(std::string_view body, Request* out);
Status DecodeResponse(std::string_view body, Response* out);

// Incremental frame extraction for buffered transports. Inspects *buffer:
// returns kOk and moves one frame body into *body (consuming it from
// *buffer), kBusy when more bytes are needed, or kInvalidArgument when the
// length prefix exceeds max_frame_bytes (connection should be dropped).
Status ExtractFrame(std::string* buffer, std::string* body,
                    uint32_t max_frame_bytes = kMaxFrameBytes);

}  // namespace impliance::server::wire

#endif  // IMPLIANCE_SERVER_WIRE_PROTOCOL_H_
