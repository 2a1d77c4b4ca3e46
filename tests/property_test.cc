// Cross-module property tests: each structure is driven with randomized
// workloads and checked against a brute-force oracle. Seeds are sweep
// parameters so failures reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "exec/operators.h"
#include "index/facet_index.h"
#include "index/inverted_index.h"
#include "index/value_index.h"
#include "model/document.h"
#include "server/wire_protocol.h"

namespace impliance {
namespace {

using model::DocId;
using model::Document;
using model::MakeRecordDocument;
using model::Value;

// ----------------------------------------------------- ValueIndex oracle

class ValueIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueIndexPropertyTest, RangeQueriesMatchOracle) {
  Rng rng(GetParam());
  index::ValueIndex idx;
  // Oracle: docid -> value at /doc/x (latest only; docs removable).
  std::map<DocId, int64_t> oracle;
  std::map<DocId, Document> live_docs;

  DocId next_id = 1;
  for (int op = 0; op < 800; ++op) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 60 || oracle.empty()) {
      const int64_t v = rng.UniformInt(-50, 50);
      Document doc = MakeRecordDocument("k", {{"x", Value::Int(v)}});
      doc.id = next_id++;
      idx.AddDocument(doc);
      oracle[doc.id] = v;
      live_docs[doc.id] = std::move(doc);
    } else if (roll < 75) {
      auto it = live_docs.begin();
      std::advance(it, rng.Uniform(live_docs.size()));
      idx.RemoveDocument(it->second);
      oracle.erase(it->first);
      live_docs.erase(it);
    } else {
      const int64_t lo = rng.UniformInt(-60, 60);
      const int64_t hi = lo + rng.UniformInt(0, 40);
      Value vlo = Value::Int(lo), vhi = Value::Int(hi);
      std::vector<DocId> got = idx.Range("/doc/x", &vlo, true, &vhi, true);
      std::vector<DocId> expected;
      for (const auto& [id, v] : oracle) {
        if (v >= lo && v <= hi) expected.push_back(id);
      }
      ASSERT_EQ(got, expected);

      // Point lookups agree too.
      const int64_t probe = rng.UniformInt(-50, 50);
      std::vector<DocId> point = idx.Lookup("/doc/x", Value::Int(probe));
      std::vector<DocId> point_expected;
      for (const auto& [id, v] : oracle) {
        if (v == probe) point_expected.push_back(id);
      }
      ASSERT_EQ(point, point_expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueIndexPropertyTest,
                         ::testing::Values(7, 14, 21, 28));

// ------------------------------------------------------ FacetIndex oracle

class FacetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Candidates are a random window of ids over a corpus with removed
// documents: the window has gaps, may be empty, and the facet values also
// lie on documents below and above it.
TEST_P(FacetPropertyTest, DrilldownCountsMatchOracle) {
  Rng rng(GetParam());
  index::FacetIndex idx;
  std::map<DocId, std::pair<std::string, std::string>> oracle;  // id->(c1,c2)
  const std::vector<std::string> colors = {"red", "green", "blue"};
  const std::vector<std::string> sizes = {"s", "m", "l", "xl"};
  constexpr DocId kMaxId = 300;

  std::map<DocId, Document> docs;
  for (DocId id = 1; id <= kMaxId; ++id) {
    std::string color = rng.Pick(colors);
    std::string size = rng.Pick(sizes);
    Document doc = MakeRecordDocument(
        "item",
        {{"color", Value::String(color)}, {"size", Value::String(size)}});
    doc.id = id;
    idx.AddDocument(doc);
    oracle[id] = {color, size};
    docs[id] = std::move(doc);
  }
  for (DocId id = 1; id <= kMaxId; ++id) {
    if (rng.Bernoulli(0.15)) {
      idx.RemoveDocument(docs[id]);
      oracle.erase(id);
    }
  }

  for (int q = 0; q < 60; ++q) {
    // Random candidate subset of a random window; removed ids may be in it.
    const DocId lo = static_cast<DocId>(rng.UniformInt(1, kMaxId));
    const DocId hi = static_cast<DocId>(rng.UniformInt(lo, kMaxId));
    const double density = rng.Pick(std::vector<double>{0.0, 0.1, 0.4, 1.0});
    std::vector<DocId> ids;
    for (DocId id = lo; id <= hi; ++id) {
      if (rng.Bernoulli(density)) ids.push_back(id);
    }
    index::DocBitmap candidates = index::DocBitmap::Of(ids);
    std::vector<DocId> live;
    for (DocId id : ids) {
      if (oracle.contains(id)) live.push_back(id);
    }

    // Facet counts over candidates, in the documented order.
    auto counts = idx.CountFacet("/doc/color", candidates, 10);
    std::map<std::string, size_t> expected;
    for (DocId id : live) expected[oracle[id].first]++;
    std::vector<std::pair<size_t, std::string>> expected_order;
    for (const auto& [color, n] : expected) {
      expected_order.emplace_back(n, color);
    }
    std::sort(expected_order.begin(), expected_order.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    ASSERT_EQ(counts.size(), expected_order.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      ASSERT_EQ(counts[i].count, expected_order[i].first);
      ASSERT_EQ(counts[i].value.AsString(), expected_order[i].second);
    }

    // Conjunctive drill-downs agree with the oracle; "purple" matches none.
    const std::string color = rng.Pick(std::vector<std::string>{
        "red", "green", "blue", "purple"});
    const std::string size = rng.Pick(sizes);
    idx.Restrict("/doc/color", Value::String(color), &candidates);
    const bool both = rng.Bernoulli(0.5);
    if (both) idx.Restrict("/doc/size", Value::String(size), &candidates);
    std::vector<DocId> restricted_expected;
    for (DocId id : live) {
      if (oracle[id].first == color && (!both || oracle[id].second == size)) {
        restricted_expected.push_back(id);
      }
    }
    std::vector<DocId> restricted;
    candidates.ForEach([&](DocId id) {
      restricted.push_back(id);
      return true;
    });
    ASSERT_EQ(restricted, restricted_expected);
    ASSERT_EQ(candidates.Count(), restricted_expected.size());
    for (DocId id = 0; id <= kMaxId + 70; ++id) {
      ASSERT_EQ(candidates.Contains(id),
                std::binary_search(restricted_expected.begin(),
                                   restricted_expected.end(), id))
          << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FacetPropertyTest,
                         ::testing::Values(31, 32, 33));

// ----------------------------------------------- Phrase search vs oracle

class PhrasePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PhrasePropertyTest, PhraseMatchesNaiveSubstringOfTokens) {
  Rng rng(GetParam());
  const std::vector<std::string> vocab = {"aa", "bb", "cc", "dd", "ee"};
  index::InvertedIndex idx;
  std::map<DocId, std::vector<std::string>> docs;
  for (DocId id = 1; id <= 80; ++id) {
    std::vector<std::string> tokens;
    const size_t len = 1 + rng.Uniform(15);
    for (size_t i = 0; i < len; ++i) tokens.push_back(rng.Pick(vocab));
    idx.AddDocument(id, Join(tokens, " "));
    docs[id] = std::move(tokens);
  }
  for (int q = 0; q < 60; ++q) {
    const size_t phrase_len = 1 + rng.Uniform(3);
    std::vector<std::string> phrase;
    for (size_t i = 0; i < phrase_len; ++i) phrase.push_back(rng.Pick(vocab));
    std::vector<DocId> got = idx.SearchPhrase(Join(phrase, " "));
    std::vector<DocId> expected;
    for (const auto& [id, tokens] : docs) {
      bool found = false;
      for (size_t start = 0;
           start + phrase.size() <= tokens.size() && !found; ++start) {
        found = std::equal(phrase.begin(), phrase.end(),
                           tokens.begin() + start);
      }
      if (found) expected.push_back(id);
    }
    ASSERT_EQ(got, expected) << "phrase: " << Join(phrase, " ");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhrasePropertyTest,
                         ::testing::Values(41, 42, 43, 44));

// ------------------------------------------------- Aggregate vs oracle

class AggregatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregatePropertyTest, GroupByMatchesOracle) {
  Rng rng(GetParam());
  const exec::Schema schema{{"g", "v"}};
  std::vector<exec::Row> rows;
  std::map<int64_t, std::vector<double>> oracle;
  for (int i = 0; i < 1000; ++i) {
    const int64_t g = rng.UniformInt(0, 12);
    const bool is_null = rng.Bernoulli(0.1);
    const double v = rng.NextDouble() * 100;
    rows.push_back(
        {Value::Int(g), is_null ? Value::Null() : Value::Double(v)});
    if (!is_null) oracle[g].push_back(v);
    else oracle[g];  // group exists even if all-null
  }
  exec::HashAggregateOp agg(
      std::make_unique<exec::RowSourceOp>(schema, rows), {0},
      {{exec::AggFn::kCount, -1, "n"},
       {exec::AggFn::kSum, 1, "s"},
       {exec::AggFn::kMin, 1, "lo"},
       {exec::AggFn::kMax, 1, "hi"},
       {exec::AggFn::kAvg, 1, "avg"}});
  std::vector<exec::Row> out = exec::Execute(&agg);
  ASSERT_EQ(out.size(), oracle.size());
  for (const exec::Row& row : out) {
    const int64_t g = row[0].int_value();
    const auto& values = oracle.at(g);
    if (values.empty()) {
      EXPECT_TRUE(row[2].is_null());
      EXPECT_TRUE(row[3].is_null());
      continue;
    }
    double sum = 0, lo = values[0], hi = values[0];
    for (double v : values) {
      sum += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_NEAR(row[2].double_value(), sum, 1e-6);
    EXPECT_NEAR(row[3].double_value(), lo, 1e-9);
    EXPECT_NEAR(row[4].double_value(), hi, 1e-9);
    EXPECT_NEAR(row[5].double_value(), sum / values.size(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatePropertyTest,
                         ::testing::Values(51, 52, 53, 54, 55));

// ----------------------------------------- Sort stability & determinism

TEST(SortPropertyTest, StableSortPreservesInputOrderOnTies) {
  const exec::Schema schema{{"key", "seq"}};
  std::vector<exec::Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value::Int(i % 5), Value::Int(i)});
  }
  exec::SortOp sort(std::make_unique<exec::RowSourceOp>(schema, rows),
                    {{0, true}});
  std::vector<exec::Row> out = exec::Execute(&sort);
  // Within equal keys, the original sequence order must be preserved.
  for (size_t i = 1; i < out.size(); ++i) {
    if (out[i - 1][0].int_value() == out[i][0].int_value()) {
      EXPECT_LT(out[i - 1][1].int_value(), out[i][1].int_value());
    }
  }
}

// ------------------------------------- Wire protocol round-trip fuzzing

namespace wireprop {

using server::wire::DecodeRequest;
using server::wire::DecodeResponse;
using server::wire::EncodeRequest;
using server::wire::EncodeResponse;
using server::wire::ExtractFrame;
using server::wire::Op;
using server::wire::Request;
using server::wire::Response;
using server::wire::WireStatus;

std::string RandomBlob(Rng* rng, size_t max_len) {
  // Full byte range — embedded NULs, high bytes, the lot.
  std::string blob(rng->Uniform(max_len + 1), '\0');
  for (char& c : blob) c = static_cast<char>(rng->Uniform(256));
  return blob;
}

// Stresses varint boundaries: 0, small, and max values.
uint64_t RandomU64(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0: return 0;
    case 1: return rng->Uniform(128);           // 1-byte varint
    case 2: return rng->Next();                 // anywhere
    default: return UINT64_MAX;                 // 10-byte varint
  }
}

Request RandomRequest(Rng* rng) {
  Request request;
  request.op = static_cast<Op>(rng->Uniform(9));  // includes v4 kExplain
  request.id = RandomU64(rng);
  request.deadline_ms = RandomU64(rng);
  request.kind = RandomBlob(rng, 40);
  request.payload = RandomBlob(rng, 2000);
  request.doc_id = RandomU64(rng);
  request.limit = RandomU64(rng);
  const size_t n_paths = rng->Uniform(6);
  for (size_t i = 0; i < n_paths; ++i) {
    request.facet_paths.push_back(RandomBlob(rng, 30));
  }
  return request;
}

Response RandomResponse(Rng* rng) {
  Response response;
  response.id = RandomU64(rng);
  response.status = static_cast<WireStatus>(rng->Uniform(7));
  response.error = RandomBlob(rng, 80);
  for (size_t i = rng->Uniform(5); i > 0; --i) {
    response.doc_ids.push_back(RandomU64(rng));
  }
  for (size_t i = rng->Uniform(4); i > 0; --i) {
    response.hits.push_back({RandomU64(rng),
                             rng->NextDouble() * 1000 - 500,
                             RandomBlob(rng, 20), RandomBlob(rng, 120)});
  }
  for (size_t i = rng->Uniform(4); i > 0; --i) {
    response.rows.push_back(RandomBlob(rng, 200));
  }
  for (size_t i = rng->Uniform(4); i > 0; --i) {
    response.counters.emplace_back(RandomBlob(rng, 24), RandomU64(rng));
  }
  for (size_t i = rng->Uniform(3); i > 0; --i) {
    response.op_latencies.push_back({RandomBlob(rng, 16), RandomU64(rng),
                                     rng->NextDouble() * 100,
                                     rng->NextDouble() * 100,
                                     rng->NextDouble() * 100});
  }
  for (size_t i = rng->Uniform(3); i > 0; --i) {
    server::wire::TraceSummary trace;
    trace.trace_id = RandomU64(rng);
    trace.op = RandomBlob(rng, 16);
    trace.total_micros = RandomU64(rng);
    trace.slow = rng->Uniform(2) == 1;
    trace.spans_dropped = RandomU64(rng);
    for (size_t s = rng->Uniform(5); s > 0; --s) {
      trace.spans.push_back(
          {RandomBlob(rng, 24), RandomU64(rng), RandomU64(rng)});
    }
    response.traces.push_back(std::move(trace));
  }
  for (size_t i = rng->Uniform(5); i > 0; --i) {
    server::wire::PlanNode node;
    node.depth = static_cast<uint32_t>(rng->Uniform(8));
    node.name = RandomBlob(rng, 20);
    node.detail = RandomBlob(rng, 40);
    node.est_rows = rng->NextDouble() * 1e9;
    node.est_cost = rng->NextDouble() * 1e9;
    response.plan.push_back(std::move(node));
  }
  response.degraded = rng->Uniform(2) == 1;
  response.missing_partitions = RandomU64(rng);
  response.body = RandomBlob(rng, 4000);
  return response;
}

class WireRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireRoundTripTest, RandomizedRequestsSurviveEncodeDecode) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const Request original = RandomRequest(&rng);
    std::string framed;
    EncodeRequest(original, &framed);

    std::string body;
    ASSERT_TRUE(ExtractFrame(&framed, &body).ok());
    EXPECT_TRUE(framed.empty()) << "frame extraction must consume everything";

    Request decoded;
    ASSERT_TRUE(DecodeRequest(body, &decoded).ok());
    EXPECT_EQ(original, decoded);
  }
}

TEST_P(WireRoundTripTest, RandomizedResponsesSurviveEncodeDecode) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 300; ++i) {
    const Response original = RandomResponse(&rng);
    std::string framed;
    EncodeResponse(original, &framed);

    std::string body;
    ASSERT_TRUE(ExtractFrame(&framed, &body).ok());
    Response decoded;
    ASSERT_TRUE(DecodeResponse(body, &decoded).ok());
    EXPECT_EQ(original, decoded);
  }
}

TEST_P(WireRoundTripTest, BackToBackFramesExtractInOrder) {
  Rng rng(GetParam() + 2000);
  std::vector<Request> originals;
  std::string stream;
  for (int i = 0; i < 20; ++i) {
    originals.push_back(RandomRequest(&rng));
    EncodeRequest(originals.back(), &stream);
  }
  for (const Request& expected : originals) {
    std::string body;
    ASSERT_TRUE(ExtractFrame(&stream, &body).ok());
    Request decoded;
    ASSERT_TRUE(DecodeRequest(body, &decoded).ok());
    EXPECT_EQ(expected, decoded);
  }
  EXPECT_TRUE(stream.empty());
}

TEST_P(WireRoundTripTest, TruncationsAndBitFlipsNeverCrashDecode) {
  Rng rng(GetParam() + 3000);
  for (int i = 0; i < 200; ++i) {
    const Request original = RandomRequest(&rng);
    std::string framed;
    EncodeRequest(original, &framed);
    std::string body;
    ASSERT_TRUE(ExtractFrame(&framed, &body).ok());

    // Every strict prefix must decode to an error, never crash or succeed
    // with trailing-dependent fields missing.
    const size_t cut = rng.Uniform(body.size());
    Request decoded;
    Status truncated = DecodeRequest(std::string_view(body).substr(0, cut),
                                     &decoded);
    // (A prefix can only be valid if the cut removed nothing semantic —
    // impossible here because the trailing-bytes check requires exact
    // consumption.)
    EXPECT_FALSE(truncated.ok());

    // Random corruption: decode must return, OK or not, without UB. When
    // it claims OK, re-encoding must produce a decodable frame again.
    std::string corrupt = body;
    for (int flips = 0; flips < 3; ++flips) {
      corrupt[rng.Uniform(corrupt.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    Request survivor;
    if (DecodeRequest(corrupt, &survivor).ok()) {
      std::string reframed;
      EncodeRequest(survivor, &reframed);
      std::string rebody;
      ASSERT_TRUE(ExtractFrame(&reframed, &rebody).ok());
      Request redecoded;
      EXPECT_TRUE(DecodeRequest(rebody, &redecoded).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripTest,
                         ::testing::Values(71, 72, 73, 74, 75));

TEST(WireFrameTest, ExtractRejectsOversizedAndReportsShortReads) {
  std::string buffer;
  std::string body;
  // Too short for a length prefix.
  buffer = "\x01\x02";
  EXPECT_TRUE(ExtractFrame(&buffer, &body).IsBusy());
  // Announced length above the limit.
  buffer.assign("\xff\xff\xff\x7f", 4);
  EXPECT_TRUE(ExtractFrame(&buffer, &body).IsInvalidArgument());
  // Valid prefix, incomplete body.
  buffer.assign({'\x08', '\0', '\0', '\0', 'a', 'b', 'c'});
  EXPECT_TRUE(ExtractFrame(&buffer, &body).IsBusy());
}

TEST(WireFrameTest, VersionMismatchIsRejected) {
  server::wire::Request request;
  std::string framed;
  EncodeRequest(request, &framed);
  std::string body;
  ASSERT_TRUE(ExtractFrame(&framed, &body).ok());
  body[0] = static_cast<char>(server::wire::kWireVersion + 1);
  server::wire::Request decoded;
  EXPECT_TRUE(DecodeRequest(body, &decoded).IsInvalidArgument());
}

}  // namespace wireprop

}  // namespace
}  // namespace impliance
