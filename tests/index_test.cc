#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "index/btree.h"
#include "index/facet_index.h"
#include "index/inverted_index.h"
#include "index/join_index.h"
#include "index/path_index.h"
#include "index/value_index.h"
#include "model/document.h"
#include "obs/metrics.h"

namespace impliance::index {
namespace {

using model::DocId;
using model::Document;
using model::MakeRecordDocument;
using model::MakeTextDocument;
using model::Value;

// ---------------------------------------------------------------- Inverted

TEST(InvertedIndexTest, SearchRanksMatchingDocs) {
  InvertedIndex idx;
  idx.AddDocument(1, "the quick brown fox jumps");
  idx.AddDocument(2, "the lazy dog sleeps");
  idx.AddDocument(3, "quick quick quick fox");

  auto results = idx.Search("quick fox", 10);
  ASSERT_EQ(results.size(), 2u);
  // Doc 3 repeats both-matching terms and is shorter; it must rank first.
  EXPECT_EQ(results[0].doc, 3u);
  EXPECT_EQ(results[1].doc, 1u);
  EXPECT_GT(results[0].score, results[1].score);
}

TEST(InvertedIndexTest, SearchRespectsK) {
  InvertedIndex idx;
  for (DocId id = 1; id <= 20; ++id) idx.AddDocument(id, "common term");
  EXPECT_EQ(idx.Search("common", 5).size(), 5u);
}

TEST(InvertedIndexTest, SearchEmptyQueryReturnsNothing) {
  InvertedIndex idx;
  idx.AddDocument(1, "something");
  EXPECT_TRUE(idx.Search("", 10).empty());
  EXPECT_TRUE(idx.Search("...", 10).empty());
}

TEST(InvertedIndexTest, IdfFavorsRareTerms) {
  InvertedIndex idx;
  for (DocId id = 1; id <= 50; ++id) {
    idx.AddDocument(id, id == 7 ? "widget unobtainium" : "widget common");
  }
  auto results = idx.Search("unobtainium widget", 50);
  EXPECT_EQ(results[0].doc, 7u);
}

TEST(InvertedIndexTest, SearchAllIsConjunctive) {
  InvertedIndex idx;
  idx.AddDocument(1, "alpha beta");
  idx.AddDocument(2, "alpha gamma");
  idx.AddDocument(3, "alpha beta gamma");
  std::vector<DocId> docs = idx.SearchAll("alpha beta");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0], 1u);
  EXPECT_EQ(docs[1], 3u);
  EXPECT_TRUE(idx.SearchAll("alpha delta").empty());
}

TEST(InvertedIndexTest, PhraseSearchRequiresAdjacency) {
  InvertedIndex idx;
  idx.AddDocument(1, "new york city");
  idx.AddDocument(2, "york has a new museum");
  idx.AddDocument(3, "brand new york style bagels");
  std::vector<DocId> docs = idx.SearchPhrase("new york");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0], 1u);
  EXPECT_EQ(docs[1], 3u);
}

TEST(InvertedIndexTest, PhraseSearchHandlesRepeatedTerm) {
  InvertedIndex idx;
  idx.AddDocument(1, "buffalo buffalo buffalo");
  idx.AddDocument(2, "one buffalo here");
  EXPECT_EQ(idx.SearchPhrase("buffalo buffalo").size(), 1u);
}

TEST(InvertedIndexTest, RemoveDocumentPurgesPostings) {
  InvertedIndex idx;
  idx.AddDocument(1, "apple banana");
  idx.AddDocument(2, "apple cherry");
  idx.RemoveDocument(1);
  EXPECT_EQ(idx.num_documents(), 1u);
  EXPECT_TRUE(idx.DocsWithTerm("banana").empty());
  std::vector<DocId> docs = idx.DocsWithTerm("apple");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0], 2u);
  // Removing again is a no-op; re-adding works.
  idx.RemoveDocument(1);
  idx.AddDocument(1, "apple date");
  EXPECT_EQ(idx.DocsWithTerm("apple").size(), 2u);
}

TEST(InvertedIndexTest, TokenizationConsistentWithQueries) {
  InvertedIndex idx;
  idx.AddDocument(1, "Order #1234: URGENT-Delivery!");
  EXPECT_EQ(idx.DocsWithTerm("urgent").size(), 1u);
  EXPECT_EQ(idx.DocsWithTerm("1234").size(), 1u);
  EXPECT_EQ(idx.Search("URGENT delivery", 10).size(), 1u);
}

TEST(InvertedIndexTest, FrequentTermSpansMultipleBlocks) {
  InvertedIndex idx;
  // 500 docs sharing one term: the posting list must split into ~128-entry
  // blocks, and DocsWithTerm must still return every doc in order.
  for (model::DocId id = 1; id <= 500; ++id) {
    idx.AddDocument(id, "common filler" + std::to_string(id));
  }
  EXPECT_GE(idx.num_blocks(), 4u);
  std::vector<model::DocId> docs = idx.DocsWithTerm("common");
  ASSERT_EQ(docs.size(), 500u);
  EXPECT_TRUE(std::is_sorted(docs.begin(), docs.end()));
  EXPECT_EQ(docs.front(), 1u);
  EXPECT_EQ(docs.back(), 500u);
}

TEST(InvertedIndexTest, OutOfOrderAddRewritesBlock) {
  InvertedIndex idx;
  for (model::DocId id = 1; id <= 300; ++id) {
    idx.AddDocument(id, "shared term");
  }
  // Remove a middle doc and re-add it: the id now lands inside an already
  // sealed block and must be stitched back in order.
  idx.RemoveDocument(150);
  idx.AddDocument(150, "shared term");
  std::vector<model::DocId> docs = idx.DocsWithTerm("shared");
  ASSERT_EQ(docs.size(), 300u);
  EXPECT_TRUE(std::is_sorted(docs.begin(), docs.end()));
  ASSERT_EQ(idx.Search("shared", 5).size(), 5u);
}

TEST(InvertedIndexTest, TopKSkipsBlocksOnMultiTermQueries) {
  InvertedIndex idx;
  Rng rng(11);
  // One very common term plus one rare term: once the heap fills with
  // rare+common docs, whole blocks of the common term alone are skippable.
  for (model::DocId id = 1; id <= 2000; ++id) {
    std::string text = "common";
    if (id % 197 == 0) text += " rare";
    text += " pad" + std::to_string(rng.Uniform(50));
    idx.AddDocument(id, text);
  }
  InvertedIndex::SearchStats stats;
  auto results = idx.Search("common rare", 5, &stats);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_GT(stats.blocks_skipped, 0u);
  // Early termination must have scored well under the full posting count.
  EXPECT_LT(stats.postings_scored, idx.num_postings());
}

TEST(InvertedIndexTest, SearchRecordsObservabilityMetrics) {
  auto* latency =
      obs::Registry::Global().GetHistogram("index.search.latency_us");
  auto* scored =
      obs::Registry::Global().GetCounter("index.search.postings_scored");
  const size_t count_before = latency->Snapshot().count();
  const uint64_t scored_before = scored->Value();
  InvertedIndex idx;
  for (model::DocId id = 1; id <= 50; ++id) {
    idx.AddDocument(id, "metric probe document " + std::to_string(id));
  }
  ASSERT_FALSE(idx.Search("metric probe", 5).empty());
  EXPECT_EQ(latency->Snapshot().count(), count_before + 1);
  EXPECT_GT(scored->Value(), scored_before);
}

TEST(InvertedIndexTest, DirtyBlocksRetightenAfterWrites) {
  InvertedIndex idx;
  for (model::DocId id = 1; id <= 400; ++id) {
    idx.AddDocument(id, "term body" + std::to_string(id));
  }
  for (model::DocId id = 2; id <= 100; id += 2) idx.RemoveDocument(id);
  // Removal leaves loose bounds behind; subsequent writes drain the dirty
  // queue a few terms at a time.
  for (model::DocId id = 10000; id < 10100; ++id) {
    idx.AddDocument(id, "other words entirely");
  }
  EXPECT_EQ(idx.num_dirty_blocks(), 0u);
}

// Property sweep: BM25 results must exactly match a naive scan oracle in
// membership, and conjunctive search must match set intersection.
class InvertedIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvertedIndexPropertyTest, MatchesNaiveOracle) {
  Rng rng(GetParam());
  const std::vector<std::string> vocab = {"red",  "blue", "green", "ox",
                                          "ant",  "bee",  "fox",   "sun",
                                          "moon", "star"};
  InvertedIndex idx;
  std::map<DocId, std::set<std::string>> oracle;
  for (DocId id = 1; id <= 60; ++id) {
    std::string text;
    const size_t len = 1 + rng.Uniform(12);
    for (size_t i = 0; i < len; ++i) {
      text += rng.Pick(vocab);
      text += ' ';
    }
    idx.AddDocument(id, text);
    for (const std::string& t : Tokenize(text)) oracle[id].insert(t);
  }
  // Random removals.
  for (int i = 0; i < 10; ++i) {
    DocId victim = 1 + rng.Uniform(60);
    idx.RemoveDocument(victim);
    oracle.erase(victim);
  }
  for (int q = 0; q < 30; ++q) {
    std::string t1 = rng.Pick(vocab);
    std::string t2 = rng.Pick(vocab);
    // Disjunctive membership.
    std::set<DocId> expected_or;
    std::set<DocId> expected_and;
    for (const auto& [id, terms] : oracle) {
      bool has1 = terms.count(t1) > 0;
      bool has2 = terms.count(t2) > 0;
      if (has1 || has2) expected_or.insert(id);
      if (has1 && has2) expected_and.insert(id);
    }
    auto results = idx.Search(t1 + " " + t2, 1000);
    std::set<DocId> got_or;
    for (const auto& r : results) got_or.insert(r.doc);
    EXPECT_EQ(got_or, expected_or);

    std::vector<DocId> and_docs = idx.SearchAll(t1 + " " + t2);
    std::set<DocId> got_and(and_docs.begin(), and_docs.end());
    EXPECT_EQ(got_and, expected_and);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvertedIndexPropertyTest,
                         ::testing::Values(1, 7, 13, 29, 31));

// ---------------------------------------------------------------- BTree

TEST(BTreeTest, InsertAndLookup) {
  BPlusTree tree;
  tree.Insert(Value::Int(5), 100);
  tree.Insert(Value::Int(5), 200);
  tree.Insert(Value::Int(7), 300);
  std::vector<DocId> docs = tree.Lookup(Value::Int(5));
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0], 100u);
  EXPECT_EQ(docs[1], 200u);
  EXPECT_TRUE(tree.Lookup(Value::Int(6)).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, SplitsGrowHeight) {
  BPlusTree tree;
  for (int i = 0; i < 5000; ++i) tree.Insert(Value::Int(i), i);
  EXPECT_GE(tree.height(), 3);
  EXPECT_EQ(tree.size(), 5000u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (int i : {0, 1, 2047, 4999}) {
    ASSERT_EQ(tree.Lookup(Value::Int(i)).size(), 1u) << i;
  }
}

TEST(BTreeTest, RangeScanInclusiveExclusive) {
  BPlusTree tree;
  for (int i = 0; i < 100; ++i) tree.Insert(Value::Int(i), i);
  Value lo = Value::Int(10), hi = Value::Int(20);
  std::vector<int64_t> seen;
  tree.ScanRange(&lo, true, &hi, false, [&](const Value& v, DocId) {
    seen.push_back(v.int_value());
    return true;
  });
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 10);
  EXPECT_EQ(seen.back(), 19);

  seen.clear();
  tree.ScanRange(&lo, false, &hi, true, [&](const Value& v, DocId) {
    seen.push_back(v.int_value());
    return true;
  });
  EXPECT_EQ(seen.front(), 11);
  EXPECT_EQ(seen.back(), 20);
}

TEST(BTreeTest, UnboundedScansAndEarlyStop) {
  BPlusTree tree;
  for (int i = 0; i < 50; ++i) tree.Insert(Value::Int(i), i);
  size_t visited = 0;
  tree.ScanRange(nullptr, true, nullptr, true, [&](const Value&, DocId) {
    return ++visited < 5;
  });
  EXPECT_EQ(visited, 5u);

  // Full scan is ordered.
  std::vector<int64_t> all;
  tree.ScanRange(nullptr, true, nullptr, true, [&](const Value& v, DocId) {
    all.push_back(v.int_value());
    return true;
  });
  EXPECT_EQ(all.size(), 50u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST(BTreeTest, EraseRemovesOneOccurrence) {
  BPlusTree tree;
  tree.Insert(Value::String("x"), 1);
  tree.Insert(Value::String("x"), 2);
  EXPECT_TRUE(tree.Erase(Value::String("x"), 1));
  EXPECT_FALSE(tree.Erase(Value::String("x"), 1));
  EXPECT_FALSE(tree.Erase(Value::String("y"), 2));
  std::vector<DocId> docs = tree.Lookup(Value::String("x"));
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0], 2u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, MixedValueTypesKeepTotalOrder) {
  BPlusTree tree;
  tree.Insert(Value::String("zeta"), 1);
  tree.Insert(Value::Int(3), 2);
  tree.Insert(Value::Double(2.5), 3);
  tree.Insert(Value::Bool(true), 4);
  std::vector<DocId> order;
  tree.ScanRange(nullptr, true, nullptr, true, [&](const Value&, DocId d) {
    order.push_back(d);
    return true;
  });
  // Bool < numeric (2.5 < 3) < string.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 4u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 1u);
}

// Property sweep against std::multimap oracle with interleaved
// inserts/erases/range scans.
class BTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreePropertyTest, MatchesMultimapOracle) {
  Rng rng(GetParam());
  BPlusTree tree;
  std::multimap<std::pair<int64_t, DocId>, int> oracle;

  for (int op = 0; op < 3000; ++op) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 70) {
      int64_t key = rng.UniformInt(0, 200);
      DocId doc = 1 + rng.Uniform(50);
      tree.Insert(Value::Int(key), doc);
      oracle.emplace(std::make_pair(key, doc), 0);
    } else if (roll < 85 && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      EXPECT_TRUE(tree.Erase(Value::Int(it->first.first), it->first.second));
      oracle.erase(it);
    } else {
      int64_t lo = rng.UniformInt(0, 200);
      int64_t hi = lo + rng.UniformInt(0, 50);
      Value vlo = Value::Int(lo), vhi = Value::Int(hi);
      std::vector<std::pair<int64_t, DocId>> got;
      tree.ScanRange(&vlo, true, &vhi, true,
                     [&](const Value& v, DocId d) {
                       got.emplace_back(v.int_value(), d);
                       return true;
                     });
      std::vector<std::pair<int64_t, DocId>> expected;
      for (auto it = oracle.lower_bound({lo, 0});
           it != oracle.end() && it->first.first <= hi; ++it) {
        expected.push_back(it->first);
      }
      ASSERT_EQ(got, expected);
    }
  }
  EXPECT_EQ(tree.size(), oracle.size());
  EXPECT_TRUE(tree.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(3, 17, 23, 57, 91));

// ---------------------------------------------------------------- ValueIndex

Document OrderDoc(DocId id, int64_t total, const std::string& city) {
  Document doc = MakeRecordDocument(
      "order", {{"total", Value::Int(total)}, {"city", Value::String(city)}});
  doc.id = id;
  return doc;
}

TEST(ValueIndexTest, LookupAndRange) {
  ValueIndex idx;
  idx.AddDocument(OrderDoc(1, 100, "london"));
  idx.AddDocument(OrderDoc(2, 250, "paris"));
  idx.AddDocument(OrderDoc(3, 250, "london"));

  std::vector<DocId> docs = idx.Lookup("/doc/total", Value::Int(250));
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0], 2u);

  Value lo = Value::Int(150);
  docs = idx.Range("/doc/total", &lo, true, nullptr, true);
  EXPECT_EQ(docs.size(), 2u);

  docs = idx.Lookup("/doc/city", Value::String("london"));
  EXPECT_EQ(docs.size(), 2u);
  EXPECT_TRUE(idx.Lookup("/doc/nope", Value::Int(1)).empty());
}

TEST(ValueIndexTest, RemoveDocument) {
  ValueIndex idx;
  Document doc = OrderDoc(1, 100, "london");
  idx.AddDocument(doc);
  idx.AddDocument(OrderDoc(2, 100, "rome"));
  idx.RemoveDocument(doc);
  std::vector<DocId> docs = idx.Lookup("/doc/total", Value::Int(100));
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0], 2u);
}

TEST(ValueIndexTest, EveryLeafPathIndexedAutomatically) {
  ValueIndex idx;
  Document doc;
  doc.id = 9;
  doc.kind = "nested";
  doc.root = model::Item("doc");
  model::Item& inner = doc.root.AddChild("a");
  inner.AddChild("b", Value::Int(7));
  idx.AddDocument(doc);
  EXPECT_EQ(idx.Lookup("/doc/a/b", Value::Int(7)).size(), 1u);
  EXPECT_EQ(idx.num_paths(), 1u);  // only non-null leaves
}

// ---------------------------------------------------------------- PathIndex

TEST(PathIndexTest, StructuralAndKindQueries) {
  PathIndex idx;
  idx.AddDocument(OrderDoc(1, 10, "x"));
  idx.AddDocument(OrderDoc(2, 20, "y"));
  Document email = MakeTextDocument("email", "hi", "body");
  email.id = 3;
  idx.AddDocument(email);

  EXPECT_EQ(idx.DocsWithPath("/doc/total").size(), 2u);
  EXPECT_EQ(idx.DocsWithPath("/doc/text").size(), 1u);
  EXPECT_EQ(idx.DocsOfKind("order").size(), 2u);
  EXPECT_EQ(idx.DocsOfKind("email").size(), 1u);
  EXPECT_TRUE(idx.DocsOfKind("fax").empty());

  std::vector<std::string> kinds = idx.Kinds();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], "email");

  std::vector<std::string> order_paths = idx.PathsOfKind("order");
  EXPECT_EQ(order_paths.size(), 3u);  // /doc, /doc/total, /doc/city
}

TEST(PathIndexTest, RemoveDocumentCleansUp) {
  PathIndex idx;
  Document doc = OrderDoc(1, 10, "x");
  idx.AddDocument(doc);
  idx.RemoveDocument(doc);
  EXPECT_TRUE(idx.DocsWithPath("/doc/total").empty());
  EXPECT_TRUE(idx.DocsOfKind("order").empty());
  EXPECT_TRUE(idx.Kinds().empty());
  EXPECT_EQ(idx.num_paths(), 0u);
}

// ---------------------------------------------------------------- Facets

TEST(FacetIndexTest, CountsAndDrillDown) {
  FacetIndex idx;
  idx.AddDocument(OrderDoc(1, 10, "london"));
  idx.AddDocument(OrderDoc(2, 20, "london"));
  idx.AddDocument(OrderDoc(3, 30, "paris"));

  auto counts = idx.CountFacetAll("/doc/city", 10);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].value.string_value(), "london");
  EXPECT_EQ(counts[0].count, 2u);
  EXPECT_EQ(counts[1].count, 1u);

  // Drill-down within a candidate set.
  const std::vector<DocId> ids = {2, 3};
  DocBitmap candidates = DocBitmap::Of(ids);
  counts = idx.CountFacet("/doc/city", candidates, 10);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].count, 1u);

  idx.Restrict("/doc/city", Value::String("london"), &candidates);
  EXPECT_EQ(candidates.Count(), 1u);
  EXPECT_TRUE(candidates.Contains(2));
  EXPECT_FALSE(candidates.Contains(3));
}

TEST(DocBitmapTest, MembershipStaysInsideTheRange) {
  const std::vector<DocId> ids = {130, 70, 64, 200};
  DocBitmap bitmap = DocBitmap::Of(ids);  // covers [64, 200]
  EXPECT_EQ(bitmap.Count(), 4u);
  for (DocId id : ids) EXPECT_TRUE(bitmap.Contains(id));
  for (DocId id : {DocId{0}, DocId{1}, DocId{63}, DocId{65}, DocId{201},
                   DocId{256}, DocId{1000000}}) {
    EXPECT_FALSE(bitmap.Contains(id)) << id;
  }
  // Clearing outside the range is a no-op.
  bitmap.Clear(1);
  bitmap.Clear(5000);
  bitmap.Clear(70);
  EXPECT_EQ(bitmap.Count(), 3u);

  const std::vector<DocId> sorted = {1, 64, 65, 130, 199, 200, 9000};
  EXPECT_EQ(bitmap.CountIn(sorted), 3u);
  std::vector<DocId> walked;
  bitmap.ForEach([&](DocId id) {
    walked.push_back(id);
    return walked.size() < 2;
  });
  EXPECT_EQ(walked, (std::vector<DocId>{64, 130}));

  const std::vector<DocId> keep = {2, 130, 200, 300};
  bitmap.IntersectSorted(keep);
  EXPECT_EQ(bitmap.Count(), 2u);
  EXPECT_FALSE(bitmap.Contains(64));
  EXPECT_TRUE(bitmap.Contains(130));
  EXPECT_TRUE(bitmap.Contains(200));

  DocBitmap empty = DocBitmap::Of({});
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_FALSE(empty.Contains(0));
  EXPECT_EQ(empty.CountIn(sorted), 0u);
  empty.Clear(3);
  empty.IntersectSorted(sorted);
  empty.ForEach([](DocId) {
    ADD_FAILURE() << "empty bitmap has a member";
    return true;
  });
}

TEST(FacetIndexTest, MaxValuesTruncates) {
  FacetIndex idx;
  for (DocId id = 1; id <= 20; ++id) {
    idx.AddDocument(OrderDoc(id, id, "city" + std::to_string(id)));
  }
  EXPECT_EQ(idx.CountFacetAll("/doc/city", 5).size(), 5u);
}

TEST(FacetIndexTest, RemoveDocumentUpdatesCounts) {
  FacetIndex idx;
  Document doc = OrderDoc(1, 10, "london");
  idx.AddDocument(doc);
  idx.AddDocument(OrderDoc(2, 20, "london"));
  idx.RemoveDocument(doc);
  auto counts = idx.CountFacetAll("/doc/city", 10);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].count, 1u);
}

// ---------------------------------------------------------------- JoinIndex

TEST(JoinIndexTest, EdgesAndNeighbors) {
  JoinIndex idx;
  idx.AddEdge(1, 2, "references_customer", 0.9);
  idx.AddEdge(1, 3, "references_product", 0.8);
  idx.AddEdge(4, 1, "annotates", 1.0);

  EXPECT_EQ(idx.num_edges(), 3u);
  EXPECT_EQ(idx.EdgesFrom(1).size(), 2u);
  EXPECT_EQ(idx.EdgesFrom(1, "references_customer").size(), 1u);
  EXPECT_EQ(idx.EdgesTo(1).size(), 1u);
  std::vector<DocId> neighbors = idx.Neighbors(1);
  ASSERT_EQ(neighbors.size(), 3u);  // 2, 3, 4
}

TEST(JoinIndexTest, DuplicateEdgeKeepsMaxConfidence) {
  JoinIndex idx;
  idx.AddEdge(1, 2, "rel", 0.5);
  idx.AddEdge(1, 2, "rel", 0.9);
  idx.AddEdge(1, 2, "rel", 0.2);
  EXPECT_EQ(idx.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(idx.EdgesFrom(1)[0].confidence, 0.9);
  EXPECT_DOUBLE_EQ(idx.EdgesTo(2)[0].confidence, 0.9);
}

TEST(JoinIndexTest, FindConnectionShortestPath) {
  JoinIndex idx;
  // Chain 1-2-3-4 plus a shortcut 1-4 via relation "direct".
  idx.AddEdge(1, 2, "next");
  idx.AddEdge(2, 3, "next");
  idx.AddEdge(3, 4, "next");
  idx.AddEdge(1, 4, "direct");

  auto path = idx.FindConnection(1, 4, 10);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 1u);
  EXPECT_EQ((*path)[0].relation, "direct");

  // Undirected traversal: 4 -> 1 works too.
  auto reverse = idx.FindConnection(4, 1, 10);
  ASSERT_TRUE(reverse.has_value());
  EXPECT_EQ(reverse->size(), 1u);
}

TEST(JoinIndexTest, FindConnectionRespectsMaxDepth) {
  JoinIndex idx;
  idx.AddEdge(1, 2, "next");
  idx.AddEdge(2, 3, "next");
  idx.AddEdge(3, 4, "next");
  EXPECT_FALSE(idx.FindConnection(1, 4, 2).has_value());
  EXPECT_TRUE(idx.FindConnection(1, 4, 3).has_value());
  EXPECT_FALSE(idx.FindConnection(1, 99, 10).has_value());
  // Self-connection is the empty path.
  auto self = idx.FindConnection(5, 5, 1);
  ASSERT_TRUE(self.has_value());
  EXPECT_TRUE(self->empty());
}

TEST(JoinIndexTest, TransitiveClosureBoundedByDepth) {
  JoinIndex idx;
  idx.AddEdge(1, 2, "partner");
  idx.AddEdge(2, 3, "partner");
  idx.AddEdge(3, 4, "partner");
  idx.AddEdge(10, 11, "partner");

  std::vector<DocId> closure = idx.TransitiveClosure(1, 2);
  EXPECT_EQ(closure, (std::vector<DocId>{1, 2, 3}));
  closure = idx.TransitiveClosure(1, 10);
  EXPECT_EQ(closure, (std::vector<DocId>{1, 2, 3, 4}));
}

TEST(JoinIndexTest, RelationsListed) {
  JoinIndex idx;
  idx.AddEdge(1, 2, "b_rel");
  idx.AddEdge(1, 3, "a_rel");
  std::vector<std::string> relations = idx.Relations();
  ASSERT_EQ(relations.size(), 2u);
  EXPECT_EQ(relations[0], "a_rel");
}

}  // namespace
}  // namespace impliance::index
