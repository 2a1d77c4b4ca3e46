#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace impliance {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing doc");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing doc");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  IMPLIANCE_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseHalf(3, &out).IsInvalidArgument());
}

// ---------------------------------------------------------------- Hashing

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64("impliance"), Hash64("impliance"));
  EXPECT_NE(Hash64("impliance"), Hash64("impliance", 1));
  EXPECT_NE(Hash64("a"), Hash64("b"));
}

TEST(HashTest, Crc32cKnownVector) {
  // Standard check value for CRC-32C over "123456789".
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(HashTest, Crc32cDetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  uint32_t before = Crc32c(data);
  data[3] ^= 0x01;
  EXPECT_NE(before, Crc32c(data));
}

TEST(HashTest, Mix64SpreadsSmallIntegers) {
  std::set<uint64_t> high_bytes;
  for (uint64_t i = 0; i < 256; ++i) {
    high_bytes.insert(Mix64(i) >> 56);
  }
  // All 256 inputs should not collapse into a few high bytes.
  EXPECT_GT(high_bytes.size(), 100u);
}

// ---------------------------------------------------------------- RNG

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(42);
  size_t low_rank = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(1000, 0.99) < 10) ++low_rank;
  }
  // Under uniform, ranks <10 appear ~1% of the time; Zipf(0.99) puts far
  // more mass there.
  EXPECT_GT(low_rank, kTrials / 20);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(3);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------- Strings

TEST(StringTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringTest, SplitAndTrimDropsEmpties) {
  std::vector<std::string> parts = SplitAndTrim(" a , , b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"x", "y", "z"}, "/"), "x/y/z");
  EXPECT_EQ(Join({}, "/"), "");
}

TEST(StringTest, TokenizeLowercasesAndSplitsOnPunctuation) {
  std::vector<std::string> tokens = Tokenize("Hello, World! x86-64");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "x86");
  EXPECT_EQ(tokens[3], "64");
}

TEST(StringTest, ForEachTokenAgreesWithTokenize) {
  const std::string_view inputs[] = {"", "   ", "Hello, World! x86-64",
                                     "a.b.c", "ONE two THREE"};
  for (std::string_view input : inputs) {
    std::vector<std::string> streamed;
    ForEachToken(input, [&](std::string_view token) {
      streamed.emplace_back(token);
    });
    EXPECT_EQ(streamed, Tokenize(input)) << "input=\"" << input << "\"";
  }
}

TEST(StringTest, ForEachTokenViewOnlyValidDuringCallback) {
  // The yielded view points into a buffer reused across tokens; a caller
  // that needs the token later must copy it. Verify the documented
  // contract: the bytes are correct at callback time.
  std::vector<std::string> copies;
  std::vector<std::string_view> views;
  ForEachToken("alpha BETA gamma", [&](std::string_view token) {
    copies.emplace_back(token);
    views.push_back(token);  // deliberately escapes the callback
  });
  ASSERT_EQ(copies.size(), 3u);
  EXPECT_EQ(copies[0], "alpha");
  EXPECT_EQ(copies[1], "beta");
  EXPECT_EQ(copies[2], "gamma");
  // All escaped views alias the same reused buffer.
  EXPECT_EQ(views[0].data(), views[2].data());
}

TEST(StringTest, TokenizeWithOffsetsReportsBytePositions) {
  std::vector<Token> tokens = TokenizeWithOffsets("ab  CD");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 4u);
  EXPECT_EQ(tokens[1].text, "cd");
}

TEST(StringTest, JaroWinklerOrdering) {
  EXPECT_DOUBLE_EQ(JaroWinkler("martha", "martha"), 1.0);
  EXPECT_GT(JaroWinkler("martha", "marhta"), JaroWinkler("martha", "zzzzz"));
  EXPECT_EQ(JaroWinkler("", "abc"), 0.0);
  // Winkler prefix bonus: shared prefix scores above a transposed middle.
  EXPECT_GT(JaroWinkler("michelle", "michela"),
            JaroWinkler("michelle", "hcimelle"));
}

TEST(StringTest, EditDistanceKnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(StringTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("red blue", "blue red"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("red", "blue"), 0.0);
  EXPECT_NEAR(TokenJaccard("a b c", "a b d"), 0.5, 1e-9);
}

// ---------------------------------------------------------------- Coding

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  std::string_view in(buf);
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const std::vector<uint64_t> values = {0,    1,          127,        128,
                                        300,  (1u << 14), (1u << 21), 1ull << 35,
                                        ~0ull};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  std::string_view in(buf);
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, expected);
  }
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  std::string_view in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  std::string_view in(buf);
  std::string_view a, b;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(CodingTest, ZigZagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-12345},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes must encode small.
  EXPECT_LT(ZigZagEncode(-2), 8u);
}

// Property sweep: random byte strings round-trip through varint coding.
class CodingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodingPropertyTest, RandomVarintsRoundTrip) {
  Rng rng(GetParam());
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 200; ++i) {
    // Mix magnitudes so all varint widths are covered.
    uint64_t v = rng.Next() >> rng.Uniform(64);
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  std::string_view in(buf);
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(in.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, HighPriorityRunsBeforeLowWhenQueued) {
  // One worker so queue order is observable: block it, queue low then high,
  // and verify the high-priority task executes first.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::vector<int> order;
  std::mutex order_mutex;
  pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.Submit(
      [&] {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(2);
      },
      ThreadPool::Priority::kLow);
  pool.Submit(
      [&] {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(1);
      },
      ThreadPool::Priority::kHigh);
  release.store(true);
  pool.WaitIdle();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

}  // namespace
}  // namespace impliance
