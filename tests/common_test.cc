/// Unit tests for src/common: Status/Result, byte codec, RNG, strings,
/// hashing, metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace gisql {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table '", "orders", "' missing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "table 'orders' missing");
  EXPECT_EQ(st.ToString(), "NotFound: table 'orders' missing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 13; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() -> Status { return Status::IOError("disk gone"); };
  auto outer = [&]() -> Status {
    GISQL_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIOError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(Result<int>(Status::NotFound("x")).ValueOr(3), 3);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("nope");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    GISQL_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 20);
  EXPECT_TRUE(outer(true).status().IsNotFound());
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutDouble(3.14159);
  w.PutBool(true);
  ByteReader r(w.data());
  EXPECT_EQ(*r.GetU8(), 0xab);
  EXPECT_EQ(*r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.14159);
  EXPECT_TRUE(*r.GetBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTrip) {
  ByteWriter w;
  const uint64_t cases[] = {0, 1, 127, 128, 300, 16383, 16384,
                            (1ULL << 32), ~0ULL};
  for (uint64_t v : cases) w.PutVarint(v);
  ByteReader r(w.data());
  for (uint64_t v : cases) EXPECT_EQ(*r.GetVarint(), v);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, SignedVarintRoundTrip) {
  ByteWriter w;
  const int64_t cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX, -123456};
  for (int64_t v : cases) w.PutSignedVarint(v);
  ByteReader r(w.data());
  for (int64_t v : cases) EXPECT_EQ(*r.GetSignedVarint(), v);
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("");
  w.PutString("hello");
  w.PutString(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(r.GetString()->size(), 1000u);
}

TEST(BytesTest, TruncationDetected) {
  ByteWriter w;
  w.PutU64(42);
  ByteReader r(w.data().data(), 4);  // cut in half
  auto res = r.GetU64();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsSerializationError());
}

TEST(BytesTest, TruncatedVarintDetected) {
  std::vector<uint8_t> bad = {0x80, 0x80};  // continuation with no end
  ByteReader r(bad);
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(BytesTest, TruncatedStringBodyDetected) {
  ByteWriter w;
  w.PutVarint(100);  // claims 100 bytes follow
  w.PutRaw("abc", 3);
  ByteReader r(w.data());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.Uniform(3, 3), 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfBoundsAndSkew) {
  Rng rng(3);
  const ZipfSampler zipf(100, 0.9);
  int64_t ones = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    int64_t v = zipf.Sample(rng);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
    if (v == 1) ++ones;
  }
  // Rank 1 should be far more frequent than uniform (1%).
  EXPECT_GT(ones, kTrials / 20);
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(4);
  const ZipfSampler uniform(100, 0.0);
  int64_t ones = 0;
  for (int i = 0; i < 20000; ++i) {
    if (uniform.Sample(rng) == 1) ++ones;
  }
  EXPECT_LT(ones, 20000 / 50);  // ~1% expected
}

TEST(StringUtilTest, CaseFolding) {
  EXPECT_EQ(ToLower("AbC9"), "abc9");
  EXPECT_EQ(ToUpper("aBc_"), "ABC_");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("ab", "abc"));
}

TEST(StringUtilTest, JoinSplitTrim) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, LikeMatching) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("hello", "h_" ));
  EXPECT_FALSE(LikeMatch("hello", "H%"));  // case sensitive
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  EXPECT_TRUE(LikeMatch("a", "_"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("xyz", "x%z"));
  EXPECT_FALSE(LikeMatch("xz", "x_z"));
}

TEST(StringUtilTest, LikeEdgeCases) {
  // Consecutive wildcards collapse: "%%a" ≡ "%a".
  EXPECT_TRUE(LikeMatch("a", "%%a"));
  EXPECT_TRUE(LikeMatch("bca", "%%a"));
  EXPECT_FALSE(LikeMatch("ab", "%%a"));
  EXPECT_FALSE(LikeMatch("", "%%a"));
  // A pattern ending in '_' must consume exactly one trailing char.
  EXPECT_TRUE(LikeMatch("ab", "a_"));
  EXPECT_FALSE(LikeMatch("a", "a_"));
  EXPECT_FALSE(LikeMatch("abc", "a_"));
  EXPECT_TRUE(LikeMatch("abc", "%_"));
  EXPECT_FALSE(LikeMatch("", "%_"));
  // Empty value: matched by "%" (and only by patterns of %s).
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_TRUE(LikeMatch("", "%%"));
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_FALSE(LikeMatch("", "a"));
  // '%' then '_' still demands one character somewhere.
  EXPECT_TRUE(LikeMatch("x", "%_%"));
  EXPECT_FALSE(LikeMatch("", "%_%"));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanBytes(1536 * 1024), "1.50 MiB");
}

TEST(HashTest, Determinism) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_EQ(HashInt(42), HashInt(42));
  EXPECT_NE(HashInt(42), HashInt(43));
}

TEST(HashTest, CombineOrderMatters) {
  EXPECT_NE(HashCombine(HashInt(1), HashInt(2)),
            HashCombine(HashInt(2), HashInt(1)));
}

TEST(HashTest, IntFinalizerSpreadsLowBits) {
  std::set<uint64_t> top_bytes;
  for (uint64_t i = 0; i < 256; ++i) top_bytes.insert(HashInt(i) >> 56);
  EXPECT_GT(top_bytes.size(), 100u);
}

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry m;
  m.Add("bytes", 100);
  m.Add("bytes", 50);
  EXPECT_EQ(m.Get("bytes"), 150);
  EXPECT_EQ(m.Get("missing"), 0);
  m.Set("time_ms", 12.5);
  EXPECT_DOUBLE_EQ(m.GetGauge("time_ms"), 12.5);
  EXPECT_EQ(m.Counters().size(), 1u);
  m.Reset();
  EXPECT_EQ(m.Get("bytes"), 0);
}

TEST(HistogramTest, BucketBoundsGrowBySqrt2) {
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(0), 1e-3);
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(2), 2e-3);
  EXPECT_NEAR(Histogram::UpperBound(1) / Histogram::UpperBound(0),
              std::sqrt(2.0), 1e-12);
}

TEST(HistogramTest, IdenticalObservationsReportExactly) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Observe(7.5);
  EXPECT_EQ(h.count(), 10);
  EXPECT_DOUBLE_EQ(h.min(), 7.5);
  EXPECT_DOUBLE_EQ(h.max(), 7.5);
  // Interpolation clamps to the observed range.
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), 7.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 7.5);
}

TEST(HistogramTest, PercentilesOrderedAndBracketed) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  const double p50 = h.Percentile(0.50);
  const double p95 = h.Percentile(0.95);
  const double p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  // Log-scale buckets are coarse (sqrt-2 steps ≈ ±41%), so only ask
  // for bucket-level accuracy.
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.45);
  EXPECT_NEAR(p95, 950.0, 950.0 * 0.45);
}

TEST(HistogramTest, ZeroNegativeAndOverflowAreSafe) {
  Histogram h;
  h.Observe(0.0);
  h.Observe(-5.0);
  h.Observe(1e300);  // far beyond the last bound → overflow bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  const double p50 = h.Percentile(0.5);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p50, h.max());
}

TEST(MetricsTest, RegistryHistograms) {
  MetricsRegistry m;
  EXPECT_EQ(m.SnapshotHistogram("lat").count, 0);
  m.Observe("lat", 10.0);
  m.Observe("lat", 20.0);
  m.Observe("lat", 30.0);
  HistogramSnapshot snap = m.SnapshotHistogram("lat");
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 60.0);
  EXPECT_DOUBLE_EQ(snap.min, 10.0);
  EXPECT_DOUBLE_EQ(snap.max, 30.0);
  EXPECT_GE(snap.p95, snap.p50);
  m.Reset();
  EXPECT_EQ(m.SnapshotHistogram("lat").count, 0);
}

}  // namespace
}  // namespace gisql
