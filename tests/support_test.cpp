// Unit tests for the support substrate: hex, Result, Rng, serialization,
// statistics.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/hex.hpp"
#include "support/inplace_function.hpp"
#include "support/result.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "support/stats.hpp"

namespace dlt {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data{0x00, 0x01, 0xab, 0xff, 0x10};
  const std::string hex = to_hex(ByteView{data.data(), data.size()});
  EXPECT_EQ(hex, "0001abff10");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, UpperCaseAccepted) {
  auto v = from_hex("ABCDEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 0xab);
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsBadChars) { EXPECT_FALSE(from_hex("zz").has_value()); }

TEST(Hex, FixedFromHexChecksLength) {
  EXPECT_FALSE(fixed_from_hex<32>("abcd").has_value());
  const std::string full(64, 'a');
  EXPECT_TRUE(fixed_from_hex<32>(full).has_value());
}

TEST(Hex, ShortHexTruncates) {
  Hash256 h;
  for (std::size_t i = 0; i < 32; ++i) h.v[i] = static_cast<Byte>(i);
  EXPECT_EQ(short_hex(h), "00010203..");
}

TEST(FixedBytes, OrderingAndHashing) {
  Hash256 a, b;
  b.v[31] = 1;
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<Hash256>{}(a), std::hash<Hash256>{}(b));
  EXPECT_TRUE(a.is_zero());
  EXPECT_FALSE(b.is_zero());
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = make_error("nope", "details");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, "nope");
  EXPECT_EQ(err.error().to_string(), "nope: details");
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Result, StatusDefaultsToSuccess) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status bad = make_error("x");
  EXPECT_FALSE(bad.ok());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, Uniform01Range) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(42);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(5);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(100, 1.0)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Rng, ZipfHandlesParameterChange) {
  Rng rng(5);
  (void)rng.zipf(10, 1.0);
  const std::size_t r = rng.zipf(50, 0.5);  // re-caches cdf
  EXPECT_LT(r, 50u);
}

TEST(Rng, ForkIndependent) {
  Rng a(123);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Serialize, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(ByteView{w.bytes().data(), w.size()});
  EXPECT_EQ(*r.u8(), 0xab);
  EXPECT_EQ(*r.u16(), 0x1234);
  EXPECT_EQ(*r.u32(), 0xdeadbeefu);
  EXPECT_EQ(*r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VarintRoundTrip) {
  // Every length boundary (2^7k - 1 and 2^7k), the top of the range, and
  // a seeded sample spread over every bit length.
  std::vector<std::uint64_t> cases = {0, 300, 1ULL << 63, ~0ULL};
  for (int k = 1; k <= 9; ++k) {
    cases.push_back((1ULL << (7 * k)) - 1);
    cases.push_back(1ULL << (7 * k));
  }
  Rng rng(0x5eed);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t shift = rng.uniform(64);
    cases.push_back(rng.next() >> shift);
  }
  for (std::uint64_t v : cases) {
    Writer w;
    w.varint(v);
    EXPECT_EQ(w.size(), varint_size(v));
    Reader r(ByteView{w.bytes().data(), w.size()});
    const auto got = r.varint();
    ASSERT_TRUE(got.ok()) << v;
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(r.done()) << v;
  }
}

TEST(Serialize, NonMinimalVarintsReturnErrors) {
  auto decode = [](const Bytes& raw) {
    Reader r(ByteView{raw.data(), raw.size()});
    return r.varint();
  };
  // 5 has the one encoding 05; 85 80 00 pads it with zero groups.
  EXPECT_EQ(*decode({0x05}), 5u);
  EXPECT_EQ(decode({0x85, 0x80, 0x00}).error().code, "non-minimal");
  EXPECT_EQ(decode({0x80, 0x00}).error().code, "non-minimal");
  // 2^64 - 1 is nine ff bytes then 01; a larger tenth byte carries bits
  // past 2^64 or a continuation.
  Bytes max(9, 0xff);
  max.push_back(0x01);
  EXPECT_EQ(*decode(max), ~0ULL);
  for (const Byte tenth : {Byte{0x7f}, Byte{0x02}, Byte{0x81}}) {
    Bytes raw(9, 0xff);
    raw.push_back(tenth);
    EXPECT_EQ(decode(raw).error().code, "overflow") << int{tenth};
  }
  Bytes zero_tenth(9, 0xff);
  zero_tenth.push_back(0x00);
  EXPECT_EQ(decode(zero_tenth).error().code, "non-minimal");
}

TEST(Serialize, BlobAndString) {
  Writer w;
  w.str("hello world");
  w.blob(to_bytes("xy"));
  Reader r(ByteView{w.bytes().data(), w.size()});
  EXPECT_EQ(*r.str(), "hello world");
  EXPECT_EQ(*r.blob(), to_bytes("xy"));
}

TEST(Serialize, TruncationDetected) {
  Writer w;
  w.u32(5);
  Reader r(ByteView{w.bytes().data(), w.size()});
  EXPECT_TRUE(r.u32().ok());
  auto fail = r.u64();
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.error().code, "truncated");
}

TEST(Serialize, BlobLengthOverflowRejected) {
  Writer w;
  w.varint(1000);  // claims 1000 bytes, provides none
  Reader r(ByteView{w.bytes().data(), w.size()});
  EXPECT_FALSE(r.blob().ok());
}

TEST(Stats, SummaryWelford) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
}

TEST(Stats, SummaryMerge) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 100; ++i) {
    b.add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Stats, Percentiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 0.01);
  EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.p95(), 95.05, 0.01);
  EXPECT_NEAR(p.p999(), p.quantile(0.999), 1e-12);
}

TEST(Stats, PercentilesExactBelowSampleCap) {
  // Below the cap the reservoir never kicks in: quantiles are exact and
  // identical to an uncapped accumulator's.
  Percentiles capped, exact;
  capped.set_sample_cap(1000);
  for (int i = 1; i <= 1000; ++i) {
    capped.add(i);
    exact.add(i);
  }
  EXPECT_EQ(capped.count(), 1000u);
  EXPECT_EQ(capped.sample_count(), 1000u);
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0})
    EXPECT_NEAR(capped.quantile(q), exact.quantile(q), 1e-12);
}

TEST(Stats, PercentilesReservoirIsDeterministicAboveCap) {
  // Above the cap: total count keeps climbing while retained samples stay
  // bounded, and the seeded reservoir makes two identical runs agree to
  // the bit (the determinism contract latency histograms rely on).
  Percentiles a, b;
  a.set_sample_cap(64);
  b.set_sample_cap(64);
  for (int i = 0; i < 10000; ++i) {
    const double x = (i * 2654435761u) % 100000;
    a.add(x);
    b.add(x);
  }
  EXPECT_EQ(a.count(), 10000u);
  EXPECT_EQ(a.sample_count(), 64u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0})
    EXPECT_EQ(a.quantile(q), b.quantile(q));
  // The sampled quantile still lands in the data's ballpark.
  EXPECT_GE(a.median(), 0.0);
  EXPECT_LE(a.median(), 100000.0);
}

TEST(Stats, PercentilesSampleCapShrinksRetainedSamples) {
  Percentiles p;
  for (int i = 1; i <= 500; ++i) p.add(i);
  EXPECT_EQ(p.sample_count(), 500u);
  p.set_sample_cap(100);
  EXPECT_EQ(p.sample_count(), 100u);
  EXPECT_EQ(p.count(), 500u);  // total observations are not forgotten
  p.add(501.0);
  EXPECT_EQ(p.count(), 501u);
  EXPECT_EQ(p.sample_count(), 100u);
}

TEST(Stats, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(1ULL << 30), "1.00 GiB");
}

// --- InplaceFunction -----------------------------------------------------

TEST(InplaceFunction, EmptyAndBool) {
  support::InplaceFunction<int()> f;
  EXPECT_FALSE(f);
  f = [] { return 7; };
  EXPECT_TRUE(f);
  EXPECT_EQ(f(), 7);
  f.reset();
  EXPECT_FALSE(f);
}

TEST(InplaceFunction, SmallCallableStaysInline) {
  int hits = 0;
  support::InplaceFunction<void()> f([&hits] { ++hits; });
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFunction, MoveOnlyCallable) {
  auto p = std::make_unique<int>(41);
  support::InplaceFunction<int()> f([p = std::move(p)] { return *p + 1; });
  EXPECT_EQ(f(), 42);
}

TEST(InplaceFunction, MoveTransfersState) {
  int hits = 0;
  support::InplaceFunction<void()> a([&hits] { ++hits; });
  support::InplaceFunction<void()> b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move empty
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
  support::InplaceFunction<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFunction, OversizedCallableBoxes) {
  // Capture larger than the 24-byte capacity: falls back to one heap box
  // but behaves identically.
  std::array<std::uint64_t, 16> big{};
  big[0] = 5;
  big[15] = 6;
  support::InplaceFunction<std::uint64_t(), 24> f(
      [big] { return big[0] + big[15]; });
  EXPECT_EQ(f(), 11u);
  auto moved = std::move(f);
  EXPECT_EQ(moved(), 11u);
}

TEST(InplaceFunction, NonTrivialCapturesDestroyed) {
  auto token = std::make_shared<int>(0);
  EXPECT_EQ(token.use_count(), 1);
  {
    support::InplaceFunction<void()> f([token] {});
    EXPECT_EQ(token.use_count(), 2);
    f.reset();  // reset must run the capture's destructor immediately
    EXPECT_EQ(token.use_count(), 1);
    f = [token] {};
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // wrapper destructor releases too
}

TEST(InplaceFunction, EmplaceReplacesHeldCallable) {
  support::InplaceFunction<int()> f([] { return 1; });
  f.emplace([] { return 2; });
  EXPECT_EQ(f(), 2);
}

TEST(InplaceFunction, TrivialCallableMoveIsExact) {
  // Trivially-copyable callables take the manager-free path (bytes are
  // state); a moved-to wrapper must reproduce the captured values.
  struct Pod {
    std::uint64_t a, b, c;
    std::uint64_t operator()() const { return a + b + c; }
  };
  support::InplaceFunction<std::uint64_t()> f(Pod{10, 20, 30});
  auto g = std::move(f);
  EXPECT_EQ(g(), 60u);
}

TEST(InplaceFunction, ArgumentsAndReturn) {
  support::InplaceFunction<int(int, int)> f([](int a, int b) { return a * b; });
  EXPECT_EQ(f(6, 7), 42);
}

}  // namespace
}  // namespace dlt
