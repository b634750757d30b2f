// Unit and property tests for the util substrate: RNG, special functions,
// small linear algebra, LogNumber, binary packing, channels, CLI parsing.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <set>
#include <thread>

#ifndef __has_feature
#define __has_feature(x) 0  // GCC spells the sanitizers __SANITIZE_*__
#endif

#include "util/channel.hpp"
#include "util/cli.hpp"
#include "util/linalg.hpp"
#include "util/lognumber.hpp"
#include "util/packer.hpp"
#include "util/rng.hpp"
#include "util/special.hpp"

namespace fdml {
namespace {

TEST(Rng, AdjustUserSeedMakesSeedsOdd) {
  EXPECT_EQ(adjust_user_seed(0), 1u);
  EXPECT_EQ(adjust_user_seed(2), 3u);
  EXPECT_EQ(adjust_user_seed(7), 7u);
  EXPECT_EQ(adjust_user_seed(123456), 123457u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BelowIsUnbiasedAcrossRange) {
  Rng rng(11);
  std::array<int, 5> counts{};
  for (int i = 0; i < 50000; ++i) counts[rng.below(5)] += 1;
  for (int c : counts) EXPECT_NEAR(c, 10000, 450);
}

TEST(Rng, ExponentialHasExpectedMean) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 50000.0, 0.5, 0.02);
}

TEST(Rng, GammaHasExpectedMeanAndVariance) {
  Rng rng(5);
  const double shape = 2.5;
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(shape);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, shape, 0.06);
  EXPECT_NEAR(var, shape, 0.25);
}

TEST(Rng, GammaSmallShape) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.gamma(0.4);
  EXPECT_NEAR(sum / n, 0.4, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::multiset<int> sv(v.begin(), v.end());
  std::multiset<int> sw(w.begin(), w.end());
  EXPECT_EQ(sv, sw);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng rng(23);
  Rng child = rng.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (rng() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(31);
  std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 40000; ++i) {
    if (rng.categorical(weights) == 1) ++ones;
  }
  EXPECT_NEAR(ones / 40000.0, 0.75, 0.02);
}

// --- special functions ---

TEST(Special, GammaPKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
  // P(0.5, x) = erf(sqrt(x)).
  for (double x : {0.2, 1.0, 3.0}) {
    EXPECT_NEAR(gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-10);
  }
}

TEST(Special, GammaPIsMonotoneCdf) {
  double prev = 0.0;
  for (double x = 0.0; x < 12.0; x += 0.25) {
    const double p = gamma_p(2.3, x);
    EXPECT_GE(p, prev - 1e-15);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_NEAR(gamma_p(2.3, 200.0), 1.0, 1e-12);
}

class GammaInverseRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(GammaInverseRoundTrip, InverseThenForwardIsIdentity) {
  const double shape = GetParam();
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = gamma_p_inverse(shape, p);
    EXPECT_NEAR(gamma_p(shape, x), p, 1e-8)
        << "shape=" << shape << " p=" << p << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaInverseRoundTrip,
                         ::testing::Values(0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 20.0));

TEST(Special, ChiSquareQuantileMatchesTables) {
  // Classic table values: chi2(0.95, 1) = 3.841, chi2(0.95, 10) = 18.307.
  EXPECT_NEAR(chi_square_quantile(0.95, 1), 3.841, 5e-3);
  EXPECT_NEAR(chi_square_quantile(0.95, 10), 18.307, 5e-3);
  EXPECT_NEAR(chi_square_quantile(0.99, 5), 15.086, 5e-3);
}

TEST(Special, LogDoubleFactorialSmallCases) {
  // 5!! = 15, 7!! = 105, 6!! = 48.
  EXPECT_NEAR(std::exp(log_double_factorial(5)), 15.0, 1e-9);
  EXPECT_NEAR(std::exp(log_double_factorial(7)), 105.0, 1e-9);
  EXPECT_NEAR(std::exp(log_double_factorial(6)), 48.0, 1e-9);
  EXPECT_NEAR(std::exp(log_double_factorial(1)), 1.0, 1e-12);
}

// --- linear algebra ---

TEST(Linalg, IdentityAndMultiply) {
  const Mat4 identity = mat4_identity();
  Mat4 a{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) a[i][j] = i * 4 + j + 1;
  }
  EXPECT_EQ(mat4_max_abs_diff(mat4_mul(a, identity), a), 0.0);
  EXPECT_EQ(mat4_max_abs_diff(mat4_mul(identity, a), a), 0.0);
}

TEST(Linalg, ExpmOfZeroIsIdentity) {
  const Mat4 zero{};
  EXPECT_LT(mat4_max_abs_diff(mat4_expm(zero), mat4_identity()), 1e-14);
}

TEST(Linalg, ExpmOfDiagonal) {
  Mat4 d{};
  d[0][0] = 1.0;
  d[1][1] = -2.0;
  d[2][2] = 0.5;
  d[3][3] = 0.0;
  const Mat4 e = mat4_expm(d);
  EXPECT_NEAR(e[0][0], std::exp(1.0), 1e-12);
  EXPECT_NEAR(e[1][1], std::exp(-2.0), 1e-12);
  EXPECT_NEAR(e[2][2], std::exp(0.5), 1e-12);
  EXPECT_NEAR(e[3][3], 1.0, 1e-12);
  EXPECT_NEAR(e[0][1], 0.0, 1e-14);
}

TEST(Linalg, JacobiRecoversSymmetricMatrix) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    Mat4 sym{};
    for (int i = 0; i < 4; ++i) {
      for (int j = i; j < 4; ++j) {
        sym[i][j] = sym[j][i] = rng.uniform(-2.0, 2.0);
      }
    }
    Vec4 values{};
    Mat4 vectors{};
    jacobi_eigen_symmetric(sym, values, vectors);
    // Reconstruct V diag(values) V^T.
    Mat4 lv{};
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) lv[i][j] = vectors[i][j] * values[j];
    }
    const Mat4 rebuilt = mat4_mul(lv, mat4_transpose(vectors));
    EXPECT_LT(mat4_max_abs_diff(rebuilt, sym), 1e-10);
    // Eigenvalues sorted descending.
    for (int i = 0; i + 1 < 4; ++i) EXPECT_GE(values[i], values[i + 1]);
    // Vectors orthonormal.
    const Mat4 gram = mat4_mul(mat4_transpose(vectors), vectors);
    EXPECT_LT(mat4_max_abs_diff(gram, mat4_identity()), 1e-10);
  }
}

// --- LogNumber ---

TEST(LogNumber, FormatsModestValues) {
  EXPECT_EQ(LogNumber::from_value(1500.0).to_string(2), "1.5e+03");
  EXPECT_EQ(LogNumber::from_value(2.84e74).to_string(3), "2.84e+74");
}

TEST(LogNumber, HandlesValuesBeyondDouble) {
  // (2*200-5)!! overflows double; the log path must still format.
  LogNumber big = LogNumber::from_log(log_double_factorial(2 * 200 - 5));
  EXPECT_GT(big.log10(), 308.0);
  const std::string s = big.to_string();
  EXPECT_NE(s.find("e+"), std::string::npos);
}

TEST(LogNumber, ArithmeticInLogSpace) {
  const LogNumber a = LogNumber::from_value(1e100);
  const LogNumber b = LogNumber::from_value(1e250);
  EXPECT_NEAR((a * b).log10(), 350.0, 1e-9);
  EXPECT_NEAR((b / a).log10(), 150.0, 1e-9);
  EXPECT_TRUE(a < b);
}

// --- Packer / Unpacker ---

TEST(Packer, RoundTripsAllTypes) {
  Packer packer;
  packer.put_u8(7);
  packer.put_u32(0xdeadbeef);
  packer.put_u64(0x0123456789abcdefULL);
  packer.put_i32(-42);
  packer.put_i64(-1234567890123LL);
  packer.put_f64(3.141592653589793);
  packer.put_bool(true);
  packer.put_string("hello world");

  Unpacker unpacker(packer.data());
  EXPECT_EQ(unpacker.get_u8(), 7);
  EXPECT_EQ(unpacker.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(unpacker.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(unpacker.get_i32(), -42);
  EXPECT_EQ(unpacker.get_i64(), -1234567890123LL);
  EXPECT_EQ(unpacker.get_f64(), 3.141592653589793);
  EXPECT_TRUE(unpacker.get_bool());
  EXPECT_EQ(unpacker.get_string(), "hello world");
  EXPECT_TRUE(unpacker.exhausted());
}

TEST(Packer, TruncatedMessageThrows) {
  Packer packer;
  packer.put_u32(5);
  Unpacker unpacker(packer.data());
  EXPECT_EQ(unpacker.get_u32(), 5u);
  EXPECT_THROW(unpacker.get_u64(), std::out_of_range);
}

TEST(Packer, CorruptStringLengthThrowsBeforeAllocating) {
  // One flipped byte can turn a length prefix into 0xFFFFFFFF. The decoder
  // must reject it against the bytes actually present — specifically with
  // the truncation error, not by first attempting a 4 GB allocation (the
  // reserve-before-validate bug, which surfaced as bad_alloc or an OOM kill
  // under memory pressure instead of a clean protocol error).
  //
  // Overcommitting kernels can let a 4 GB allocation *succeed*, which would
  // mask the bug, so outside sanitizer builds (whose shadow mappings cannot
  // live under an address-space cap) the heap is temporarily capped tightly
  // enough that any corruption-sized allocation fails as bad_alloc — the
  // wrong exception type — instead of quietly succeeding.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
  rlimit previous{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &previous), 0);
  rlimit capped = previous;
  capped.rlim_cur = 4ull << 30;  // no room left for a 4 GB string
  const bool limited = setrlimit(RLIMIT_AS, &capped) == 0;
#endif
  std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF,  // length
                                     1,    2,    3,    4};    // 8 stray bytes
  bytes.resize(12, 0);
  Unpacker unpacker(bytes);
  EXPECT_THROW(unpacker.get_string(), std::out_of_range);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
  if (limited) setrlimit(RLIMIT_AS, &previous);
#endif
}

TEST(Packer, RequireCountGuardsLengthPrefixedLoops) {
  Packer packer;
  packer.put_u32(2);  // a count, then that many doubles
  packer.put_f64(1.0);
  packer.put_f64(2.0);
  Unpacker unpacker(packer.data());
  const std::uint32_t n = unpacker.get_u32();
  EXPECT_NO_THROW(unpacker.require_count(n, 8));
  EXPECT_THROW(unpacker.require_count(n + 1, 8), std::out_of_range);
  // Overflow-adjacent counts must not wrap the byte arithmetic.
  EXPECT_THROW(unpacker.require_count(0xFFFFFFFFu, 8), std::out_of_range);
}

TEST(Packer, NanAndInfinitySurvive) {
  Packer packer;
  packer.put_f64(std::numeric_limits<double>::infinity());
  packer.put_f64(-std::numeric_limits<double>::infinity());
  packer.put_f64(std::nan(""));
  Unpacker unpacker(packer.data());
  EXPECT_TRUE(std::isinf(unpacker.get_f64()));
  EXPECT_TRUE(std::isinf(unpacker.get_f64()));
  EXPECT_TRUE(std::isnan(unpacker.get_f64()));
}

// --- Channel ---

TEST(Channel, FifoOrder) {
  Channel<int> ch;
  ch.send(1);
  ch.send(2);
  ch.send(3);
  EXPECT_EQ(ch.recv(), 1);
  EXPECT_EQ(ch.recv(), 2);
  EXPECT_EQ(ch.recv(), 3);
}

TEST(Channel, RecvForTimesOut) {
  Channel<int> ch;
  const auto result = ch.recv_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(result.has_value());
}

TEST(Channel, CloseDrainsThenReturnsNullopt) {
  Channel<int> ch;
  ch.send(9);
  ch.close();
  EXPECT_FALSE(ch.send(10));
  EXPECT_EQ(ch.recv(), 9);
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(Channel, CrossThreadHandoff) {
  Channel<int> ch;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) ch.send(i);
    ch.close();
  });
  int expected = 0;
  while (auto v = ch.recv()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

// --- CLI ---

TEST(Cli, ParsesAllForms) {
  // Note: a bare --flag followed by a non-dashed token consumes it as the
  // flag's value (the usual greedy rule), so positional args go first.
  const char* argv[] = {"prog",      "positional", "--taxa=50", "--sites",
                        "1858",      "--verbose",  "--procs=4,8,16"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("taxa", 0), 50);
  EXPECT_EQ(args.get_int("sites", 0), 1858);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("quiet"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.get_int_list("procs", {}),
            (std::vector<std::int64_t>{4, 8, 16}));
  EXPECT_EQ(args.get_int_list("absent", {1, 2}),
            (std::vector<std::int64_t>{1, 2}));
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
}

TEST(Cli, FlagConsumesFollowingValueToken) {
  const char* argv[] = {"prog", "--mode", "fast", "--flag"};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get("mode", ""), "fast");
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_TRUE(args.positional().empty());
}

}  // namespace
}  // namespace fdml
