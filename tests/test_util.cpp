#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/int128.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace goc {
namespace {

// ---------------------------------------------------------------- int128

TEST(Int128, ToString) {
  EXPECT_EQ(to_string(static_cast<i128>(0)), "0");
  EXPECT_EQ(to_string(static_cast<i128>(-42)), "-42");
  i128 big = 1;
  for (int i = 0; i < 30; ++i) big *= 10;
  EXPECT_EQ(to_string(big), "1000000000000000000000000000000");
  EXPECT_EQ(to_string(kI128Min),
            "-170141183460469231731687303715884105728");
}

TEST(Int128, Gcd) {
  EXPECT_EQ(gcd128(0, 5), 5u);
  EXPECT_EQ(gcd128(5, 0), 5u);
  EXPECT_EQ(gcd128(12, 18), 6u);
  EXPECT_EQ(gcd128(17, 13), 1u);
  const u128 big = static_cast<u128>(1) << 100;
  EXPECT_EQ(gcd128(big, big >> 3), big >> 3);
}

TEST(Int128, CheckedOpsThrowOnOverflow) {
  EXPECT_THROW(checked_add(kI128Max, 1), OverflowError);
  EXPECT_THROW(checked_mul(kI128Max, 2), OverflowError);
  EXPECT_EQ(checked_add(1, 2), 3);
  EXPECT_EQ(checked_mul(static_cast<i128>(1) << 60, 4),
            static_cast<i128>(1) << 62);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRangeAndCoversSupport) {
  Rng rng(7);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next_below(5);
    ASSERT_LT(v, 5u);
    ++seen[v];
  }
  for (const int c : seen) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.08);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.08);
}

TEST(Rng, ParetoTailAndSupport) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.pareto(1.0, 2.0);
    ASSERT_GE(v, 1.0);
    stats.add(v);
  }
  // Pareto(1, 2) mean = 2.
  EXPECT_NEAR(stats.mean(), 2.0, 0.15);
}

TEST(Rng, ZipfRanksSkewed) {
  Rng rng(23);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t r = rng.zipf(10, 1.0);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 10u);
    ++counts[r];
  }
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[1], 4 * counts[10]);
}

TEST(Rng, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, SplitIndependence) {
  Rng parent(37);
  Rng child = parent.split();
  // The child stream should not replicate the parent stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(Sample, Percentiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
}

TEST(Sample, PercentileErrors) {
  Sample s;
  EXPECT_THROW(s.percentile(50), std::invalid_argument);
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
}

TEST(Sample, SummaryMentionsAllFields) {
  Sample s;
  s.add(1.0);
  s.add(2.0);
  const std::string text = s.summary();
  for (const char* field : {"mean=", "sd=", "p50=", "p95=", "min=", "max=", "n=2"}) {
    EXPECT_NE(text.find(field), std::string::npos) << field;
  }
}

// ---------------------------------------------------------------- table

TEST(Table, AsciiAlignment) {
  Table t({"name", "value"});
  t.row() << "alpha" << 1;
  t.row() << "b" << 22;
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW((t.row() << "x"), std::invalid_argument);  // commits short row
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.add_row({"plain"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_group(1234567), "1_234_567");
  EXPECT_EQ(fmt_group(123), "123");
}

// ---------------------------------------------------------------- cli

TEST(Cli, ParsesAllForms) {
  // Note: a bare `--flag value` form would bind the value; boolean flags
  // must be followed by another option or the end of the command line.
  const char* argv[] = {"prog",         "--alpha=3", "--beta", "7",
                        "--gamma=x,y",  "positional", "--flag"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_i64("alpha", 0), 3);
  EXPECT_EQ(cli.get_i64("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_string("gamma", ""), "x,y");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_i64("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, TypeErrors) {
  const char* argv[] = {"prog",         "--n=abc",
                        "--b=maybe",    "--neg=-5",
                        "--junk=12abc", "--huge=99999999999999999999",
                        "--ijunk=7x",   "--djunk=1.5s",
                        "--ok=42"};
  Cli cli(9, argv);
  EXPECT_THROW(cli.get_i64("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("b", false), std::invalid_argument);
  // Unsigned flags reject a sign, trailing junk and overflow.
  for (const char* name : {"neg", "junk", "huge", "n"}) {
    try {
      cli.get_u64(name, 0);
      ADD_FAILURE() << "--" << name << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("--") + name),
                std::string::npos)
          << error.what();
    }
  }
  // Signed and floating-point flags reject trailing junk.
  EXPECT_THROW(cli.get_i64("ijunk", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_i64("huge", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("djunk", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("junk", 0.0), std::invalid_argument);
  EXPECT_EQ(cli.get_i64("neg", 0), -5);
  EXPECT_EQ(cli.get_u64("ok", 0), 42u);
  EXPECT_EQ(cli.get_double("ok", 0.0), 42.0);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--t1", "--t2=true", "--t3=1",
                        "--f1=false", "--f2=0", "--f3=no"};
  Cli cli(7, argv);
  EXPECT_TRUE(cli.get_bool("t1", false));
  EXPECT_TRUE(cli.get_bool("t2", false));
  EXPECT_TRUE(cli.get_bool("t3", false));
  EXPECT_FALSE(cli.get_bool("f1", true));
  EXPECT_FALSE(cli.get_bool("f2", true));
  EXPECT_FALSE(cli.get_bool("f3", true));
}

}  // namespace
}  // namespace goc
