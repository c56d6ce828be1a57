// Unit tests for the support module: JSON, RNG, stats, argparse, tables,
// timers, error checks.

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "support/argparse.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/timer.h"

namespace pbmg {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e9").as_double(), 1e9);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.is_object());
  const auto& arr = doc.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[0].as_int(), 1);
  EXPECT_TRUE(arr[2].at("b").as_bool());
  EXPECT_EQ(doc.at("c").as_string(), "x");
}

TEST(Json, RoundTripsThroughDump) {
  Json obj = Json::object();
  obj.set("name", "pbmg");
  obj.set("level", 9);
  obj.set("ratio", 0.125);
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json());
  obj.set("items", std::move(arr));
  for (int indent : {0, 2}) {
    const Json parsed = Json::parse(obj.dump(indent));
    EXPECT_EQ(parsed, obj) << "indent=" << indent;
  }
}

TEST(Json, EscapesStrings) {
  Json s(std::string("a\"b\\c\nd\te"));
  const Json parsed = Json::parse(s.dump());
  EXPECT_EQ(parsed.as_string(), "a\"b\\c\nd\te");
}

TEST(Json, ParsesUnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ConfigError);
  EXPECT_THROW(Json::parse("{"), ConfigError);
  EXPECT_THROW(Json::parse("[1,]"), ConfigError);
  EXPECT_THROW(Json::parse("{\"a\":}"), ConfigError);
  EXPECT_THROW(Json::parse("tru"), ConfigError);
  EXPECT_THROW(Json::parse("1 2"), ConfigError);
  EXPECT_THROW(Json::parse("{'a': 1}"), ConfigError);
  // Nesting is capped at 256 levels, so a hostile document cannot
  // overflow the parser's stack.
  EXPECT_NO_THROW(Json::parse(std::string(256, '[') + std::string(256, ']')));
  EXPECT_THROW(Json::parse(std::string(257, '[') + std::string(257, ']')),
               ConfigError);
  EXPECT_THROW(Json::parse(std::string(1'000'000, '[')), ConfigError);
}

TEST(Json, TypeMismatchesThrow) {
  const Json doc = Json::parse("{\"a\": 1}");
  EXPECT_THROW(doc.at("a").as_string(), ConfigError);
  EXPECT_THROW(doc.at("missing"), ConfigError);
  EXPECT_THROW(Json(1.5).as_int(), ConfigError);
  EXPECT_EQ(Json(2.0).as_int(), 2);  // integral double converts
  EXPECT_THROW(Json(1e308).as_int(), ConfigError);  // past int64
  EXPECT_THROW(Json(std::int64_t{1} << 32).as_int32(), ConfigError);
  EXPECT_THROW(Json(-(std::int64_t{1} << 31) - 1).as_int32(), ConfigError);
  EXPECT_EQ(Json(-7).as_int32(), -7);
}

TEST(Json, GetWithFallback) {
  const Json doc = Json::parse("{\"x\": 7}");
  EXPECT_EQ(doc.get("x", std::int64_t{0}), 7);
  EXPECT_EQ(doc.get("y", std::int64_t{5}), 5);
  EXPECT_EQ(doc.get("z", std::string("d")), "d");
  EXPECT_EQ(doc.get("w", true), true);
  EXPECT_EQ(doc.get("x", 0), 7);  // int fields read through as_int32
  EXPECT_EQ(doc.get("y", 5), 5);
}

// ----------------------------------------------------------------- RNG --

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true;
  bool any_differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    const auto vb = b.next_u64();
    const auto vc = c.next_u64();
    all_equal = all_equal && (va == vb);
    any_differs_from_c = any_differs_from_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs_from_c);
}

TEST(Rng, Uniform01StaysInRangeAndLooksUniform) {
  Rng rng(7);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-4.0, 9.0);
    ASSERT_GE(v, -4.0);
    ASSERT_LT(v, 9.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), InvalidArgument);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, SplitStreamsAreDecorrelatedAndStable) {
  const Rng base(42);
  Rng s1 = base.split(1);
  Rng s1_again = base.split(1);
  Rng s2 = base.split(2);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  // Streams 1 and 2 should differ immediately with overwhelming probability.
  Rng t1 = base.split(1);
  EXPECT_NE(t1.next_u64(), s2.next_u64());
}

// --------------------------------------------------------------- stats --

TEST(SampleStats, BasicMoments) {
  SampleStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(s.geomean(), std::pow(24.0, 0.25), 1e-12);
}

TEST(SampleStats, PercentileInterpolates) {
  SampleStats s;
  for (double x : {10.0, 20.0, 30.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 15.0);
}

TEST(SampleStats, EmptyAndInvalidInputsThrow) {
  SampleStats s;
  EXPECT_THROW(s.mean(), InvalidArgument);
  EXPECT_THROW(s.median(), InvalidArgument);
  s.add(-1.0);
  EXPECT_THROW(s.geomean(), InvalidArgument);
  EXPECT_THROW(s.percentile(101), InvalidArgument);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {8.0, 16.0, 32.0, 64.0, 128.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 2.5));
  }
  EXPECT_NEAR(log_log_slope(xs, ys), 2.5, 1e-9);
  EXPECT_THROW(log_log_slope({1.0}, {1.0}), InvalidArgument);
  EXPECT_THROW(log_log_slope({1.0, -2.0}, {1.0, 2.0}), InvalidArgument);
}

// ------------------------------------------------------------ argparse --

TEST(ArgParser, ParsesAllFlagKinds) {
  ArgParser parser("prog", "test");
  parser.add_string("name", "default", "a name");
  parser.add_int("count", 3, "a count");
  parser.add_double("ratio", 0.5, "a ratio");
  parser.add_flag("verbose", "chatty");
  const char* argv[] = {"prog",    "--name",    "abc",  "--count=7",
                        "--ratio", "2.25",      "--verbose", "pos1"};
  ASSERT_TRUE(parser.parse(8, argv));
  EXPECT_EQ(parser.get_string("name"), "abc");
  EXPECT_EQ(parser.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 2.25);
  EXPECT_TRUE(parser.get_flag("verbose"));
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "pos1");
}

TEST(ArgParser, DefaultsSurviveWhenUnset) {
  ArgParser parser("prog", "test");
  parser.add_int("n", 10, "n");
  parser.add_flag("quick", "q");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_int("n"), 10);
  EXPECT_FALSE(parser.get_flag("quick"));
}

TEST(ArgParser, HelpRequestedReturnsFalse) {
  ArgParser parser("prog", "test");
  parser.add_int("n", 10, "the n flag");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_NE(parser.help_text().find("--n"), std::string::npos);
}

TEST(ArgParser, RejectsUnknownAndMalformed) {
  ArgParser parser("prog", "test");
  parser.add_int("n", 1, "n");
  {
    const char* argv[] = {"prog", "--bogus", "1"};
    EXPECT_THROW(parser.parse(3, argv), InvalidArgument);
  }
  {
    const char* argv[] = {"prog", "--n", "xyz"};
    EXPECT_THROW(parser.parse(3, argv), InvalidArgument);
  }
  {
    const char* argv[] = {"prog", "--n"};
    EXPECT_THROW(parser.parse(2, argv), InvalidArgument);
  }
  EXPECT_THROW(parser.get_string("n"), InvalidArgument);  // wrong type
}

// --------------------------------------------------------------- table --

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"size", "time"});
  table.add_row({"64", "1.5"});
  table.add_row({"12800", "2.25"});
  const std::string text = table.render();
  EXPECT_NE(text.find("size"), std::string::npos);
  EXPECT_NE(text.find("12800"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, CsvQuotesSpecialCells) {
  TextTable table({"a", "b"});
  table.add_row({"x,y", "he said \"hi\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgument);
}

TEST(Format, Doubles) {
  EXPECT_EQ(format_double(std::nan("")), "n/a");
  EXPECT_EQ(format_double(INFINITY), "inf");
  EXPECT_EQ(format_double(1.5), "1.5");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(2.0), "2.000 s");
  EXPECT_EQ(format_seconds(0.002), "2.000 ms");
  EXPECT_EQ(format_seconds(5e-6), "5.0 us");
}

TEST(Format, Accuracy) {
  EXPECT_EQ(format_accuracy(1e9), "10^9");
  EXPECT_EQ(format_accuracy(10.0), "10^1");
}

// --------------------------------------------------------------- timer --

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  const double t0 = timer.elapsed();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(timer.elapsed(), t0);
  timer.restart();
  EXPECT_LT(timer.elapsed(), 1.0);
}

TEST(Deadline, ExpiresAndUnlimitedNever) {
  Deadline past(-1.0);
  EXPECT_TRUE(past.expired());
  Deadline unlimited = Deadline::unlimited();
  EXPECT_FALSE(unlimited.expired());
  EXPECT_GT(unlimited.remaining(), 1e17);
}

// --------------------------------------------------------------- error --

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    PBMG_CHECK(1 == 2, "custom message");
    FAIL() << "PBMG_CHECK did not throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw ConfigError("x"), Error);
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

}  // namespace
}  // namespace pbmg
