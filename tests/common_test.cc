// Unit tests for the common substrate: Status/Result error handling,
// string utilities, and the deterministic PRNG.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace xsdf {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::Corruption("bad record");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "bad record");
  EXPECT_EQ(status.ToString(), "Corruption: bad record");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status {
    XSDF_RETURN_IF_ERROR(Status::Internal("boom"));
    return Status::Ok();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
  auto succeeds = []() -> Status {
    XSDF_RETURN_IF_ERROR(Status::Ok());
    return Status::NotFound("reached");
  };
  EXPECT_EQ(succeeds().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "payload");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("inner");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    XSDF_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(outer(false).value(), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

TEST(StringsTest, StrSplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, StrSplitAnyDropsEmpties) {
  EXPECT_EQ(StrSplitAny("a, b;;c", ", ;"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(StrSplitAny(",,,", ",").empty());
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"only"}, "-"), "only");
}

TEST(StringsTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("MiXeD 123 CASE"), "mixed 123 case");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hello \t\n"), "hello");
  EXPECT_EQ(StripWhitespace("\n\t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", ".xml"));
}

TEST(StringsTest, IsAlphaOnly) {
  EXPECT_TRUE(IsAlphaOnly("word"));
  EXPECT_FALSE(IsAlphaOnly("word1"));
  EXPECT_FALSE(IsAlphaOnly(""));
  EXPECT_FALSE(IsAlphaOnly("two words"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%05d-%s", 42, "x"), "00042-x");
  EXPECT_EQ(StrFormat("%.3f", 0.5), "0.500");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

/// What std::to_chars prints for `value` at four fixed decimals.
std::string ToCharsFixed4(double value) {
  char digits[400];
  const std::to_chars_result printed = std::to_chars(
      digits, digits + sizeof(digits), value, std::chars_format::fixed, 4);
  return std::string(digits, printed.ptr);
}

::testing::AssertionResult Fixed4MatchesToChars(double value) {
  std::string out = "x";  // AppendFixed4 appends
  AppendFixed4(&out, value);
  if (out == "x" + ToCharsFixed4(value)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << value << ": AppendFixed4 printed "
         << out.substr(1) << ", to_chars " << ToCharsFixed4(value);
}

// The score formatter's integer path must print what to_chars prints.
TEST(StringsTest, AppendFixed4MatchesToCharsOnRandomDoubles) {
  Rng rng(20241018);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(Fixed4MatchesToChars(2.0 * rng.UniformDouble()));
  }
}

// Odd multiples of 1/32 are the values whose fourth decimal is an
// exact tie (0.03125 -> 312.5 ten-thousandths): to_chars rounds them
// half to even. Their neighbours sit just either side of the tie.
TEST(StringsTest, AppendFixed4MatchesToCharsAtExactTies) {
  for (int k = 1; k < 64; k += 2) {
    const double tie = k / 32.0;
    EXPECT_TRUE(Fixed4MatchesToChars(tie));
    double below = tie;
    double above = tie;
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 2.0);
      EXPECT_TRUE(Fixed4MatchesToChars(below));
      EXPECT_TRUE(Fixed4MatchesToChars(above));
    }
  }
  EXPECT_EQ(ToCharsFixed4(0.03125), "0.0312");
  EXPECT_EQ(ToCharsFixed4(0.09375), "0.0938");
}

TEST(StringsTest, AppendFixed4MatchesToCharsAtTheEdges) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, -1e-9, -0.00005, -0.5, -1.0, -123.45678,
      1e-300, std::numeric_limits<double>::denorm_min(), 0.00005, 0.99995,
      1000.0, 1e300, inf, -inf, std::numeric_limits<double>::quiet_NaN()};
  for (double edge : {999.99995, 1000.0}) {
    double below = edge;
    double above = edge;
    values.push_back(edge);
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 2000.0);
      values.push_back(below);
      values.push_back(above);
    }
  }
  for (double value : values) EXPECT_TRUE(Fixed4MatchesToChars(value));
  std::string out;
  AppendFixed4(&out, 0.5);
  AppendFixed4(&out, -0.0);
  AppendFixed4(&out, 999.99995);
  EXPECT_EQ(out, "0.5000-0.00001000.0000");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(10), 10u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // every value hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

}  // namespace
}  // namespace xsdf
