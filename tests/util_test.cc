#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace csd {
namespace {

// --- Status / Result ------------------------------------------------------

TEST(CheckedOffsetTest, NarrowsEveryRepresentableOffset) {
  EXPECT_EQ(CheckedOffset32(0), 0u);
  EXPECT_EQ(CheckedOffset32(53'700'000), 53'700'000u);
  EXPECT_EQ(CheckedOffset32(UINT32_MAX), UINT32_MAX);
}

TEST(CheckedOffsetTest, AbortsInsteadOfWrapping) {
  EXPECT_DEATH(CheckedOffset32(size_t{UINT32_MAX} + 1), "overflows uint32_t");
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad radius");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad radius");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad radius");
}

TEST(StatusTest, UnavailableIsTheOverloadStatus) {
  Status s = Status::Unavailable("annotate queue full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "Unavailable: annotate queue full");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDeadlineExceeded); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, DeadlineExceededIsTheExpiryStatus) {
  Status s = Status::DeadlineExceeded("request budget spent");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: request budget spent");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailingStep() { return Status::IoError("disk on fire"); }

Status UsesReturnNotOk() {
  CSD_RETURN_NOT_OK(FailingStep());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_EQ(UsesReturnNotOk().code(), StatusCode::kIoError);
}

Result<int> ProducesInt() { return 7; }

Status UsesAssignOrReturn(int* out) {
  CSD_ASSIGN_OR_RETURN(*out, ProducesInt());
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnAssigns) {
  int out = 0;
  ASSERT_TRUE(UsesAssignOrReturn(&out).ok());
  EXPECT_EQ(out, 7);
}

// --- Strings ----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto fields = SplitString("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(StringsTest, SplitSingleField) {
  auto fields = SplitString("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(TrimString("  x y\t\n"), "x y");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString(" \t "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e3 ").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("12abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("-42").value(), -42);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, CategoricalZeroWeightsFallsBackToUniform) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 3000; ++i) hits[rng.Categorical(weights)]++;
  for (int h : hits) EXPECT_GT(h, 500);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng a(5);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace csd
