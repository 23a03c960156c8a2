// Unit tests for the common substrate: Status/Result, MmapFile,
// hashing, Value semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "src/common/hash.h"
#include "src/common/mmap_file.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace proteus {
namespace {

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
}

TEST(Result, ValueAndError) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  Result<int> e = Status::NotFound("x");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(e.ValueOr(7), 7);
}

Result<int> Doubler(Result<int> in) {
  PROTEUS_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

TEST(MmapFile, MapsFileContents) {
  std::string path = testing::TempDir() + "/mmap_test.txt";
  {
    std::ofstream f(path);
    f << "hello proteus";
  }
  auto r = MmapFile::Open(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->view(), "hello proteus");
  std::remove(path.c_str());
}

TEST(MmapFile, MissingFileIsIOError) {
  auto r = MmapFile::Open("/nonexistent/file/path");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(MmapFile, EmptyFileOk) {
  std::string path = testing::TempDir() + "/mmap_empty.txt";
  { std::ofstream f(path); }
  auto r = MmapFile::Open(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 0u);
  std::remove(path.c_str());
}

TEST(Hash, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(HashMix64(1), HashMix64(1));
  EXPECT_NE(HashMix64(1), HashMix64(2));
  EXPECT_NE(HashString("abc"), HashString("abd"));
}

TEST(Value, PrimitivesRoundTrip) {
  EXPECT_EQ(Value::Int(5).i(), 5);
  EXPECT_DOUBLE_EQ(Value::Float(2.5).f(), 2.5);
  EXPECT_TRUE(Value::Boolean(true).b());
  EXPECT_EQ(Value::Str("x").s(), "x");
  EXPECT_TRUE(Value::Null().is_null());
}

TEST(Value, RecordFieldAccess) {
  Value r = Value::MakeRecord({"a", "b"}, {Value::Int(1), Value::Str("q")});
  auto a = r.GetField("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->i(), 1);
  EXPECT_FALSE(r.GetField("zzz").ok());
  EXPECT_FALSE(Value::Int(3).GetField("a").ok());
}

TEST(Value, CompareOrdersNumericAndStrings) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Float(2.0)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
}

TEST(Value, EqualsMixedNumeric) {
  EXPECT_TRUE(Value::Int(3).Equals(Value::Float(3.0)));
  EXPECT_FALSE(Value::Int(3).Equals(Value::Str("3")));
  EXPECT_TRUE(Value::MakeList({Value::Int(1)}).Equals(Value::MakeList({Value::Int(1)})));
}

TEST(Value, HashConsistentWithEquals) {
  // Mixed-type numeric equality must imply equal hashes (used by join keys).
  EXPECT_EQ(Value::Int(7).Hash(), Value::Float(7.0).Hash());
  EXPECT_EQ(Value::Str("key").Hash(), Value::Str("key").Hash());
}

TEST(Value, HashOfNonIntegralAndHugeFloats) {
  // NaN, ±inf and magnitudes >= 2^63 have no int64 value: hashing them
  // must not convert (undefined behaviour; checked under
  // -fsanitize=float-cast-overflow), and keys Equals calls equal still
  // hash alike.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value::Float(nan).Hash(), Value::Float(nan).Hash());
  EXPECT_EQ(Value::Float(inf).Hash(), Value::Float(inf).Hash());
  EXPECT_NE(Value::Float(inf).Hash(), Value::Float(-inf).Hash());
  EXPECT_EQ(Value::Float(1e300).Hash(), Value::Float(1e300).Hash());
  EXPECT_NE(Value::Float(1e300).Hash(), Value::Float(-1e300).Hash());
  EXPECT_EQ(Value::Float(0x1p63).Hash(), Value::Float(0x1p63).Hash());
  EXPECT_TRUE(Value::Float(-0.0).Equals(Value::Float(0.0)));
  EXPECT_EQ(Value::Float(-0.0).Hash(), Value::Float(0.0).Hash());
  EXPECT_EQ(Value::Float(-0.0).Hash(), Value::Int(0).Hash());
  EXPECT_TRUE(Value::Float(2.0).Equals(Value::Int(2)));
  EXPECT_EQ(Value::Float(2.0).Hash(), Value::Int(2).Hash());
  EXPECT_EQ(Value::Float(-0x1p63).Hash(), Value::Int(INT64_MIN).Hash());
  // Beyond 2^53 an int equals the double it rounds to: same hash.
  const int64_t big = (int64_t{1} << 53) + 1;
  ASSERT_TRUE(Value::Int(big).Equals(Value::Float(0x1p53)));
  EXPECT_EQ(Value::Int(big).Hash(), Value::Float(0x1p53).Hash());
  EXPECT_EQ(Value::Int(INT64_MAX).Hash(), Value::Float(0x1p63).Hash());
}

TEST(Value, ToStringFormats) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Null().ToString(), "null");
  Value r = Value::MakeRecord({"a"}, {Value::Int(1)});
  EXPECT_EQ(r.ToString(), "{a: 1}");
  EXPECT_EQ(Value::MakeList({Value::Int(1), Value::Int(2)}).ToString(), "[1, 2]");
}

}  // namespace
}  // namespace proteus
