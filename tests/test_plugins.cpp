// Tests for the input plug-ins and their structural indexes (Table 2 API).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/datagen/spam.h"
#include "src/datagen/tpch.h"
#include "src/plugins/binary_plugins.h"
#include "src/plugins/csv_plugin.h"
#include "src/plugins/json_plugin.h"
#include "src/storage/bincol_format.h"
#include "src/storage/binrow_format.h"
#include "src/storage/text_writers.h"

namespace proteus {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

RowTable FlatTable() {
  RowTable t(Type::Record({{"k", Type::Int64()},
                           {"v", Type::Float64()},
                           {"name", Type::String()}}));
  t.Append({Value::Int(10), Value::Float(0.5), Value::Str("ten")});
  t.Append({Value::Int(20), Value::Float(1.5), Value::Str("twenty")});
  t.Append({Value::Int(30), Value::Float(2.5), Value::Str("thirty")});
  return t;
}

DatasetInfo FlatInfo(DataFormat fmt, const std::string& path) {
  DatasetInfo info;
  info.name = "flat_" + std::string(DataFormatName(fmt));
  info.format = fmt;
  info.path = path;
  info.type = Type::Collection(CollectionKind::kBag, FlatTable().record_type());
  return info;
}

// ---------------------------------------------------------------------------
// Binary plug-ins
// ---------------------------------------------------------------------------

TEST(BinColPlugin, ReadsValuesByOid) {
  std::string dir = testing::TempDir() + "/p_bincol";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.NumRecords(), 3u);
  EXPECT_EQ(p.ReadValue(1, {"k"})->i(), 20);
  EXPECT_DOUBLE_EQ(p.ReadValue(2, {"v"})->f(), 2.5);
  EXPECT_EQ(p.ReadValue(0, {"name"})->s(), "ten");
  EXPECT_FALSE(p.ReadValue(0, {"missing"}).ok());
  EXPECT_FALSE(p.ReadValue(0, {"a", "b"}).ok());  // flat format
}

TEST(BinColPlugin, StatsMinMax) {
  std::string dir = testing::TempDir() + "/p_bincol_stats";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  StatsStore store;
  ASSERT_TRUE(p.CollectStats(&store).ok());
  const auto ds = store.Find(p.info().name);
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->cardinality, 3u);
  EXPECT_DOUBLE_EQ(ds->columns.at("k").min, 10.0);
  EXPECT_DOUBLE_EQ(ds->columns.at("k").max, 30.0);
  EXPECT_DOUBLE_EQ(ds->columns.at("v").max, 2.5);
}

TEST(BinRowPlugin, ReadsValuesByOid) {
  std::string path = testing::TempDir() + "/p.binrow";
  ASSERT_TRUE(WriteBinaryRowFile(path, FlatTable()).ok());
  BinRowPlugin p(FlatInfo(DataFormat::kBinaryRow, path));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.NumRecords(), 3u);
  EXPECT_EQ(p.ReadValue(2, {"k"})->i(), 30);
  EXPECT_EQ(p.ReadValue(1, {"name"})->s(), "twenty");
  std::remove(path.c_str());
}

TEST(InputPlugin, ReadRecordProjectsRequestedFields) {
  std::string dir = testing::TempDir() + "/p_bincol_rec";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  ASSERT_TRUE(p.Open().ok());
  auto rec = p.ReadRecord(1, {{"name"}, {"k"}});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->record().names.size(), 2u);
  EXPECT_EQ(rec->GetField("name")->s(), "twenty");
  EXPECT_EQ(rec->GetField("k")->i(), 20);
  EXPECT_FALSE(rec->GetField("v").ok());  // not requested
}

// ---------------------------------------------------------------------------
// CSV plug-in
// ---------------------------------------------------------------------------

class CsvPluginTest : public ::testing::Test {
 protected:
  std::string WriteVarWidthCsv() {
    std::string path = testing::TempDir() + "/var.csv";
    std::ofstream f(path);
    f << "1,0.5,ten\n22,1.25,twenty two\n333,2.5,three thirty three\n";
    return path;
  }
};

TEST_F(CsvPluginTest, VariableWidthUsesSamples) {
  auto info = FlatInfo(DataFormat::kCSV, WriteVarWidthCsv());
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.fixed_width());
  EXPECT_EQ(p.NumRecords(), 3u);
  EXPECT_EQ(p.ReadValue(0, {"k"})->i(), 1);
  EXPECT_EQ(p.ReadValue(2, {"k"})->i(), 333);
  EXPECT_DOUBLE_EQ(p.ReadValue(1, {"v"})->f(), 1.25);
  EXPECT_EQ(p.ReadValue(2, {"name"})->s(), "three thirty three");
  EXPECT_GT(p.StructuralIndexBytes(), 0u);
}

TEST_F(CsvPluginTest, FixedWidthDropsIndex) {
  std::string path = testing::TempDir() + "/fixed.csv";
  {
    std::ofstream f(path);
    f << "11,1.5,aa\n22,2.5,bb\n33,3.5,cc\n";
  }
  auto info = FlatInfo(DataFormat::kCSV, path);
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_TRUE(p.fixed_width());
  EXPECT_EQ(p.ReadValue(1, {"k"})->i(), 22);
  EXPECT_EQ(p.ReadValue(2, {"name"})->s(), "cc");
  std::remove(path.c_str());
}

TEST_F(CsvPluginTest, HeaderSkipped) {
  std::string path = testing::TempDir() + "/hdr.csv";
  {
    std::ofstream f(path);
    f << "k,v,name\n1,0.5,x\n2,1.5,y\n";
  }
  auto info = FlatInfo(DataFormat::kCSV, path);
  info.csv.has_header = true;
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.NumRecords(), 2u);
  EXPECT_EQ(p.ReadValue(0, {"k"})->i(), 1);
  std::remove(path.c_str());
}

TEST_F(CsvPluginTest, ArityMismatchFails) {
  std::string path = testing::TempDir() + "/bad.csv";
  {
    std::ofstream f(path);
    f << "1,0.5\n";  // schema expects 3 fields
  }
  CsvPlugin p(FlatInfo(DataFormat::kCSV, path));
  EXPECT_FALSE(p.Open().ok());
  std::remove(path.c_str());
}

TEST_F(CsvPluginTest, StrideOneIndexesEveryField) {
  auto info = FlatInfo(DataFormat::kCSV, WriteVarWidthCsv());
  info.csv.index_stride = 1;
  CsvPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.ReadValue(1, {"name"})->s(), "twenty two");
}

TEST_F(CsvPluginTest, EmptyCellIsNull) {
  std::string path = testing::TempDir() + "/nulls.csv";
  {
    std::ofstream f(path);
    f << "1,,x\n2,1.5,\n";
  }
  CsvPlugin p(FlatInfo(DataFormat::kCSV, path));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_TRUE(p.ReadValue(0, {"v"})->is_null());
  EXPECT_TRUE(p.ReadValue(1, {"name"})->is_null());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// JSON plug-in
// ---------------------------------------------------------------------------

TEST(ParseJson, Primitives) {
  auto check = [](const std::string& text, const Value& expected) {
    auto v = ParseJsonValue(text.data(), text.data() + text.size());
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_TRUE(v->Equals(expected)) << text << " -> " << v->ToString();
  };
  check("42", Value::Int(42));
  check("-3.5", Value::Float(-3.5));
  check("1e3", Value::Float(1000.0));
  check("true", Value::Boolean(true));
  check("null", Value::Null());
  check("\"hi\\nthere\"", Value::Str("hi\nthere"));
  check("[1,2,3]", Value::MakeList({Value::Int(1), Value::Int(2), Value::Int(3)}));
  check("{\"a\":1}", Value::MakeRecord({"a"}, {Value::Int(1)}));
}

TEST(ParseJson, RejectsMalformed) {
  auto bad = [](const std::string& text) {
    auto v = ParseJsonValue(text.data(), text.data() + text.size());
    EXPECT_FALSE(v.ok()) << text;
  };
  bad("{\"a\":}");
  bad("[1,2");
  bad("\"unterminated");
}

DatasetInfo SpamJsonInfo(const std::string& path) {
  DatasetInfo info;
  info.name = "spam_json";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = datagen::SpamJSONSchema();
  return info;
}

class JsonPluginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = datagen::GenSpamJSON(50, 99);
    path_ = testing::TempDir() + "/spam.json";
  }

  void WriteData(bool shuffle) {
    JSONWriteOptions opts;
    opts.shuffle_field_order = shuffle;
    ASSERT_TRUE(WriteJSONFile(path_, table_, opts).ok());
  }

  RowTable table_;
  std::string path_;
};

TEST_F(JsonPluginTest, FixedSchemaModeDetected) {
  WriteData(/*shuffle=*/false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_TRUE(p.fixed_schema());
  EXPECT_EQ(p.NumRecords(), 50u);
}

TEST_F(JsonPluginTest, ShuffledFieldOrderFallsBackToLevel0) {
  WriteData(/*shuffle=*/true);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.fixed_schema());
  // Values must still resolve correctly despite arbitrary field order.
  for (uint64_t oid = 0; oid < 50; ++oid) {
    EXPECT_EQ(p.ReadValue(oid, {"mail_id"})->i(), table_.row(oid)[0].i());
  }
}

TEST_F(JsonPluginTest, ReadsTopLevelAndNestedFields) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  for (uint64_t oid = 0; oid < 50; ++oid) {
    EXPECT_EQ(p.ReadValue(oid, {"lang"})->s(), table_.row(oid)[1].s());
    EXPECT_EQ(p.ReadValue(oid, {"body_len"})->i(), table_.row(oid)[4].i());
    // Nested record path (Level 0 registers origin.country directly).
    EXPECT_EQ(p.ReadValue(oid, {"origin", "country"})->s(),
              table_.row(oid)[6].GetField("country")->s());
  }
}

TEST_F(JsonPluginTest, UnnestIteratesArrayElements) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  for (uint64_t oid = 0; oid < 50; ++oid) {
    auto cur = p.UnnestInit(oid, {"classes"});
    ASSERT_TRUE(cur.ok());
    const ValueList& expected = table_.row(oid)[7].list();
    size_t n = 0;
    while ((*cur)->HasNext()) {
      auto v = (*cur)->GetNext();
      ASSERT_TRUE(v.ok());
      EXPECT_TRUE(v->Equals(expected[n])) << v->ToString();
      ++n;
    }
    EXPECT_EQ(n, expected.size());
  }
}

TEST_F(JsonPluginTest, UnnestOnNonArrayFails) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.UnnestInit(0, {"lang"}).ok());
}

TEST_F(JsonPluginTest, MissingFieldIsNotFound) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  auto v = p.ReadValue(0, {"no_such_field"});
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST_F(JsonPluginTest, IndexSmallerThanFile) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  EXPECT_GT(p.StructuralIndexBytes(), 0u);
  // The paper reports index sizes of ~15-25% of the JSON file.
  EXPECT_LT(p.StructuralIndexBytes(), p.file().size());
}

TEST_F(JsonPluginTest, ReadRecordReconstructsNestedShape) {
  WriteData(false);
  JsonPlugin p(SpamJsonInfo(path_));
  ASSERT_TRUE(p.Open().ok());
  auto rec = p.ReadRecord(3, {{"mail_id"}, {"origin", "country"}});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->GetField("mail_id")->i(), table_.row(3)[0].i());
  auto origin = rec->GetField("origin");
  ASSERT_TRUE(origin.ok());
  EXPECT_EQ(origin->GetField("country")->s(), table_.row(3)[6].GetField("country")->s());
}

TEST(JsonPluginEdge, MalformedObjectFailsValidation) {
  std::string path = testing::TempDir() + "/badobj.json";
  {
    std::ofstream f(path);
    f << "{\"a\": 1}\n{\"a\": }\n";
  }
  DatasetInfo info;
  info.name = "bad";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = Type::BagOfRecords({{"a", Type::Int64()}});
  JsonPlugin p(info);
  EXPECT_FALSE(p.Open().ok());
  std::remove(path.c_str());
}

TEST(JsonPluginEdge, OptionalFieldsVaryAcrossObjects) {
  // The paper stresses JSON schema flexibility: optional fields.
  std::string path = testing::TempDir() + "/optional.json";
  {
    std::ofstream f(path);
    f << "{\"a\": 1, \"b\": 2}\n{\"a\": 3}\n{\"b\": 4, \"a\": 5}\n";
  }
  DatasetInfo info;
  info.name = "optional";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = Type::BagOfRecords({{"a", Type::Int64()}, {"b", Type::Int64()}});
  JsonPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  EXPECT_FALSE(p.fixed_schema());
  EXPECT_EQ(p.ReadValue(0, {"b"})->i(), 2);
  EXPECT_FALSE(p.ReadValue(1, {"b"}).ok());  // absent
  EXPECT_EQ(p.ReadValue(2, {"a"})->i(), 5);
  std::remove(path.c_str());
}

// The element-field finder generated unnest loops use: one scan locates
// every name, a name inside a string value or a nested object is no match,
// the first occurrence wins, and the value spans and types come back
// exactly.
TEST(JsonPluginEdge, FindJsonFieldsReadsTopLevelFieldsOnly) {
  const std::string obj = R"({"s": "w\": 1", "o": {"w": 2}, "w": [3, 4], "n": null, "w": 5})";
  const char* b = obj.data();
  const char* e = b + obj.size();
  const std::string_view names[] = {"w", "n", "s", "x"};
  JsonSpan out[4]{};
  FindJsonFields(b, e, names, 4, out);
  EXPECT_EQ(std::string(out[0].begin, out[0].end), "[3, 4]");
  EXPECT_EQ(out[0].type, JsonTokenType::kArray);
  ASSERT_NE(out[1].begin, nullptr);
  EXPECT_EQ(out[1].type, JsonTokenType::kNull);
  EXPECT_EQ(out[2].type, JsonTokenType::kString);
  EXPECT_EQ(UnescapeJsonString(out[2].begin + 1, out[2].end - 1), "w\": 1");
  EXPECT_EQ(out[3].begin, nullptr);
  EXPECT_EQ(out[3].type, JsonTokenType::kNull);
  const std::string scalar = "7";
  FindJsonFields(scalar.data(), scalar.data() + 1, names, 1, out);
  EXPECT_EQ(out[0].begin, nullptr);
}

// The one record assembler: paths sharing a prefix nest into one record at
// every depth, a whole-prefix path wins over deeper ones, and a NotFound
// leaf binds null.
TEST(AssembleRecord, NestsSharedPrefixesRecursively) {
  const std::vector<FieldPath> fields = {
      {"o", "p", "x"}, {"id"}, {"o", "p", "y"}, {"o", "q"}, {"gone"}, {"r"}, {"r", "z"}};
  auto read = [](const FieldPath& p) -> Result<Value> {
    if (p == FieldPath{"gone"}) return Status::NotFound("absent");
    if (p == FieldPath{"r"}) return Value::MakeRecord({"z"}, {Value::Int(9)});
    return Value::Str(DottedPath(p));
  };
  auto rec = AssembleRecord(fields, read);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->ToString(),
            Value::MakeRecord(
                {"o", "id", "gone", "r"},
                {Value::MakeRecord(
                     {"p", "q"},
                     {Value::MakeRecord({"x", "y"}, {Value::Str("o.p.x"), Value::Str("o.p.y")}),
                      Value::Str("o.q")}),
                 Value::Str("id"), Value::Null(), Value::MakeRecord({"z"}, {Value::Int(9)})})
                .ToString());
  auto failed = AssembleRecord({{"a"}}, [](const FieldPath&) -> Result<Value> {
    return Status::ParseError("bad token");
  });
  EXPECT_EQ(failed.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Plug-in registry + Table 2 defaults
// ---------------------------------------------------------------------------

TEST(PluginRegistry, OpensOnceAndCollectsStats) {
  std::string dir = testing::TempDir() + "/reg_bincol";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  auto info = FlatInfo(DataFormat::kBinaryColumn, dir);
  PluginRegistry reg;
  StatsStore stats;
  auto p1 = reg.GetOrOpen(info, &stats);
  ASSERT_TRUE(p1.ok());
  auto p2 = reg.GetOrOpen(info, &stats);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, *p2);  // same instance, index kept alive
  EXPECT_NE(stats.Find(info.name), nullptr);
  EXPECT_EQ(stats.Find(info.name)->cardinality, 3u);
}

TEST(PluginDefaults, HashAndFlush) {
  std::string dir = testing::TempDir() + "/hf_bincol";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  BinColPlugin p(FlatInfo(DataFormat::kBinaryColumn, dir));
  ASSERT_TRUE(p.Open().ok());
  auto h = p.HashValue(0, {"k"});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, Value::Int(10).Hash());
  std::string out;
  ASSERT_TRUE(p.FlushValue(0, {"name"}, &out).ok());
  EXPECT_EQ(out, "\"ten\"");
}

TEST(PathHelpers, DottedRoundTrip) {
  FieldPath p{"origin", "country"};
  EXPECT_EQ(DottedPath(p), "origin.country");
  EXPECT_EQ(SplitPath("origin.country"), p);
  EXPECT_EQ(SplitPath("plain"), FieldPath{"plain"});
}

}  // namespace
}  // namespace proteus
