// Tests for the input plug-ins and their structural indexes (Table 2 API).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/datagen/spam.h"
#include "src/datagen/tpch.h"
#include "src/plugins/binary_plugins.h"
#include "src/plugins/csv_plugin.h"
#include "src/plugins/json_plugin.h"
#include "src/storage/bincol_format.h"
#include "src/storage/binrow_format.h"
#include "src/storage/text_writers.h"
#include "tests/engine_test_util.h"

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

TEST(PluginRegistry, LayoutChangeCallbackFiresAtTheReopenThatSeesIt) {
  const std::string dir = testing::TempDir() + "/layout_bincol";
  ASSERT_TRUE(WriteBinaryColumnDir(dir, FlatTable()).ok());
  const auto info = FlatInfo(DataFormat::kBinaryColumn, dir);
  PluginRegistry reg;
  std::vector<std::string> changed;
  reg.set_on_layout_change([&](const std::string& name) { changed.push_back(name); });
  auto first = reg.Layout(info, nullptr);
  ASSERT_TRUE(first.ok());

  // Same header, other rows: same fingerprint, no callback.
  RowTable more = FlatTable();
  more.Append({Value::Int(40), Value::Float(3.5), Value::Str("forty")});
  ASSERT_TRUE(WriteBinaryColumnDir(dir, more).ok());
  reg.Evict(info.name);
  auto same = reg.Layout(info, nullptr);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, *first);
  EXPECT_TRUE(changed.empty());

  // Reordered header: a new fingerprint, reported once, at the reopen.
  RowTable reordered(Type::Record({{"name", Type::String()},
                                   {"k", Type::Int64()},
                                   {"v", Type::Float64()}}));
  const RowTable flat = FlatTable();
  for (const auto& row : flat.rows()) reordered.Append({row[2], row[0], row[1]});
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteBinaryColumnDir(dir, reordered).ok());
  reg.Evict(info.name);
  EXPECT_TRUE(changed.empty()) << "eviction alone reports nothing";
  auto moved = reg.Layout(info, nullptr);
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(*moved, *first);
  EXPECT_EQ(changed, std::vector<std::string>{info.name});
  ASSERT_TRUE(reg.Layout(info, nullptr).ok());
  EXPECT_EQ(changed.size(), 1u) << "an open plug-in is not reopened";
}

// ---------------------------------------------------------------------------
// JSON literals
// ---------------------------------------------------------------------------

TEST(JsonPluginEdge, BadLiteralsFailOpenNamingTheObject) {
  const std::string path = testing::TempDir() + "/bad_literal.json";
  for (const char* bad : {"tru3", "nulx", "fals3", "trux", "nul", "fa"}) {
    for (const char* shape : {"{\"a\":2,\"b\":%s}", "{\"a\":2,\"c\":[1,%s]}",
                              "{\"a\":2,\"n\":{\"x\":%s}}"}) {
      char line[128];
      std::snprintf(line, sizeof(line), shape, bad);
      {
        std::ofstream f(path, std::ios::trunc);
        f << "{\"a\":1,\"b\":true}\n" << line << "\n";
      }
      DatasetInfo info;
      info.name = "bad";
      info.format = DataFormat::kJSON;
      info.path = path;
      info.type = Type::BagOfRecords({{"a", Type::Int64()}, {"b", Type::Bool()}});
      JsonPlugin p(info);
      const Status st = p.Open();
      EXPECT_EQ(st.code(), StatusCode::kParseError) << line << ": " << st.ToString();
      EXPECT_NE(st.message().find("object 1"), std::string::npos) << line << ": " << st.ToString();
    }
  }
}

TEST(JsonPluginEdge, LiteralsAtTheEndOfALine) {
  const std::string path = testing::TempDir() + "/end_literal.json";
  {
    std::ofstream f(path, std::ios::trunc);
    // The last line has no newline: its literal ends the file.
    f << "{\"a\":1,\"b\":true}\n{\"a\":2,\"b\":false}\n{\"a\":3,\"c\":[false,true,null]}\n"
         "{\"a\":4,\"b\":null}";
  }
  DatasetInfo info;
  info.name = "end";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = Type::BagOfRecords({{"a", Type::Int64()},
                                  {"b", Type::Bool()},
                                  {"c", Type::Collection(CollectionKind::kList, Type::Bool())}});
  JsonPlugin p(info);
  ASSERT_TRUE(p.Open().ok());
  ASSERT_EQ(p.NumRecords(), 4u);
  EXPECT_TRUE(p.ReadValue(0, {"b"})->b());
  EXPECT_FALSE(p.ReadValue(1, {"b"})->b());
  EXPECT_TRUE(p.ReadValue(3, {"b"})->is_null());
  EXPECT_EQ(p.ReadValue(3, {"a"})->i(), 4);
  auto c = p.ReadValue(2, {"c"});
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->list().size(), 3u);
  EXPECT_TRUE(c->list()[2].is_null());
}

// ---------------------------------------------------------------------------
// Typed multi-column reads: the same cells, counts and statistics as
// ReadValue and the generic InputPlugin::CollectStats
// ---------------------------------------------------------------------------

/// Every primitive leaf path of `rec` (nested records walked, collections
/// not), in schema order.
void LeafPaths(const Type& rec, FieldPath* prefix, std::vector<FieldPath>* out) {
  for (const auto& f : rec.fields()) {
    prefix->push_back(f.name);
    if (f.type->kind() == TypeKind::kRecord) {
      LeafPaths(*f.type, prefix, out);
    } else if (f.type->is_primitive()) {
      out->push_back(*prefix);
    }
    prefix->pop_back();
  }
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// ReadColumns over every leaf equals ReadValue cell by cell, with the same
/// raw_field_accesses count; the typed CollectStats equals the generic one.
void ExpectTypedReadsMatch(const DatasetInfo& info) {
  SCOPED_TRACE(info.name + " (" + info.path + ")");
  auto made = CreateInputPlugin(info);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  InputPlugin* p = made->get();
  ASSERT_TRUE(p->Open().ok());
  std::vector<FieldPath> paths;
  FieldPath prefix;
  LeafPaths(info.record_type(), &prefix, &paths);
  paths.push_back({"no_such_field"});

  // String views die with the sink call: their bytes and hashes are kept.
  std::vector<std::vector<TypedCell>> rows;
  std::vector<std::vector<std::string>> strs;
  std::vector<std::vector<uint64_t>> hashes;
  const uint64_t before = GlobalCounters().raw_field_accesses;
  const Status st = p->ReadColumns(paths, {0, p->NumRecords()},
                                   [&](uint64_t oid, const TypedCell* cells) {
                                     EXPECT_EQ(oid, rows.size());
                                     rows.emplace_back(cells, cells + paths.size());
                                     strs.emplace_back();
                                     hashes.emplace_back();
                                     for (size_t c = 0; c < paths.size(); ++c) {
                                       strs.back().emplace_back(cells[c].s);
                                       hashes.back().push_back(cells[c].Hash());
                                     }
                                   });
  ASSERT_TRUE(st.ok()) << st.ToString();
  const uint64_t typed_reads = GlobalCounters().raw_field_accesses - before;
  ASSERT_EQ(rows.size(), p->NumRecords());

  const uint64_t before_values = GlobalCounters().raw_field_accesses;
  for (uint64_t oid = 0; oid < p->NumRecords(); ++oid) {
    for (size_t c = 0; c < paths.size(); ++c) {
      const TypedCell& cell = rows[oid][c];
      const std::string where = "oid " + std::to_string(oid) + " " + DottedPath(paths[c]);
      auto v = p->ReadValue(oid, paths[c]);
      if (!v.ok()) {
        ASSERT_EQ(v.status().code(), StatusCode::kNotFound) << where;
        EXPECT_EQ(cell.kind, TypedCell::Kind::kNull) << where;
        continue;
      }
      switch (cell.kind) {
        case TypedCell::Kind::kNull: EXPECT_TRUE(v->is_null()) << where; break;
        case TypedCell::Kind::kInt:
          ASSERT_TRUE(v->is_int()) << where;
          EXPECT_EQ(cell.i, v->i()) << where;
          break;
        case TypedCell::Kind::kFloat:
          ASSERT_TRUE(v->is_float()) << where;
          EXPECT_EQ(Bits(cell.f), Bits(v->f())) << where;
          break;
        case TypedCell::Kind::kBool:
          ASSERT_TRUE(v->is_bool()) << where;
          EXPECT_EQ(cell.i != 0, v->b()) << where;
          break;
        case TypedCell::Kind::kString:
          ASSERT_TRUE(v->is_string()) << where;
          EXPECT_EQ(strs[oid][c], v->s()) << where;
          break;
      }
      if (cell.kind != TypedCell::Kind::kNull) EXPECT_EQ(hashes[oid][c], v->Hash()) << where;
    }
  }
  EXPECT_EQ(typed_reads, GlobalCounters().raw_field_accesses - before_values)
      << "a typed read counts as ReadValue's would";

  StatsStore typed;
  StatsStore generic;
  ASSERT_TRUE(p->CollectStats(&typed).ok());
  ASSERT_TRUE(p->InputPlugin::CollectStats(&generic).ok());
  const auto a = typed.Find(info.name);
  const auto b = generic.Find(info.name);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->cardinality, b->cardinality);
  ASSERT_EQ(a->columns.size(), b->columns.size());
  for (const auto& [name, cs] : b->columns) {
    ASSERT_EQ(a->columns.count(name), 1u) << name;
    const ColumnStats& got = a->columns.at(name);
    EXPECT_EQ(got.valid, cs.valid) << name;
    EXPECT_EQ(Bits(got.min), Bits(cs.min)) << name;
    EXPECT_EQ(Bits(got.max), Bits(cs.max)) << name;
    EXPECT_EQ(got.ndv, cs.ndv) << name;
  }
}

DatasetInfo Info(const std::string& name, DataFormat format, const std::string& path,
                 TypePtr type) {
  DatasetInfo info;
  info.name = name;
  info.format = format;
  info.path = path;
  info.type = std::move(type);
  return info;
}

/// Every dataset of the engine test corpus and the skewed join corpora.
std::vector<DatasetInfo> TestCorpus() {
  const testutil::Corpus& c = testutil::Corpus::Get();
  const std::string skew = testutil::SkewCorpus::Get().dir;
  using datagen::LineitemSchema;
  using datagen::OrdersSchema;
  return {
      Info("lineitem_bincol", DataFormat::kBinaryColumn, c.dir + "/lineitem.bincol",
           LineitemSchema()),
      Info("orders_bincol", DataFormat::kBinaryColumn, c.dir + "/orders.bincol", OrdersSchema()),
      Info("lineitem_binrow", DataFormat::kBinaryRow, c.dir + "/lineitem.binrow",
           LineitemSchema()),
      Info("lineitem_csv", DataFormat::kCSV, c.dir + "/lineitem.csv", LineitemSchema()),
      Info("orders_csv", DataFormat::kCSV, c.dir + "/orders.csv", OrdersSchema()),
      Info("lineitem_json", DataFormat::kJSON, c.dir + "/lineitem.json", LineitemSchema()),
      Info("lineitem_json_shuffled", DataFormat::kJSON, c.dir + "/lineitem_shuffled.json",
           LineitemSchema()),
      Info("orders_json", DataFormat::kJSON, c.dir + "/orders.json", OrdersSchema()),
      Info("orders_denorm", DataFormat::kJSON, c.dir + "/denorm.json",
           datagen::OrdersDenormSchema()),
      Info("spam", DataFormat::kJSON, c.dir + "/spam.json", datagen::SpamJSONSchema()),
      Info("zipf_orders", DataFormat::kJSON, skew + "/zipf_orders.json", OrdersSchema()),
      Info("heavy_orders", DataFormat::kJSON, skew + "/heavy_orders.json", OrdersSchema()),
      Info("nullkey_orders", DataFormat::kJSON, skew + "/nullkey_orders.json", OrdersSchema()),
      Info("skew_lineitem", DataFormat::kJSON, skew + "/skew_lineitem.json", LineitemSchema()),
  };
}

/// The raw files of the benchmark corpus, generated as it generates them
/// (same generators, field-shuffled JSON), at a small scale.
std::vector<DatasetInfo> BenchmarkCorpus() {
  const std::string dir = testing::TempDir() + "/typed_bench_corpus";
  std::filesystem::create_directories(dir);
  const RowTable lineitem = datagen::GenLineitem(120, 1001);
  const RowTable orders = datagen::GenOrders(120, 1002);
  JSONWriteOptions shuffled;
  shuffled.shuffle_field_order = true;
  EXPECT_TRUE(WriteJSONFile(dir + "/lineitem.json", lineitem, shuffled).ok());
  EXPECT_TRUE(WriteCSVFile(dir + "/lineitem.csv", lineitem).ok());
  EXPECT_TRUE(WriteJSONFile(dir + "/orders.json", orders, shuffled).ok());
  EXPECT_TRUE(WriteJSONFile(dir + "/denorm.json", datagen::Denormalize(orders, lineitem)).ok());
  EXPECT_TRUE(
      WriteJSONFile(dir + "/spam_pool.json", datagen::GenSpamJSON(300, 1003), shuffled).ok());
  EXPECT_TRUE(WriteCSVFile(dir + "/spam_pool.csv", datagen::GenSpamCSV(300, 1004)).ok());
  return {
      Info("b_lineitem_json", DataFormat::kJSON, dir + "/lineitem.json",
           datagen::LineitemSchema()),
      Info("b_lineitem_csv", DataFormat::kCSV, dir + "/lineitem.csv", datagen::LineitemSchema()),
      Info("b_orders_json", DataFormat::kJSON, dir + "/orders.json", datagen::OrdersSchema()),
      Info("b_denorm", DataFormat::kJSON, dir + "/denorm.json", datagen::OrdersDenormSchema()),
      Info("b_spam_json", DataFormat::kJSON, dir + "/spam_pool.json", datagen::SpamJSONSchema()),
      Info("b_spam_csv", DataFormat::kCSV, dir + "/spam_pool.csv", datagen::SpamCSVSchema()),
  };
}

/// Hand-written edge cases: absent fields, JSON nulls, a null record, nested
/// numeric leaves, empty CSV fields, -0.0, int-valued floats and int tokens
/// in float fields.
std::vector<DatasetInfo> EdgeCorpus() {
  const std::string dir = testing::TempDir();
  {
    std::ofstream f(dir + "/typed_edge.json", std::ios::trunc);
    f << "{\"k\":1,\"v\":-0.0,\"n\":{\"x\":2.0,\"y\":3},\"tag\":\"a\",\"ok\":true}\n"
         "{\"k\":2,\"v\":0.0,\"n\":{\"x\":-0.0},\"tag\":null}\n"
         "{\"v\":2,\"n\":null,\"ok\":false}\n"
         "{\"k\":null,\"v\":null,\"n\":{\"y\":-5,\"x\":1e3}}\n"
         "{\"tag\":\"b\\\"q\\\\n\",\"n\":{\"x\":3,\"y\":null},\"v\":2.5,\"k\":-4}\n";
  }
  {
    std::ofstream f(dir + "/typed_edge.csv", std::ios::trunc);
    f << "1,-0.0,true,x,7\n,2.0,,,\n3,,1,y,0\n-4,0.0,false,,-2\n5,2,0,z,\n";
  }
  return {
      Info("edge_json", DataFormat::kJSON, dir + "/typed_edge.json",
           Type::BagOfRecords(
               {{"k", Type::Int64()},
                {"v", Type::Float64()},
                {"n", Type::Record({{"x", Type::Float64()}, {"y", Type::Int64()}})},
                {"tag", Type::String()},
                {"ok", Type::Bool()}})),
      Info("edge_csv", DataFormat::kCSV, dir + "/typed_edge.csv",
           Type::BagOfRecords({{"k", Type::Int64()},
                               {"v", Type::Float64()},
                               {"b", Type::Bool()},
                               {"s", Type::String()},
                               {"d", Type::Date()}})),
  };
}

TEST(TypedReads, MatchReadValueAndGenericStatsOnTheTestCorpus) {
  for (const DatasetInfo& info : TestCorpus()) ExpectTypedReadsMatch(info);
}

TEST(TypedReads, MatchReadValueAndGenericStatsOnTheBenchmarkCorpus) {
  for (const DatasetInfo& info : BenchmarkCorpus()) ExpectTypedReadsMatch(info);
}

TEST(TypedReads, MatchReadValueAndGenericStatsOnEdgeCases) {
  for (const DatasetInfo& info : EdgeCorpus()) ExpectTypedReadsMatch(info);
}

// ---------------------------------------------------------------------------
// The one-walk JSON index reads every path as a whole-object parse does
// ---------------------------------------------------------------------------

/// Visits every path of the parsed record `rec`: nested records are walked
/// (their own path visited too), arrays and primitives are leaves.
void VisitPaths(const Value& rec, FieldPath* prefix,
                const std::function<void(const FieldPath&, const Value&)>& visit) {
  const RecordValue& r = rec.record();
  for (size_t i = 0; i < r.names.size(); ++i) {
    prefix->push_back(r.names[i]);
    visit(*prefix, r.values[i]);
    if (r.values[i].is_record()) VisitPaths(r.values[i], prefix, visit);
    prefix->pop_back();
  }
}

TEST(JsonIndex, EveryPathOfEveryObjectReadsAsTheParsedObject) {
  std::vector<DatasetInfo> all = TestCorpus();
  for (const DatasetInfo& info : BenchmarkCorpus()) all.push_back(info);
  for (const DatasetInfo& info : EdgeCorpus()) all.push_back(info);
  for (const DatasetInfo& info : all) {
    if (info.format != DataFormat::kJSON) continue;
    SCOPED_TRACE(info.name);
    for (bool fixed : {true, false}) {
      DatasetInfo variant = info;
      variant.json.exploit_fixed_schema = fixed;
      JsonPlugin p(variant);
      ASSERT_TRUE(p.Open().ok());
      uint64_t reads = 0;
      const uint64_t before = GlobalCounters().raw_field_accesses;
      for (uint64_t oid = 0; oid < p.NumRecords(); ++oid) {
        const char* b = p.ObjectBase(oid);
        const char* e = static_cast<const char*>(
            std::memchr(b, '\n', p.file().data() + p.file().size() - b));
        if (e == nullptr) e = p.file().data() + p.file().size();
        auto parsed = ParseJsonValue(b, e);
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        FieldPath prefix;
        VisitPaths(*parsed, &prefix, [&](const FieldPath& path, const Value& want) {
          auto got = p.ReadValue(oid, path);
          ++reads;
          ASSERT_TRUE(got.ok()) << oid << " " << DottedPath(path);
          EXPECT_TRUE(got->Equals(want)) << oid << " " << DottedPath(path) << ": "
                                         << got->ToString() << " vs " << want.ToString();
          if (!want.is_list()) return;
          auto cursor = p.UnnestInit(oid, path);
          ASSERT_TRUE(cursor.ok());
          for (const Value& elem : want.list()) {
            ASSERT_TRUE((*cursor)->HasNext());
            ++reads;
            EXPECT_TRUE((*cursor)->GetNext()->Equals(elem)) << oid << " " << DottedPath(path);
          }
          EXPECT_FALSE((*cursor)->HasNext());
        });
        EXPECT_EQ(p.ReadValue(oid, {"no_such_field"}).status().code(), StatusCode::kNotFound);
      }
      EXPECT_EQ(GlobalCounters().raw_field_accesses - before, reads)
          << "one raw access per value read, none per miss";
    }
  }
}

}  // namespace
}  // namespace proteus
