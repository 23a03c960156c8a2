// Tests for the adaptive caching subsystem (paper §6): block building,
// plan-signature matching, plan rewriting, hybrid string reads, eviction
// policy (format-biased LRU), and invalidation on dataset updates.
#include <gtest/gtest.h>

#include <fstream>

#include "src/engine/radix_table.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

using testutil::Corpus;

class CachingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions opts;
    opts.cache_policy.enabled = true;
    engine_ = std::make_unique<QueryEngine>(opts);
    testutil::RegisterAll(engine_.get());
  }
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(CachingTest, FirstQueryBuildsCacheSecondUsesIt) {
  std::string q = "SELECT count(*) FROM lineitem_json WHERE l_orderkey < 30";
  QueryTelemetry tel;
  auto r1 = engine_->Execute(q, {.telemetry = &tel});
  ASSERT_TRUE(r1.ok());
  EXPECT_GT(engine_->caches().num_blocks(), 0u);
  double first_build = tel.cache_build_ms;
  EXPECT_GT(first_build, 0.0);

  auto r2 = engine_->Execute(q, {.telemetry = &tel});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(tel.used_cache);
  EXPECT_TRUE(r1->EqualsUnordered(*r2));
}

TEST_F(CachingTest, CacheSharedAcrossDifferentQueriesOnSameFields) {
  ASSERT_TRUE(engine_->Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 30")
                  .ok());
  size_t blocks = engine_->caches().num_blocks();
  // Different predicate, same fields: full sub-tree scan match applies.
  QueryTelemetry tel;
  auto r = engine_->Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 50",
                            {.telemetry = &tel});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(tel.used_cache);
  EXPECT_EQ(engine_->caches().num_blocks(), blocks);  // no new block
}

TEST_F(CachingTest, WiderFieldSetReplacesNarrowBlock) {
  ASSERT_TRUE(engine_->Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 30")
                  .ok());
  // Query needing an extra numeric field: the narrow block cannot serve it;
  // a wider block replaces it (Install() drops covered same-signature blocks).
  auto r = engine_->Execute(
      "SELECT max(l_quantity) FROM lineitem_json WHERE l_orderkey < 30");
  ASSERT_TRUE(r.ok());
  QueryTelemetry tel;
  auto r2 = engine_->Execute(
      "SELECT max(l_quantity) FROM lineitem_json WHERE l_orderkey < 30", {.telemetry = &tel});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(tel.used_cache);
  EXPECT_NEAR(r->scalar().AsFloat(), r2->scalar().AsFloat(), 1e-9);
}

TEST_F(CachingTest, StringPredicateUsesHybridOidReads) {
  // Strings are not cached (policy); the predicate still answers correctly
  // through raw reads addressed by the cached OID column.
  std::string q = "SELECT count(*) FROM lineitem_json WHERE l_shipmode = 'AIR'";
  auto r1 = engine_->Execute(q);
  ASSERT_TRUE(r1.ok());
  QueryTelemetry tel;
  auto r2 = engine_->Execute(q, {.telemetry = &tel});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(tel.used_cache);
  int64_t expected = 0;
  for (const auto& row : Corpus::Get().lineitem.rows()) {
    if (row[6].s() == "AIR") ++expected;
  }
  EXPECT_EQ(r1->scalar().i(), expected);
  EXPECT_EQ(r2->scalar().i(), expected);
}

TEST_F(CachingTest, InvalidationDropsCachesAndRecovers) {
  std::string q = "SELECT count(*) FROM lineitem_json WHERE l_orderkey < 30";
  ASSERT_TRUE(engine_->Execute(q).ok());
  ASSERT_GT(engine_->caches().num_blocks(), 0u);
  engine_->InvalidateDataset("lineitem_json");
  EXPECT_EQ(engine_->caches().num_blocks(), 0u);
  auto r = engine_->Execute(q);  // rebuilds index + cache
  ASSERT_TRUE(r.ok());
  EXPECT_GT(engine_->caches().num_blocks(), 0u);
}

// An absent or null JSON value has no binary cell: its field stays out of
// the block and is read raw through the OID column, so a cached answer is
// the uncached one in both engines, and the block is built only once.
TEST(CachingAbsentValues, CachedAnswersMatchUncachedInBothEngines) {
  const std::string path = Corpus::Get().dir + "/cache_sparse.json";
  {
    std::ofstream f(path);
    for (int i = 0; i < 12; ++i) {
      f << "{\"id\":" << i;
      if (i % 4 == 1) f << ",\"x\":-5";
      if (i % 4 == 2) f << ",\"x\":null";
      if (i % 4 == 3) f << ",\"x\":-7";
      f << "}\n";
    }
  }
  DatasetInfo info;
  info.name = "cache_sparse";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = Type::BagOfRecords({{"id", Type::Int64()}, {"x", Type::Int64()}});
  const std::string q = "SELECT max(x), count(*) FROM cache_sparse WHERE id < 100";
  for (ExecMode mode : {ExecMode::kInterp, ExecMode::kJIT}) {
    EngineOptions opts;
    opts.mode = mode;
    QueryEngine uncached(opts);
    ASSERT_TRUE(uncached.RegisterDataset(info).ok());
    auto want = uncached.Execute(q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(want->rows[0][0].Equals(Value::Int(-5))) << want->rows[0][0].ToString();

    opts.cache_policy.enabled = true;
    QueryEngine cached(opts);
    ASSERT_TRUE(cached.RegisterDataset(info).ok());
    uint64_t block_id = 0;
    for (int run = 0; run < 3; ++run) {
      QueryTelemetry tel;
      auto got = cached.Execute(q, {.telemetry = &tel});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(want->rows[0][0].Equals(got->rows[0][0]))
          << "run " << run << ": " << got->rows[0][0].ToString();
      EXPECT_TRUE(want->rows[0][1].Equals(got->rows[0][1])) << "run " << run;
      ASSERT_EQ(cached.caches().num_blocks(), 1u);
      const auto block = cached.caches().blocks()[0];
      if (run > 0) {
        EXPECT_TRUE(tel.used_cache) << "run " << run;
        EXPECT_EQ(block->id, block_id) << "run " << run << " rebuilt the block";
      }
      block_id = block->id;
      std::vector<FieldPath> cached_paths;
      for (const auto& c : block->cols) cached_paths.push_back(c.path);
      EXPECT_EQ(cached_paths, (std::vector<FieldPath>{{"$oid"}, {"id"}}));
    }
  }
}

TEST(CachingManager, FormatBiasedEviction) {
  CachePolicy policy;
  policy.enabled = true;
  policy.memory_budget_bytes = 1;  // force eviction on every install
  CachingManager mgr(policy);

  auto block = [](const std::string& sig, DataFormat fmt, size_t rows) {
    CacheBlock b;
    b.signature = sig;
    b.source_format = fmt;
    b.num_rows = rows;
    CacheColumn col;
    col.var = "x";
    col.path = {"f"};
    col.type = TypeKind::kInt64;
    col.ints.resize(rows);
    b.cols.push_back(std::move(col));
    return b;
  };
  // Install a JSON-sourced and a CSV-sourced block; over budget, the CSV
  // block (cheaper to rebuild) must be evicted first.
  mgr.Install(block("scan(a as x)", DataFormat::kJSON, 1000));
  mgr.Install(block("scan(b as x)", DataFormat::kCSV, 1000));
  ASSERT_EQ(mgr.num_blocks(), 1u);
  EXPECT_EQ(mgr.blocks()[0]->source_format, DataFormat::kJSON);
}

// One coverage rule: a block covers a scan when every field BuildScanCache
// would cache under the policy is one of its columns. PopulateCaches widens
// on it and RewriteWithCaches rewrites on it, so they cannot disagree.
TEST(CachingManager, CoverageFollowsTheCachedLeafTest) {
  const TypePtr record = Type::Record({{"n", Type::Int64()},
                                       {"flag", Type::Bool()},
                                       {"s", Type::String()},
                                       {"tags", Type::Collection(CollectionKind::kList,
                                                                 Type::Int64())}});
  CacheBlock block;
  CacheColumn n;
  n.var = "x";
  n.path = {"n"};
  block.cols.push_back(n);
  auto scan = [](std::vector<FieldPath> fields) {
    OpPtr s = Operator::Scan("ds", "x");
    s->set_scan_fields(std::move(fields));
    return s;
  };
  const CachingManager plain({.enabled = true});
  EXPECT_TRUE(plain.Covers(block, *scan({{"n"}}), *record));
  // Uncached leaves are read raw through the OID column: strings (by
  // default), collections and paths the record type does not resolve.
  EXPECT_TRUE(plain.Covers(block, *scan({{"n"}, {"s"}, {"tags"}, {"gone"}}), *record));
  // A missing bool is a missing cacheable column, like a missing number.
  EXPECT_FALSE(plain.Covers(block, *scan({{"n"}, {"flag"}}), *record));
  const CachingManager strings({.enabled = true, .cache_strings = true});
  EXPECT_FALSE(strings.Covers(block, *scan({{"n"}, {"s"}}), *record));
}

TEST(CachingManager, SignatureMatchIsExact) {
  CachingManager mgr({.enabled = true});
  CacheBlock b;
  b.signature = Operator::Scan("ds", "x")->Signature();
  b.num_rows = 0;
  mgr.Install(std::move(b));
  EXPECT_NE(mgr.FindMatch(*Operator::Scan("ds", "x")), nullptr);
  EXPECT_EQ(mgr.FindMatch(*Operator::Scan("ds", "y")), nullptr);   // other binding
  EXPECT_EQ(mgr.FindMatch(*Operator::Scan("ds2", "x")), nullptr);  // other dataset
}

TEST(RadixTable, InsertBuildProbe) {
  RadixTable t(4);
  for (uint32_t i = 0; i < 1000; ++i) t.Insert(HashMix64(i % 100), i);
  t.Build();
  // Every key 0..99 has exactly 10 rows.
  for (uint64_t k = 0; k < 100; ++k) {
    int hits = 0;
    t.Probe(HashMix64(k), [&](uint32_t row) {
      EXPECT_EQ(row % 100, k);
      ++hits;
    });
    EXPECT_EQ(hits, 10) << k;
  }
  // Missing keys probe empty.
  int miss = 0;
  t.Probe(HashMix64(100000), [&](uint32_t) { ++miss; });
  EXPECT_EQ(miss, 0);
}

TEST(RadixTable, EmptyTableProbeSafe) {
  RadixTable t;
  t.Build();
  int hits = 0;
  t.Probe(42, [&](uint32_t) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST(RadixTable, SingleEntry) {
  RadixTable t;
  t.Insert(HashMix64(7), 3);
  t.Build();
  int hits = 0;
  t.Probe(HashMix64(7), [&](uint32_t row) {
    EXPECT_EQ(row, 3u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace proteus
