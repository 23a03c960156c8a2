// Compiled-query cache: hit/miss/evict unit behavior, single-flight under
// concurrency, per-query telemetry (repeat executions of one plan must
// hit; structurally different plans must miss), shape keying (plans that
// differ only in literal values share one module, which binds each run's
// own literals; a literal of another kind, or one that changes the
// optimized plan, gets its own module), layout keying (a dataset rewritten
// with the same layout, or a scan cache rebuilt with the same columns,
// reuses its modules; a changed layout recompiles and erases exactly the
// modules that read it), shard sharing (N shards -> exactly one compile),
// and cell-identity of cached vs freshly compiled executions across
// num_threads and num_shards in {1, 2, 4}.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <thread>

#include "src/engine/partial_sink.h"
#include "src/jit/jit_engine.h"
#include "src/jit/query_cache.h"
#include "src/optimizer/optimizer.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

// Small morsels so the ~240-row corpus splits into enough ranges for every
// shard count in {1, 2, 4} to actually fan out.
constexpr uint64_t kMorselRows = 16;

jit::QueryCacheKey Key(const std::string& sig, std::vector<jit::DatasetLayout> datasets = {}) {
  return jit::QueryCacheKey{sig, /*join_strategies=*/"", std::move(datasets)};
}

jit::CompiledQueryCache::CompileFn DummyCompile(std::atomic<int>* count) {
  return [count]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
    count->fetch_add(1);
    return std::make_shared<const jit::CompiledModule>();
  };
}

// ---------------------------------------------------------------------------
// Unit tests against the cache itself
// ---------------------------------------------------------------------------

TEST(CompiledQueryCacheUnit, HitMissAndLruEviction) {
  jit::CompiledQueryCache cache(/*capacity=*/2);
  std::atomic<int> compiles{0};
  bool hit = true;

  auto a = cache.GetOrCompile(Key("a"), DummyCompile(&compiles), &hit);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(hit);
  auto b = cache.GetOrCompile(Key("b"), DummyCompile(&compiles), &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(compiles.load(), 2);

  // Hit returns the same module without compiling.
  auto a2 = cache.GetOrCompile(Key("a"), DummyCompile(&compiles), &hit);
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(a2->get(), a->get());
  EXPECT_EQ(compiles.load(), 2);

  // Capacity 2: inserting "c" evicts the least recently used entry — "b",
  // because the hit above refreshed "a".
  ASSERT_TRUE(cache.GetOrCompile(Key("c"), DummyCompile(&compiles), &hit).ok());
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrCompile(Key("a"), DummyCompile(&compiles), &hit).ok());
  EXPECT_TRUE(hit) << "recently used entry must survive the eviction";
  ASSERT_TRUE(cache.GetOrCompile(Key("b"), DummyCompile(&compiles), &hit).ok());
  EXPECT_FALSE(hit) << "LRU entry must have been evicted";

  auto stats = cache.stats();
  EXPECT_EQ(stats.compiles, 4u);  // a, b, c, b-again
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_GE(stats.evictions, 1u);
}

TEST(CompiledQueryCacheUnit, DatasetLayoutsPartitionTheKeySpace) {
  jit::CompiledQueryCache cache(8);
  std::atomic<int> compiles{0};
  bool hit = false;
  // Same signature, three distinct keys: layout 0, layout 1, and a second
  // dataset read alongside layout 0.
  ASSERT_TRUE(cache.GetOrCompile(Key("s", {{"d", 0}}), DummyCompile(&compiles), &hit).ok());
  ASSERT_TRUE(cache.GetOrCompile(Key("s", {{"d", 1}}), DummyCompile(&compiles), &hit).ok());
  ASSERT_TRUE(cache.GetOrCompile(Key("s", {{"d", 0}, {"e", 0}}), DummyCompile(&compiles), &hit)
                  .ok());
  EXPECT_EQ(compiles.load(), 3);
  EXPECT_EQ(cache.size(), 3u);
  ASSERT_TRUE(cache.GetOrCompile(Key("s", {{"d", 1}}), DummyCompile(&compiles), &hit).ok());
  EXPECT_TRUE(hit);
}

TEST(CompiledQueryCacheUnit, KeyReadsMatchesWholeDatasetNames) {
  const jit::QueryCacheKey k = Key("s", {{"a@b", 3}, {"lineitem", 12}, {"orders", 0}});
  EXPECT_TRUE(k.Reads("lineitem"));
  EXPECT_TRUE(k.Reads("orders"));
  EXPECT_TRUE(k.Reads("a@b"));
  EXPECT_FALSE(k.Reads("a"));
  EXPECT_FALSE(k.Reads("line"));
  EXPECT_FALSE(k.Reads("lineitem@12"));
  EXPECT_FALSE(k.Reads("order"));
  EXPECT_FALSE(Key("s").Reads("lineitem"));
}

// EraseReading drops exactly the ready entries whose key reads the dataset
// (in any layout) and leaves an in-flight compile of such a key alone.
TEST(CompiledQueryCacheUnit, EraseReadingDropsExactlyTheReaders) {
  jit::CompiledQueryCache cache(8);
  std::atomic<int> compiles{0};
  bool hit = false;
  for (const auto& k : {Key("scan_a", {{"a", 0}}), Key("scan_a", {{"a", 1}}),
                        Key("join_ab", {{"a", 1}, {"b", 0}}), Key("scan_b", {{"b", 0}}),
                        Key("scan_ab", {{"ab", 0}}), Key("no_scan")}) {
    ASSERT_TRUE(cache.GetOrCompile(k, DummyCompile(&compiles), &hit).ok());
  }
  ASSERT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.EraseReading("a"), 3u);
  EXPECT_EQ(cache.size(), 3u);
  for (const auto& k : {Key("scan_b", {{"b", 0}}), Key("scan_ab", {{"ab", 0}}), Key("no_scan")}) {
    ASSERT_TRUE(cache.GetOrCompile(k, DummyCompile(&compiles), &hit).ok());
    EXPECT_TRUE(hit) << k.signature << " does not read dataset a and must stay cached";
  }
  ASSERT_TRUE(
      cache.GetOrCompile(Key("join_ab", {{"a", 1}, {"b", 0}}), DummyCompile(&compiles), &hit)
          .ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.EraseReading("missing"), 0u);
  EXPECT_EQ(cache.size(), 4u);

  // An in-flight compile of a key reading "b" survives EraseReading("b") and
  // publishes normally.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread compiler([&] {
    bool h = false;
    auto r = cache.GetOrCompile(
        Key("scan_b2", {{"b", 0}}),
        [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
          started = true;
          while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return std::make_shared<const jit::CompiledModule>();
        },
        &h);
    EXPECT_TRUE(r.ok());
  });
  while (!started) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(cache.EraseReading("b"), 2u) << "scan_b and join_ab; not the in-flight scan_b2";
  release = true;
  compiler.join();
  EXPECT_EQ(cache.size(), 3u);
  ASSERT_TRUE(
      cache.GetOrCompile(Key("scan_b2", {{"b", 0}}), DummyCompile(&compiles), &hit).ok());
  EXPECT_TRUE(hit);
}

TEST(CompiledQueryCacheUnit, FailedCompilesAreNotCached) {
  jit::CompiledQueryCache cache(4);
  std::atomic<int> attempts{0};
  bool hit = true;
  auto fail = [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
    attempts.fetch_add(1);
    return Status::Unimplemented("outside the generated fast path");
  };
  auto r1 = cache.GetOrCompile(Key("f"), fail, &hit);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);
  // The failure was not pinned: a later lookup retries (and can succeed).
  auto r2 = cache.GetOrCompile(Key("f"), fail, &hit);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(attempts.load(), 2);
  std::atomic<int> compiles{0};
  ASSERT_TRUE(cache.GetOrCompile(Key("f"), DummyCompile(&compiles), &hit).ok());
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(cache.stats().compiles, 1u);
}

// Fixed-seed concurrent-lookup single-flight: many threads ask for one key
// at once; exactly one compiles (the compile fn sleeps so the others really
// do arrive mid-flight), everyone shares the same module. TSan-clean.
TEST(CompiledQueryCacheUnit, SingleFlightConcurrentLookups) {
  constexpr int kThreads = 8;
  jit::CompiledQueryCache cache(4);
  std::atomic<int> compiles{0};
  std::atomic<int> hits{0};
  std::atomic<int> failures{0};
  std::vector<std::shared_ptr<const jit::CompiledModule>> modules(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        bool hit = false;
        auto r = cache.GetOrCompile(
            Key("concurrent"),
            [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
              compiles.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::milliseconds(25));
              return std::make_shared<const jit::CompiledModule>();
            },
            &hit);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        modules[i] = *r;
        if (hit) hits.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(compiles.load(), 1) << "concurrent misses must single-flight";
  EXPECT_EQ(hits.load(), kThreads - 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(modules[i].get(), modules[0].get()) << "thread " << i;
  }
  auto stats = cache.stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

// ---------------------------------------------------------------------------
// Engine-level behavior
// ---------------------------------------------------------------------------

QueryEngine MakeEngine(int threads = 1, int shards = 0, size_t cache_capacity = 32,
                       bool enable_caching = false) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_threads = threads;
  opts.num_shards = shards;
  opts.morsel_rows = kMorselRows;
  opts.jit_cache_capacity = cache_capacity;
  opts.cache_policy.enabled = enable_caching;
  // Keep the optimizer's input stable across executions: cold-access stats
  // collected by the first run can legally change the second run's join
  // order — a *different* plan signature, which would be a correct miss but
  // make hit/miss assertions about "the same plan" meaningless.
  opts.collect_stats_on_cold_access = false;
  return QueryEngine(std::move(opts));
}

/// Runs `q`, failing the test on an error. `tel` and `ir`, when given,
/// receive the query's telemetry and generated IR (CallOptions).
QueryResult MustRun(QueryEngine* e, const std::string& q, QueryTelemetry* tel = nullptr,
                    std::string* ir = nullptr) {
  auto r = e->Execute(q, {.telemetry = tel, .ir = ir});
  EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
  return r.ok() ? std::move(*r) : QueryResult{};
}

/// Cell-for-cell equality: same columns, same row order, exact values
/// (float bits included — Value::Equals compares doubles exactly).
void ExpectIdentical(const QueryResult& a, const QueryResult& b, const std::string& ctx) {
  ASSERT_EQ(a.columns, b.columns) << ctx;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << ctx;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << ctx << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_TRUE(a.rows[r][c].Equals(b.rows[r][c]))
          << ctx << " row " << r << " col " << c << ": " << a.rows[r][c].ToString()
          << " vs " << b.rows[r][c].ToString();
    }
  }
}

const char* kAggQuery =
    "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_bincol "
    "WHERE l_orderkey < 30";
const char* kGroupQuery =
    "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_json "
    "GROUP BY l_linenumber";
const char* kJoinQuery =
    "SELECT count(*), max(o.o_totalprice) FROM orders_bincol o JOIN lineitem_bincol l "
    "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 30";
const char* kUnnestQuery =
    "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l WHERE l.l_quantity > 10.0";

// Telemetry regression: re-executing one plan must report a cache hit with
// zero compile cost and an unchanged compile counter; a structurally
// different plan must miss. (A plan that differs only in literal values is
// the same shape and hits: see the ShapeKeying tests below.)
TEST(QueryCacheEngine, RepeatExecutionHitsAndDifferentPlanMisses) {
  QueryEngine engine = MakeEngine();
  QueryTelemetry tel;
  std::string ir;
  testutil::RegisterAll(&engine);
  ASSERT_NE(engine.jit_cache(), nullptr);

  QueryResult first = MustRun(&engine, kAggQuery, &tel);
  ASSERT_TRUE(tel.used_jit);
  EXPECT_FALSE(tel.jit_cache_hit);
  EXPECT_GT(tel.compile_ms, 0.0);
  const uint64_t compiles_after_first = engine.jit_cache()->stats().compiles;
  EXPECT_EQ(compiles_after_first, 1u);

  QueryResult second = MustRun(&engine, kAggQuery, &tel, &ir);
  ASSERT_TRUE(tel.used_jit);
  EXPECT_TRUE(tel.jit_cache_hit);
  EXPECT_EQ(tel.compile_ms, 0.0)
      << "a warm execution must perform zero IR generation/compilation";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_after_first)
      << "compile counter must not move on a warm run";
  ExpectIdentical(first, second, "cached vs fresh execution");
  EXPECT_FALSE(ir.empty()) << "hits still expose the module's IR";

  // Different signature -> miss (and the old entry stays warm).
  MustRun(&engine, kGroupQuery, &tel);
  EXPECT_FALSE(tel.jit_cache_hit);
  EXPECT_GT(tel.compile_ms, 0.0);
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_after_first + 1);
  MustRun(&engine, kAggQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit);
}

// Cached re-executions are cell-identical to a fresh compile, for every
// plan shape the generated fast path covers, across num_threads {1, 2, 4}.
TEST(QueryCacheEngine, CachedVsFreshCellIdenticalAcrossThreads) {
  for (const char* query : {kAggQuery, kGroupQuery, kJoinQuery, kUnnestQuery}) {
    // Reference: cache disabled — every execution compiles fresh.
    QueryEngine fresh = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0);
    QueryTelemetry fresh_tel;
    testutil::RegisterAll(&fresh);
    ASSERT_EQ(fresh.jit_cache(), nullptr);
    QueryResult reference = MustRun(&fresh, query, &fresh_tel);
    ASSERT_TRUE(fresh_tel.used_jit) << query;

    for (int threads : {1, 2, 4}) {
      QueryEngine engine = MakeEngine(threads);
      QueryTelemetry tel;
      testutil::RegisterAll(&engine);
      QueryResult cold = MustRun(&engine, query, &tel);
      EXPECT_FALSE(tel.jit_cache_hit);
      QueryResult warm = MustRun(&engine, query, &tel);
      EXPECT_TRUE(tel.jit_cache_hit) << query;
      std::string ctx = std::string(query) + " threads=" + std::to_string(threads);
      ExpectIdentical(reference, cold, ctx + " cold");
      ExpectIdentical(reference, warm, ctx + " warm");
    }
  }
}

// The per-shard recompile is fixed: every ShardExecutor shares the engine's
// cache, so N shards of one plan trigger exactly one compile (cold) and
// zero (warm) — the engine-wide cache stats prove it here.
TEST(QueryCacheEngine, ShardsShareOneCompile) {
  // JSON driver: its byte-balanced Split() honors the small morsel_rows, so
  // every shard count actually fans out (bincol morsels snap to 1024-row
  // blocks, which would collapse this corpus to a single shard).
  const char* query =
      "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_json "
      "WHERE l_orderkey < 30";
  QueryEngine reference_engine = MakeEngine();
  testutil::RegisterAll(&reference_engine);
  QueryResult reference = MustRun(&reference_engine, query);

  for (int shards : {1, 2, 4}) {
    QueryEngine engine = MakeEngine(/*threads=*/1, shards);
    QueryTelemetry tel;
    testutil::RegisterAll(&engine);
    QueryResult cold = MustRun(&engine, query, &tel);
    ASSERT_EQ(tel.shards_used, shards);
    ASSERT_TRUE(tel.used_jit);
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u)
        << shards << " shards must trigger exactly one compile";
    EXPECT_FALSE(tel.jit_cache_hit);

    QueryResult warm = MustRun(&engine, query, &tel);
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u);
    EXPECT_TRUE(tel.jit_cache_hit)
        << "warm sharded run must be served entirely from the cache";
    EXPECT_EQ(tel.compile_ms, 0.0);

    std::string ctx = "shards=" + std::to_string(shards);
    ExpectIdentical(reference, cold, ctx + " cold");
    ExpectIdentical(reference, warm, ctx + " warm");
  }
}

// Layout keying: invalidating a dataset drops its plug-in, stats and scan
// caches, but the file it reopens has the same layout, so every module —
// over that dataset or any other — stays hot. Registering a dataset changes
// nothing either.
TEST(QueryCacheEngine, InvalidationKeepsModulesOfAnUnchangedLayout) {
  QueryEngine engine = MakeEngine();
  QueryTelemetry tel;
  testutil::RegisterAll(&engine);
  QueryResult before = MustRun(&engine, kAggQuery);
  MustRun(&engine, kAggQuery, &tel);
  ASSERT_TRUE(tel.jit_cache_hit);
  ASSERT_EQ(engine.jit_cache()->stats().compiles, 1u);

  DatasetInfo extra;
  extra.name = "spam_extra";
  extra.format = DataFormat::kJSON;
  extra.path = testutil::Corpus::Get().dir + "/spam.json";
  extra.type = datagen::SpamJSONSchema();
  ASSERT_TRUE(engine.RegisterDataset(extra).ok());
  MustRun(&engine, kAggQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit) << "unrelated registration must not invalidate";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u);

  engine.InvalidateDataset("orders_bincol");
  QueryResult unrelated = MustRun(&engine, kAggQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit) << "unrelated invalidation must not invalidate";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u);
  ExpectIdentical(before, unrelated, "served warm across an unrelated invalidation");

  // The dataset it reads: the plug-in reopens (new data pointers, bound per
  // run), the layout is the same, so the module serves the reopened data.
  engine.InvalidateDataset("lineitem_bincol");
  QueryResult reloaded = MustRun(&engine, kAggQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit) << "same layout: the module must be reused";
  EXPECT_EQ(tel.compile_ms, 0.0);
  EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u);
  ExpectIdentical(before, reloaded, "served warm after reopening its dataset");
}

// The key names the layout fingerprint of every dataset the plan's leaves
// read (Scan and CacheScan alike, each once), read off the open plug-in.
// Reopening a file with the same layout yields the same key.
TEST(QueryCacheEngine, KeyCarriesLayoutOfEveryScannedDataset) {
  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  ExecContext ctx;
  ctx.catalog = &engine.catalog();
  ctx.plugins = &engine.plugins();
  const OpPtr plan = Operator::Join(
      Operator::Scan("orders_bincol", "o"),
      Operator::Join(Operator::Scan("lineitem_bincol", "l"),
                     Operator::CacheScan(7, "c", "scan(lineitem_bincol as c)", "lineitem_bincol"),
                     Expr::Bool(true)),
      Expr::Bool(true));
  const auto before = jit::MakeQueryCacheKey(ctx, plan);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->datasets.size(), 2u);
  EXPECT_EQ(before->datasets[0].name, "lineitem_bincol");
  EXPECT_EQ(before->datasets[1].name, "orders_bincol");
  for (const jit::DatasetLayout& d : before->datasets) {
    auto plugin = engine.plugins().GetOrOpen(**engine.catalog().Get(d.name), nullptr);
    ASSERT_TRUE(plugin.ok());
    EXPECT_EQ(d.fingerprint, (*plugin)->LayoutFingerprint()) << d.name;
  }
  EXPECT_NE(before->datasets[0].fingerprint, before->datasets[1].fingerprint)
      << "different column headers are different layouts";

  engine.InvalidateDataset("spam");
  engine.InvalidateDataset("orders_bincol");
  engine.InvalidateDataset("orders_bincol");
  const auto after = jit::MakeQueryCacheKey(ctx, plan);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(*after == *before) << "the reopened file has the same layout";
}

// A join stays hot when either of its inputs is invalidated and reopens
// with the same layout.
TEST(QueryCacheEngine, JoinStaysHotWhenEitherInputIsInvalidated) {
  QueryEngine engine = MakeEngine();
  QueryTelemetry tel;
  testutil::RegisterAll(&engine);
  QueryResult before = MustRun(&engine, kJoinQuery);
  MustRun(&engine, kJoinQuery, &tel);
  ASSERT_TRUE(tel.jit_cache_hit);

  const uint64_t compiles = engine.jit_cache()->stats().compiles;
  for (const char* input : {"orders_bincol", "lineitem_bincol"}) {
    engine.InvalidateDataset(input);
    QueryResult after = MustRun(&engine, kJoinQuery, &tel);
    EXPECT_TRUE(tel.jit_cache_hit) << "invalidated join input " << input;
    EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles) << input;
    ExpectIdentical(before, after, std::string("served warm after invalidating ") + input);
  }
}

/// Writes `table` as a bincol directory with its columns in `order` (indices
/// into the table's schema), each column retyped to `types[j]` when given.
void WriteReorderedBinCol(const std::string& dir, const RowTable& table,
                          const std::vector<size_t>& order,
                          const std::map<std::string, TypePtr>& retype = {}) {
  std::vector<Field> fields;
  for (size_t j : order) {
    Field f = table.record_type()->fields()[j];
    auto it = retype.find(f.name);
    if (it != retype.end()) f.type = it->second;
    fields.push_back(f);
  }
  RowTable out(Type::Record(fields));
  for (const auto& row : table.rows()) {
    std::vector<Value> r;
    for (size_t j : order) {
      const Value& v = row[j];
      auto it = retype.find(table.record_type()->fields()[j].name);
      r.push_back(it == retype.end() ? v : Value::Int(static_cast<int64_t>(v.s().size())));
    }
    out.Append(std::move(r));
  }
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteBinaryColumnDir(dir, out).ok());
}

/// A copy of the corpus lineitem as bincol under `name`, in a directory of
/// its own that the test may rewrite.
std::string RegisterLineitemCopy(QueryEngine* engine, const std::string& name) {
  const std::string dir = testutil::Corpus::Get().dir + "/" + name + ".bincol";
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(WriteBinaryColumnDir(dir, testutil::Corpus::Get().lineitem).ok());
  DatasetInfo info;
  info.name = name;
  info.format = DataFormat::kBinaryColumn;
  info.path = dir;
  info.type = datagen::LineitemSchema();
  EXPECT_TRUE(engine->RegisterDataset(info).ok());
  return dir;
}

// A changed layout recompiles, and the reopen that first sees it erases
// exactly the modules whose plans read the dataset; invalidation alone
// erases nothing.
TEST(QueryCacheEngine, LayoutChangeErasesExactlyItsReaders) {
  QueryEngine engine = MakeEngine();
  QueryTelemetry tel;
  testutil::RegisterAll(&engine);
  const std::string dir = RegisterLineitemCopy(&engine, "li_copy");
  const std::string agg =
      "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM li_copy "
      "WHERE l_orderkey < 30";
  const std::string join =
      "SELECT count(*), max(o.o_totalprice) FROM orders_bincol o JOIN li_copy l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 30";
  const QueryResult agg_before = MustRun(&engine, agg);
  const QueryResult join_before = MustRun(&engine, join);
  for (const char* q : {kGroupQuery, kUnnestQuery}) MustRun(&engine, q);
  ASSERT_EQ(engine.jit_cache()->size(), 4u);

  std::vector<size_t> reversed(testutil::Corpus::Get().lineitem.num_cols());
  for (size_t j = 0; j < reversed.size(); ++j) reversed[j] = reversed.size() - 1 - j;
  WriteReorderedBinCol(dir, testutil::Corpus::Get().lineitem, reversed);
  engine.InvalidateDataset("li_copy");
  EXPECT_EQ(engine.jit_cache()->size(), 4u) << "invalidation alone erases nothing";
  MustRun(&engine, kGroupQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit);
  EXPECT_EQ(engine.jit_cache()->size(), 4u) << "li_copy has not reopened yet";

  const QueryResult agg_after = MustRun(&engine, agg, &tel);
  EXPECT_FALSE(tel.jit_cache_hit) << "reordered columns are a new layout";
  EXPECT_EQ(engine.jit_cache()->size(), 3u)
      << "the reopen erased both li_copy readers, then the aggregate recompiled";
  ExpectIdentical(agg_before, agg_after, "aggregate over the reordered file");
  for (const char* q : {kGroupQuery, kUnnestQuery}) {
    MustRun(&engine, q, &tel);
    EXPECT_TRUE(tel.jit_cache_hit) << q;
  }
  ExpectIdentical(join_before, MustRun(&engine, join, &tel), "join over the reordered file");
  EXPECT_FALSE(tel.jit_cache_hit);
  EXPECT_EQ(engine.jit_cache()->stats().evictions, 0u)
      << "layout erasure is not counted as LRU eviction";
}

// A bincol header with reordered or retyped columns is a new layout: the
// module recompiles against it, and answers match a fresh engine.
TEST(QueryCacheEngine, BinColHeaderChangeRecompiles) {
  const RowTable& lineitem = testutil::Corpus::Get().lineitem;
  std::vector<size_t> identity(lineitem.num_cols());
  for (size_t j = 0; j < identity.size(); ++j) identity[j] = j;
  std::vector<size_t> rotated = identity;
  std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());
  struct Header {
    const char* label;
    std::vector<size_t> order;
    std::map<std::string, TypePtr> retype;
  };
  // l_comment is a string the query never reads; retyping it still moves
  // nothing the module loads, but it is a different header.
  const std::vector<Header> headers = {
      {"rotated", rotated, {}},
      {"retyped", identity, {{"l_comment", Type::Int64()}}},
      {"original", identity, {}},
  };
  const std::string query =
      "SELECT l_linenumber, count(*), sum(l_extendedprice), max(l_quantity) FROM li_hdr "
      "WHERE l_orderkey < 40 GROUP BY l_linenumber";
  QueryEngine engine = MakeEngine();
  QueryTelemetry tel;
  const std::string dir = RegisterLineitemCopy(&engine, "li_hdr");
  MustRun(&engine, query, &tel);
  ASSERT_TRUE(tel.used_jit);
  uint64_t compiles = engine.jit_cache()->stats().compiles;
  for (const Header& h : headers) {
    WriteReorderedBinCol(dir, lineitem, h.order, h.retype);
    engine.InvalidateDataset("li_hdr");
    const QueryResult got = MustRun(&engine, query, &tel);
    EXPECT_FALSE(tel.jit_cache_hit) << h.label;
    EXPECT_EQ(engine.jit_cache()->stats().compiles, ++compiles) << h.label;
    QueryEngine fresh = MakeEngine();
    DatasetInfo info = **engine.catalog().Get("li_hdr");
    ASSERT_TRUE(fresh.RegisterDataset(info).ok());
    ExpectIdentical(MustRun(&fresh, query), got, h.label);
  }
}

// Scan caches: plans rewritten onto cache scans stay hot while the spam JSON
// silo is invalidated and its scan cache rebuilt. The rebuilt block has a
// new id but the same layout, so the spam plan keeps its shape too.
TEST(QueryCacheEngine, CacheScanPlanStaysHotWhileAnotherSiloRebuilds) {
  const char* spam_query =
      "SELECT count(*), sum(body_len), max(score) FROM spam WHERE mail_id < 100";
  // Reference: same caching pipeline, compiled-query cache off (see
  // CachingManagerRebuildKeepsTheModule for why a non-caching engine is not
  // a bit-level reference).
  QueryEngine fresh = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0,
                                 /*enable_caching=*/true);
  testutil::RegisterAll(&fresh);
  QueryResult reference = MustRun(&fresh, kGroupQuery);
  QueryResult spam_reference = MustRun(&fresh, spam_query);

  QueryEngine engine = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/32,
                                  /*enable_caching=*/true);
  QueryTelemetry tel;
  testutil::RegisterAll(&engine);
  MustRun(&engine, kGroupQuery, &tel);
  ASSERT_TRUE(tel.used_cache);
  MustRun(&engine, spam_query, &tel);
  ASSERT_TRUE(tel.used_cache);
  ASSERT_TRUE(tel.used_jit);
  const uint64_t compiles = engine.jit_cache()->stats().compiles;

  for (int slide = 0; slide < 2; ++slide) {
    engine.InvalidateDataset("spam");
    // Rebuilds the spam scan cache: a new block id, the same layout.
    QueryResult spam = MustRun(&engine, spam_query, &tel);
    EXPECT_TRUE(tel.used_cache);
    EXPECT_TRUE(tel.jit_cache_hit) << "slide " << slide;
    ExpectIdentical(spam_reference, spam, "spam after rebuild");

    QueryResult warm = MustRun(&engine, kGroupQuery, &tel);
    EXPECT_TRUE(tel.used_cache);
    EXPECT_TRUE(tel.jit_cache_hit)
        << "lineitem_json's cache-scan plan must stay hot across a spam rebuild (slide "
        << slide << ")";
    ExpectIdentical(reference, warm, "lineitem_json after spam rebuild");
  }
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles) << "no recompile per slide";
}

// Plans rewritten onto cache scans hit on re-execution (their cache-block
// pointers are bound per run, not baked), and a dropped and rebuilt block of
// the same layout keeps the module: the run binds the new block.
TEST(QueryCacheEngine, CachingManagerRebuildKeepsTheModule) {
  // Reference: the same caching pipeline with the compiled-query cache
  // disabled, so every run compiles fresh. (A non-caching engine is not a
  // valid bit-level reference here: CacheScan morsels split differently from
  // raw JSON scans, so partial sums fold in a different order.)
  QueryEngine fresh = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0,
                                 /*enable_caching=*/true);
  QueryTelemetry fresh_tel;
  testutil::RegisterAll(&fresh);
  QueryResult reference = MustRun(&fresh, kGroupQuery, &fresh_tel);
  ASSERT_TRUE(fresh_tel.used_cache);

  QueryEngine engine = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/32,
                                  /*enable_caching=*/true);
  QueryTelemetry tel;
  testutil::RegisterAll(&engine);
  // First run: builds the scan cache, then compiles the plan rewritten onto
  // it.
  QueryResult cold = MustRun(&engine, kGroupQuery, &tel);
  ASSERT_TRUE(tel.used_cache);
  ASSERT_TRUE(tel.used_jit);
  EXPECT_FALSE(tel.jit_cache_hit);
  const uint64_t compiles_cold = engine.jit_cache()->stats().compiles;

  // Second run: same rewrite, no new installs -> warm.
  QueryResult warm = MustRun(&engine, kGroupQuery, &tel);
  EXPECT_TRUE(tel.jit_cache_hit)
      << "cache-scan plans must be reusable across executions";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_cold);
  ExpectIdentical(reference, cold, "caching engine cold");
  ExpectIdentical(reference, warm, "caching engine warm");

  // Dropping the block: the rebuilt cache gets a new block id but the same
  // layout, so the module binds the new block.
  const uint64_t old_id = engine.caches().blocks().at(0)->id;
  engine.caches().InvalidateDataset("lineitem_json");
  QueryResult rebuilt = MustRun(&engine, kGroupQuery, &tel);
  ASSERT_EQ(engine.caches().num_blocks(), 1u);
  EXPECT_NE(engine.caches().blocks().at(0)->id, old_id);
  EXPECT_TRUE(tel.jit_cache_hit) << "a rebuilt block of the same layout keeps the module";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_cold);
  ExpectIdentical(reference, rebuilt, "caching engine rebuilt");
}

// ---------------------------------------------------------------------------
// Shape keying: literal values bind at run time
// ---------------------------------------------------------------------------

QueryEngine MakeInterpEngine() {
  EngineOptions opts;
  opts.mode = ExecMode::kInterp;
  opts.morsel_rows = kMorselRows;
  opts.collect_stats_on_cold_access = false;
  return QueryEngine(std::move(opts));
}

QueryResult Interpret(const std::string& q) {
  QueryEngine engine = MakeInterpEngine();
  testutil::RegisterAll(&engine);
  return MustRun(&engine, q);
}

ExecContext ContextOf(QueryEngine* engine) {
  ExecContext ctx;
  ctx.catalog = &engine->catalog();
  ctx.plugins = &engine->plugins();
  ctx.caches = &engine->caches();
  ctx.scheduler = &engine->scheduler();
  ctx.jit_cache = engine->jit_cache();
  ctx.morsel_rows = engine->options().morsel_rows;
  ctx.verify_ir = true;
  return ctx;
}

TEST(PlanShapeUnit, LiteralsPrintAsKindsInWalkOrder) {
  auto make = [](ExprPtr key_lit, ExprPtr mode_lit, ExprPtr factor_lit) {
    ExprPtr pred = Expr::Bin(
        BinOp::kAnd, Expr::Bin(BinOp::kLt, Expr::Path({"l", "l_orderkey"}), std::move(key_lit)),
        Expr::Bin(BinOp::kEq, Expr::Path({"l", "l_shipmode"}), std::move(mode_lit)));
    return Operator::Reduce(
        Operator::Select(Operator::Scan("lineitem_json", "l"), std::move(pred)),
        {{Monoid::kSum, Expr::Bin(BinOp::kMul, Expr::Path({"l", "l_tax"}), std::move(factor_lit)),
          "s"}},
        Expr::Bool(true));
  };
  // The shape's literal list points into the plan, so the plans outlive it.
  const OpPtr plan_a = make(Expr::Int(30), Expr::Str("RAIL"), Expr::Float(2.5));
  const OpPtr plan_b = make(Expr::Int(-7), Expr::Str("it's \"x\""), Expr::Float(0.0));
  const OpPtr plan_c = make(Expr::Float(30.0), Expr::Str("RAIL"), Expr::Float(2.5));
  const jit::PlanShape a = jit::ShapeOfPlan(*plan_a);
  for (const char* value : {"30", "RAIL", "2.5", "true"}) {
    EXPECT_EQ(a.signature.find(value), std::string::npos) << value << " in " << a.signature;
  }
  // Pre-order: the Reduce's outputs, then its predicate, then the Select.
  ASSERT_EQ(a.literals.size(), 4u);
  EXPECT_TRUE(a.literals[0]->literal().Equals(Value::Float(2.5)));
  EXPECT_TRUE(a.literals[1]->literal().Equals(Value::Boolean(true)));
  EXPECT_TRUE(a.literals[2]->literal().Equals(Value::Int(30)));
  EXPECT_TRUE(a.literals[3]->literal().Equals(Value::Str("RAIL")));
  EXPECT_NE(a.signature.find("(l.l_tax * ?f)"), std::string::npos) << a.signature;
  EXPECT_NE(a.signature.find("| ?b"), std::string::npos) << a.signature;
  EXPECT_NE(a.signature.find("(l.l_orderkey < ?i)"), std::string::npos) << a.signature;
  EXPECT_NE(a.signature.find("(l.l_shipmode = ?s)"), std::string::npos) << a.signature;

  EXPECT_EQ(a.signature, jit::ShapeOfPlan(*plan_b).signature) << "only literal values differ";
  EXPECT_NE(a.signature, jit::ShapeOfPlan(*plan_c).signature)
      << "an int and a float literal are different shapes";

  // One literal node reached twice is one slot, so it is a different shape
  // from two distinct literals in the same places.
  const ExprPtr shared = Expr::Int(30);
  const OpPtr plan_shared = make(shared, Expr::Str("RAIL"), shared);
  const OpPtr plan_distinct = make(Expr::Int(30), Expr::Str("RAIL"), Expr::Int(30));
  const jit::PlanShape s = jit::ShapeOfPlan(*plan_shared);
  EXPECT_EQ(s.literals.size(), 3u) << "each node listed once";
  EXPECT_NE(s.signature.find("(l.l_orderkey < ?@0)"), std::string::npos) << s.signature;
  EXPECT_NE(s.signature, jit::ShapeOfPlan(*plan_distinct).signature);
}

// Regression: float literals used to print with six significant digits, so
// `salary > 90999.99` and `salary > 91000.01` printed one signature and the
// second query reused the first one's module — a wrong count. Now the value
// is not in the key at all (both queries share one module) and each run binds
// its own literal; plans print floats in full.
TEST(QueryCacheEngine, CloseFloatLiteralsKeepTheirOwnValues) {
  const std::string path = testutil::Corpus::Get().dir + "/employees.csv";
  {
    std::ofstream csv(path);
    csv << "1,alice,engineering,98000\n"
           "2,bob,engineering,91000\n"
           "3,carol,sales,85000\n";
  }
  DatasetInfo info;
  info.name = "employees";
  info.format = DataFormat::kCSV;
  info.path = path;
  info.type = Type::BagOfRecords({{"id", Type::Int64()},
                                  {"name", Type::String()},
                                  {"dept", Type::String()},
                                  {"salary", Type::Float64()}});
  QueryEngine engine = MakeEngine();
  QueryTelemetry tel;
  QueryEngine interp = MakeInterpEngine();
  ASSERT_TRUE(engine.RegisterDataset(info).ok());
  ASSERT_TRUE(interp.RegisterDataset(info).ok());

  const std::vector<std::pair<std::string, int64_t>> cases = {
      {"SELECT count(*) FROM employees WHERE salary > 90999.99", 2},
      {"SELECT count(*) FROM employees WHERE salary > 91000.01", 1},
      {"SELECT count(*) FROM employees WHERE salary > 90999.99", 2},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [q, expected] = cases[i];
    QueryResult jit = MustRun(&engine, q, &tel);
    ASSERT_TRUE(tel.used_jit) << q;
    EXPECT_EQ(tel.jit_cache_hit, i > 0) << q;
    QueryResult oracle = MustRun(&interp, q);
    ASSERT_EQ(oracle.rows.size(), 1u);
    EXPECT_TRUE(oracle.rows[0][0].Equals(Value::Int(expected))) << q;
    ExpectIdentical(oracle, jit, q);
  }
  EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u);
  EXPECT_NE(tel.plan.find("90999.99"), std::string::npos)
      << tel.plan;
}

// One module per plan shape: every literal value of the same kind reuses it,
// and every run matches the interpreter on its own literal.
TEST(QueryCacheEngine, SameShapeDifferentLiteralsShareOneModule) {
  const std::vector<std::string> literals = {"30", "5", "0", "-3", "59", "1000000", "30"};
  for (int threads : {1, 2, 4}) {
    QueryEngine engine = MakeEngine(threads);
    QueryTelemetry tel;
    testutil::RegisterAll(&engine);
    for (size_t i = 0; i < literals.size(); ++i) {
      const std::string q =
          "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_json "
          "WHERE l_orderkey < " + literals[i] + " and l_shipmode <> 'AIR'";
      QueryResult jit = MustRun(&engine, q, &tel);
      ASSERT_TRUE(tel.used_jit) << q;
      EXPECT_EQ(tel.jit_cache_hit, i > 0) << q;
      if (i > 0) EXPECT_EQ(tel.compile_ms, 0.0) << q;
      ExpectIdentical(Interpret(q), jit, q + " threads=" + std::to_string(threads));
    }
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u) << "threads=" << threads;
    EXPECT_EQ(engine.jit_cache()->size(), 1u);
  }
}

// The literal's kind is part of the shape: `< 30` compares int64 registers,
// `< 30.0` widens to double, so each compiles its own module.
TEST(QueryCacheEngine, IntAndFloatLiteralsGetDifferentModules) {
  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  const std::string base =
      "SELECT count(*), sum(l_quantity) FROM lineitem_bincol WHERE l_orderkey < ";
  for (const char* lit : {"30", "30.0", "17", "17.5"}) {
    const std::string q = base + lit;
    ExpectIdentical(Interpret(q), MustRun(&engine, q), q);
  }
  EXPECT_EQ(engine.jit_cache()->stats().compiles, 2u);
  EXPECT_EQ(engine.jit_cache()->size(), 2u);
}

// The key is the *optimized* plan's shape: a literal that changes the
// estimated cardinality enough to flip the greedy join order produces a
// different plan, and so a different module.
TEST(QueryCacheEngine, LiteralThatFlipsJoinOrderGetsItsOwnModule) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.morsel_rows = kMorselRows;
  QueryEngine engine(opts);  // statistics on: the optimizer sees min/max
  testutil::RegisterAll(&engine);
  QueryTelemetry tel;
  // Cold access collects each dataset's statistics.
  MustRun(&engine, "SELECT count(*) FROM orders_bincol");
  MustRun(&engine, "SELECT count(*) FROM lineitem_bincol");
  const uint64_t compiles = engine.jit_cache()->stats().compiles;

  auto join = [](const char* lit) {
    return std::string(
               "SELECT count(*), max(o.o_totalprice) FROM orders_bincol o JOIN lineitem_bincol l "
               "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < ") +
           lit;
  };
  MustRun(&engine, join("3"), &tel);
  const std::string narrow_plan = tel.plan;
  MustRun(&engine, join("59"), &tel);
  const std::string wide_plan = tel.plan;
  ASSERT_NE(narrow_plan.find("lineitem_bincol"), std::string::npos);
  EXPECT_LT(narrow_plan.find("lineitem_bincol"), narrow_plan.find("orders_bincol"))
      << "few lineitem rows: lineitem goes first\n" << narrow_plan;
  EXPECT_LT(wide_plan.find("orders_bincol"), wide_plan.find("lineitem_bincol"))
      << "most lineitem rows: orders go first\n" << wide_plan;
  EXPECT_FALSE(tel.jit_cache_hit) << "a flipped join order is a new shape";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles + 2);

  // Each order's module then serves its own literals.
  for (const char* lit : {"2", "58"}) {
    QueryResult jit = MustRun(&engine, join(lit), &tel);
    EXPECT_TRUE(tel.jit_cache_hit) << lit;
    ExpectIdentical(Interpret(join(lit)), jit, join(lit));
  }
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles + 2);
}

// The tiered hot-swap entry runs a module compiled for another plan of the
// same shape: interpreter morsels [0, k) of plan B, then generated morsels
// [k, n) of B on the module compiled for plan A. The run binds B's literals.
TEST(QueryCacheEngine, TieredSwapBindsTheRunningPlansLiterals) {
  QueryEngine engine = MakeEngine(/*threads=*/2);
  testutil::RegisterAll(&engine);
  const ExecContext ctx = ContextOf(&engine);
  auto physical = [&](ExprPtr key_lit, ExprPtr mode_lit) {
    ExprPtr pred = Expr::Bin(
        BinOp::kAnd, Expr::Bin(BinOp::kLt, Expr::Path({"l", "l_orderkey"}), std::move(key_lit)),
        Expr::Bin(BinOp::kNe, Expr::Path({"l", "l_shipmode"}), std::move(mode_lit)));
    OpPtr plan = Operator::Reduce(
        Operator::Select(Operator::Scan("lineitem_json", "l"), std::move(pred)),
        {{Monoid::kCount, nullptr, "n"},
         {Monoid::kSum, Expr::Path({"l", "l_extendedprice"}), "s"},
         {Monoid::kMax, Expr::Path({"l", "l_quantity"}), "q"}});
    Optimizer optimizer(engine.catalog(), engine.options().optimizer);
    auto r = optimizer.Optimize(std::move(plan));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  };
  const OpPtr a = physical(Expr::Int(12), Expr::Str("AIR"));
  const OpPtr b = physical(Expr::Int(47), Expr::Str("RAIL"));
  const auto key_a = jit::MakeQueryCacheKey(ctx, a);
  const auto key_b = jit::MakeQueryCacheKey(ctx, b);
  ASSERT_TRUE(key_a.ok() && key_b.ok());
  ASSERT_TRUE(*key_a == *key_b);
  auto module = jit::CompilePlan(ctx, a);
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_TRUE((*module)->ir_verified);
  EXPECT_EQ((*module)->ir.find("RAIL"), std::string::npos) << "no literal in the module";
  EXPECT_EQ((*module)->ir.find("AIR"), std::string::npos) << "no literal in the module";

  InterpExecutor interp(ctx);
  auto oracle = interp.Execute(b);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto n = interp.CountPlanMorsels(b);
  ASSERT_TRUE(n.ok());
  ASSERT_GT(*n, 2u);
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, *n / 2}) {
    auto head = interp.ExecutePartials(b, ScanRange{0, k});
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    JitExecutor jit(ctx);
    auto tail = jit.ExecutePartialsPrecompiled(b, *module, k, *n);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    PlanPartials all = std::move(*head);
    all.Append(std::move(*tail));
    auto merged = FinalizePlanPartials(*b, RootNest(b), std::move(all));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectIdentical(*oracle, *merged, "swap at morsel " + std::to_string(k));
  }
}

// Shards share the engine's cache: a second query of the same shape with a
// different literal compiles nothing on any shard.
TEST(QueryCacheEngine, ShardsWithDifferentLiteralsShareOneCompile) {
  auto query = [](const char* lit) {
    return std::string(
               "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_json "
               "WHERE l_orderkey < ") +
           lit;
  };
  for (int shards : {1, 2, 4}) {
    QueryEngine engine = MakeEngine(/*threads=*/1, shards);
    QueryTelemetry tel;
    testutil::RegisterAll(&engine);
    int run = 0;
    for (const char* lit : {"30", "11", "55", "30"}) {
      QueryResult sharded = MustRun(&engine, query(lit), &tel);
      ASSERT_EQ(tel.shards_used, shards);
      ASSERT_TRUE(tel.used_jit);
      EXPECT_EQ(tel.jit_cache_hit, run++ > 0) << lit << " shards=" << shards;
      ExpectIdentical(Interpret(query(lit)), sharded,
                      query(lit) + " shards=" + std::to_string(shards));
    }
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// One JIT session: every module links into the process's one ORC session in
// its own dylib, which goes away with the module's last owner.
// ---------------------------------------------------------------------------

// Compiles run concurrently, and modules are torn down while other threads
// compile and run theirs: each thread compiles and runs every plan (the
// uncached Execute drops its module when it returns), keeps some modules
// across rounds, and drops them in bulk mid-run. Every answer stays the
// interpreter's.
TEST(SharedJitSession, ConcurrentCompilesAndTeardown) {
  QueryEngine engine = MakeEngine(/*threads=*/2);
  testutil::RegisterAll(&engine);
  ExecContext ctx = ContextOf(&engine);
  ctx.jit_cache = nullptr;  // every Execute compiles a module of its own
  auto path = [](const char* var, const char* field) { return Expr::Path({var, field}); };
  auto join = [&](const char* lk, const char* rk) {
    return Operator::Reduce(
        Operator::Join(Operator::Scan("orders_json", "o"), Operator::Scan("lineitem_csv", "l"),
                       Expr::Bin(BinOp::kEq, path("o", lk), path("l", rk)), /*outer=*/false),
        {{Monoid::kCount, nullptr, "n"}, {Monoid::kSum, path("o", "o_totalprice"), "p"}});
  };
  std::vector<OpPtr> plans;
  for (OpPtr plan :
       {join("o_orderkey", "l_orderkey"), join("o_comment", "l_shipmode"),
        Operator::Reduce(Operator::Nest(Operator::Scan("lineitem_json", "l"),
                                        path("l", "l_shipmode"), "m",
                                        {{Monoid::kCount, nullptr, "n"},
                                         {Monoid::kOr, Expr::Bin(BinOp::kGt, path("l", "l_tax"),
                                                                 Expr::Float(0.05)),
                                          "any"}},
                                        nullptr, "g"),
                         {{Monoid::kBag, Expr::Path({"g", "n"}), "ns"}}),
        Operator::Reduce(Operator::Scan("lineitem_bincol", "l"),
                         {{Monoid::kMax, path("l", "l_quantity"), "q"}})}) {
    Optimizer optimizer(engine.catalog(), engine.options().optimizer);
    auto r = optimizer.Optimize(std::move(plan));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    plans.push_back(*r);
  }
  std::vector<QueryResult> oracles;
  for (const OpPtr& plan : plans) {
    auto r = InterpExecutor(ctx).Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    oracles.push_back(std::move(*r));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::shared_ptr<const jit::CompiledModule>> held;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < plans.size(); ++i) {
          const size_t p = (i + static_cast<size_t>(t)) % plans.size();
          auto module = jit::CompilePlan(ctx, plans[p]);
          EXPECT_TRUE(module.ok()) << module.status().ToString();
          if (module.ok()) held.push_back(std::move(*module));
          auto r = JitExecutor(ctx).Execute(plans[p]);
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          if (r.ok()) ExpectIdentical(oracles[p], *r, "plan " + std::to_string(p));
        }
        if (round % 2 == static_cast<int>(t % 2)) held.clear();
      }
    });
  }
  for (auto& th : threads) th.join();
}

// ---------------------------------------------------------------------------
// Refresh: rewritten files of the same layout are served without compiling
// ---------------------------------------------------------------------------

/// A lineitem silo in one raw format under a path of its own. Slide `s`
/// holds other orders — other rows, another row count — in the same layout.
/// The bincol silo is larger: its morsels snap to 1024-row blocks, and a
/// tiered swap after the first morsel needs a second one.
struct Silo {
  std::string name;
  DataFormat format;
  std::string path;

  static Silo Make(DataFormat format) {
    const char* tag = DataFormatName(format);
    return {std::string("slide_") + tag, format,
            testutil::Corpus::Get().dir + "/slide." + tag};
  }
  void Write(int slide) const {
    const uint64_t orders = (format == DataFormat::kBinaryColumn ? 400 : 20) +
                            7 * static_cast<uint64_t>(slide);
    const RowTable rows = datagen::GenLineitem(orders, 300 + static_cast<uint64_t>(slide));
    Status st;
    switch (format) {
      case DataFormat::kJSON: st = WriteJSONFile(path, rows); break;
      case DataFormat::kCSV: st = WriteCSVFile(path, rows); break;
      default:
        std::filesystem::remove_all(path);
        st = WriteBinaryColumnDir(path, rows);
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  DatasetInfo Info() const {
    DatasetInfo info;
    info.name = name;
    info.format = format;
    info.path = path;
    info.type = datagen::LineitemSchema();
    return info;
  }
  std::string Query() const {
    return "SELECT l_linenumber, count(*), sum(l_extendedprice), max(l_quantity) FROM " +
           name + " WHERE l_orderkey < 400 GROUP BY l_linenumber";
  }
};

/// One engine configuration a refresh must stay compile-free on.
struct RefreshRoute {
  std::string label;
  int threads = 1;
  bool caching = false;
  bool tiered = false;
  int shards = 0;

  EngineOptions Options() const {
    EngineOptions opts;
    opts.mode = ExecMode::kJIT;
    opts.num_threads = threads;
    opts.num_shards = shards;
    opts.morsel_rows = kMorselRows;
    opts.cache_policy.enabled = caching;
    opts.tiered = tiered;
    // Interpret one morsel, then block on the background compile and swap.
    if (tiered) opts.tiered_opts.force_swap_after_morsels = 1;
    return opts;
  }
};

std::vector<RefreshRoute> RefreshRoutes() {
  std::vector<RefreshRoute> routes;
  for (bool caching : {false, true}) {
    for (int threads : {1, 2, 4}) {
      routes.push_back({"threads=" + std::to_string(threads) + (caching ? " caching" : ""),
                        threads, caching});
    }
  }
  routes.push_back({"tiered swap", 2, false, /*tiered=*/true});
  routes.push_back({"shards=2", 1, false, false, /*shards=*/2});
  return routes;
}

// A JSON, a CSV and a bincol silo rewritten five times with the same layout
// and other rows compile once on every route — threads 1/2/4, scan caches
// off and on, a forced tiered swap, two shards — and every answer is
// cell-identical to a fresh engine's over the rewritten file.
TEST(QueryCacheRefresh, SameLayoutRewritesCompileOnce) {
  constexpr int kSlides = 5;
  for (DataFormat format : {DataFormat::kJSON, DataFormat::kCSV, DataFormat::kBinaryColumn}) {
    const Silo silo = Silo::Make(format);
    // Fresh-engine answers per (slide, caching): scan caches split morsels
    // differently from raw scans, so each caching mode has its own fold.
    std::map<std::pair<int, bool>, QueryResult> fresh;
    for (const RefreshRoute& route : RefreshRoutes()) {
      const std::string ctx = std::string(DataFormatName(format)) + " " + route.label;
      silo.Write(0);
      QueryEngine engine(route.Options());
      ASSERT_TRUE(engine.RegisterDataset(silo.Info()).ok());
      for (int slide = 0; slide <= kSlides; ++slide) {
        if (slide > 0) {
          silo.Write(slide);
          engine.InvalidateDataset(silo.name);
        }
        QueryTelemetry tel;
        const QueryResult got = MustRun(&engine, silo.Query(), &tel);
        ASSERT_TRUE(tel.used_jit) << ctx << " slide " << slide << ": " << tel.fallback_reason;
        if (route.shards > 0) EXPECT_EQ(tel.shards_used, route.shards) << ctx;
        if (slide > 0) EXPECT_TRUE(tel.jit_cache_hit) << ctx << " slide " << slide;
        auto [it, first] = fresh.try_emplace({slide, route.caching});
        if (first) {
          EngineOptions opts = RefreshRoute{"fresh", 1, route.caching}.Options();
          opts.jit_cache_capacity = 0;
          QueryEngine reference(std::move(opts));
          ASSERT_TRUE(reference.RegisterDataset(silo.Info()).ok());
          it->second = MustRun(&reference, silo.Query());
        }
        ExpectIdentical(it->second, got, ctx + " slide " + std::to_string(slide));
      }
      if (route.tiered) engine.tiered_compiler()->Drain();
      EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u) << ctx;
    }
  }
}

// A JSON slide in which a cached field turns up null in some rows makes the
// rebuilt block list it raw_only: a new CacheScan layout, so a new shape
// that compiles, reads the field raw, and answers correctly. The next slide
// restores the first layout and hits its module again.
TEST(QueryCacheRefresh, JsonFieldTurningRawOnlyIsANewShape) {
  const std::string path = testutil::Corpus::Get().dir + "/raw_only_slide.json";
  auto write = [&](int slide) {
    std::ofstream f(path, std::ios::trunc);
    for (int i = 0; i < 90; ++i) {
      f << "{\"k\":" << i + slide << ",\"w\":" << (i * 7 + slide) % 23;
      if (slide == 1 && i % 5 == 0) {
        f << ",\"v\":null";
      } else {
        f << ",\"v\":" << 0.25 * i + slide;
      }
      f << "}\n";
    }
  };
  DatasetInfo info;
  info.name = "raw_only_slide";
  info.format = DataFormat::kJSON;
  info.path = path;
  info.type = Type::BagOfRecords(
      {{"k", Type::Int64()}, {"w", Type::Int64()}, {"v", Type::Float64()}});
  const std::string query =
      "SELECT count(*), sum(v), max(w) FROM raw_only_slide WHERE k < 60";
  QueryEngine engine =
      MakeEngine(/*threads=*/2, /*shards=*/0, /*cache_capacity=*/32, /*enable_caching=*/true);
  ASSERT_TRUE(engine.RegisterDataset(info).ok());
  std::string first_plan;
  for (int slide = 0; slide < 3; ++slide) {
    write(slide);
    if (slide > 0) engine.InvalidateDataset(info.name);
    QueryTelemetry tel;
    const QueryResult got = MustRun(&engine, query, &tel);
    ASSERT_TRUE(tel.used_cache);
    ASSERT_TRUE(tel.used_jit);
    const auto blocks = engine.caches().blocks();
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0]->raw_only.size(), slide == 1 ? 1u : 0u) << "slide " << slide;
    EXPECT_EQ(tel.jit_cache_hit, slide == 2) << "slide " << slide;
    EXPECT_EQ(engine.jit_cache()->stats().compiles, slide == 0 ? 1u : 2u) << "slide " << slide;

    QueryEngine fresh =
        MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0, /*enable_caching=*/true);
    ASSERT_TRUE(fresh.RegisterDataset(info).ok());
    ExpectIdentical(MustRun(&fresh, query), got, "slide " + std::to_string(slide));
  }
}

}  // namespace
}  // namespace proteus
