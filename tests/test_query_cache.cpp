// Compiled-query cache: hit/miss/evict unit behavior, single-flight under
// concurrency, engine-level telemetry (repeat executions of one plan must
// hit; structurally different plans must miss), epoch invalidation after
// catalog / caching-manager mutation, shard sharing (N shards -> exactly one
// compile), and cell-identity of cached vs freshly compiled executions
// across num_threads and num_shards in {1, 2, 4}.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/jit/query_cache.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

// Small morsels so the ~240-row corpus splits into enough ranges for every
// shard count in {1, 2, 4} to actually fan out.
constexpr uint64_t kMorselRows = 16;

jit::QueryCacheKey Key(const std::string& sig, uint64_t catalog_epoch = 0,
                       uint64_t cache_epoch = 0) {
  return jit::QueryCacheKey{sig, /*join_strategies=*/"", catalog_epoch, cache_epoch};
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

TEST(CompiledQueryCacheUnit, EpochsPartitionTheKeySpace) {
  jit::CompiledQueryCache cache(8);
  std::atomic<int> compiles{0};
  bool hit = false;
  // Same signature, three distinct keys: base, catalog epoch, cache epoch.
  ASSERT_TRUE(cache.GetOrCompile(Key("s"), DummyCompile(&compiles), &hit).ok());
  ASSERT_TRUE(cache.GetOrCompile(Key("s", 1), DummyCompile(&compiles), &hit).ok());
  ASSERT_TRUE(cache.GetOrCompile(Key("s", 0, 1), DummyCompile(&compiles), &hit).ok());
  EXPECT_EQ(compiles.load(), 3);
  EXPECT_EQ(cache.size(), 3u);
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

QueryResult MustRun(QueryEngine* e, const std::string& q) {
  auto r = e->Execute(q);
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
// different plan must miss.
TEST(QueryCacheEngine, RepeatExecutionHitsAndDifferentPlanMisses) {
  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  ASSERT_NE(engine.jit_cache(), nullptr);

  QueryResult first = MustRun(&engine, kAggQuery);
  ASSERT_TRUE(engine.telemetry().used_jit);
  EXPECT_FALSE(engine.telemetry().jit_cache_hit);
  EXPECT_GT(engine.telemetry().compile_ms, 0.0);
  const uint64_t compiles_after_first = engine.jit_cache()->stats().compiles;
  EXPECT_EQ(compiles_after_first, 1u);

  QueryResult second = MustRun(&engine, kAggQuery);
  ASSERT_TRUE(engine.telemetry().used_jit);
  EXPECT_TRUE(engine.telemetry().jit_cache_hit);
  EXPECT_EQ(engine.telemetry().compile_ms, 0.0)
      << "a warm execution must perform zero IR generation/compilation";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_after_first)
      << "compile counter must not move on a warm run";
  ExpectIdentical(first, second, "cached vs fresh execution");
  EXPECT_FALSE(engine.last_ir().empty()) << "hits still expose the module's IR";

  // Different signature -> miss (and the old entry stays warm).
  MustRun(&engine, kGroupQuery);
  EXPECT_FALSE(engine.telemetry().jit_cache_hit);
  EXPECT_GT(engine.telemetry().compile_ms, 0.0);
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_after_first + 1);
  MustRun(&engine, kAggQuery);
  EXPECT_TRUE(engine.telemetry().jit_cache_hit);
}

// Cached re-executions are cell-identical to a fresh compile, for every
// plan shape the generated fast path covers, across num_threads {1, 2, 4}.
TEST(QueryCacheEngine, CachedVsFreshCellIdenticalAcrossThreads) {
  for (const char* query : {kAggQuery, kGroupQuery, kJoinQuery, kUnnestQuery}) {
    // Reference: cache disabled — every execution compiles fresh.
    QueryEngine fresh = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0);
    testutil::RegisterAll(&fresh);
    ASSERT_EQ(fresh.jit_cache(), nullptr);
    QueryResult reference = MustRun(&fresh, query);
    ASSERT_TRUE(fresh.telemetry().used_jit) << query;

    for (int threads : {1, 2, 4}) {
      QueryEngine engine = MakeEngine(threads);
      testutil::RegisterAll(&engine);
      QueryResult cold = MustRun(&engine, query);
      EXPECT_FALSE(engine.telemetry().jit_cache_hit);
      QueryResult warm = MustRun(&engine, query);
      EXPECT_TRUE(engine.telemetry().jit_cache_hit) << query;
      std::string ctx = std::string(query) + " threads=" + std::to_string(threads);
      ExpectIdentical(reference, cold, ctx + " cold");
      ExpectIdentical(reference, warm, ctx + " warm");
    }
  }
}

// The per-shard recompile is fixed: every ShardExecutor shares the engine's
// cache, so N shards of one plan trigger exactly one compile (cold) and
// zero (warm) — ShardExecStats deltas surface through the cache stats here.
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
    testutil::RegisterAll(&engine);
    QueryResult cold = MustRun(&engine, query);
    ASSERT_EQ(engine.telemetry().shards_used, shards);
    ASSERT_TRUE(engine.telemetry().used_jit);
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u)
        << shards << " shards must trigger exactly one compile";
    EXPECT_FALSE(engine.telemetry().jit_cache_hit);

    QueryResult warm = MustRun(&engine, query);
    EXPECT_EQ(engine.jit_cache()->stats().compiles, 1u);
    EXPECT_TRUE(engine.telemetry().jit_cache_hit)
        << "warm sharded run must be served entirely from the cache";
    EXPECT_EQ(engine.telemetry().compile_ms, 0.0);

    std::string ctx = "shards=" + std::to_string(shards);
    ExpectIdentical(reference, cold, ctx + " cold");
    ExpectIdentical(reference, warm, ctx + " warm");
  }
}

// Epoch invalidation: catalog mutations retire compiled modules.
TEST(QueryCacheEngine, CatalogMutationInvalidates) {
  QueryEngine engine = MakeEngine();
  testutil::RegisterAll(&engine);
  QueryResult before = MustRun(&engine, kAggQuery);
  MustRun(&engine, kAggQuery);
  ASSERT_TRUE(engine.telemetry().jit_cache_hit);
  ASSERT_EQ(engine.jit_cache()->stats().compiles, 1u);

  // Registering any dataset bumps the catalog epoch: the module was built
  // against schema-derived constants of the old catalog generation.
  DatasetInfo extra;
  extra.name = "spam_extra";
  extra.format = DataFormat::kJSON;
  extra.path = testutil::Corpus::Get().dir + "/spam.json";
  extra.type = datagen::SpamJSONSchema();
  ASSERT_TRUE(engine.RegisterDataset(extra).ok());

  QueryResult after = MustRun(&engine, kAggQuery);
  EXPECT_FALSE(engine.telemetry().jit_cache_hit) << "catalog mutation must invalidate";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, 2u);
  ExpectIdentical(before, after, "recompiled after catalog mutation");

  // InvalidateDataset (drop-and-rebuild update story) also retires modules —
  // the plug-in is evicted, so data pointers and structural indexes change.
  MustRun(&engine, kAggQuery);
  ASSERT_TRUE(engine.telemetry().jit_cache_hit);
  engine.InvalidateDataset("lineitem_bincol");
  QueryResult reloaded = MustRun(&engine, kAggQuery);
  EXPECT_FALSE(engine.telemetry().jit_cache_hit) << "dataset invalidation must invalidate";
  ExpectIdentical(before, reloaded, "recompiled after dataset invalidation");
}

// Epoch invalidation: CachingManager mutations retire compiled modules, and
// plans rewritten onto cache scans hit on re-execution (their cache-block
// pointers are bound per run, not baked).
TEST(QueryCacheEngine, CachingManagerMutationInvalidates) {
  // Reference: the same caching pipeline with the compiled-query cache
  // disabled, so every run compiles fresh. (A non-caching engine is not a
  // valid bit-level reference here: CacheScan morsels split differently from
  // raw JSON scans, so partial sums fold in a different order.)
  QueryEngine fresh = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/0,
                                 /*enable_caching=*/true);
  testutil::RegisterAll(&fresh);
  QueryResult reference = MustRun(&fresh, kGroupQuery);
  ASSERT_TRUE(fresh.telemetry().used_cache);

  QueryEngine engine = MakeEngine(/*threads=*/1, /*shards=*/0, /*cache_capacity=*/32,
                                  /*enable_caching=*/true);
  testutil::RegisterAll(&engine);
  // First run: builds the scan cache (Install bumps the cache epoch), then
  // compiles the rewritten plan.
  QueryResult cold = MustRun(&engine, kGroupQuery);
  ASSERT_TRUE(engine.telemetry().used_cache);
  ASSERT_TRUE(engine.telemetry().used_jit);
  EXPECT_FALSE(engine.telemetry().jit_cache_hit);
  const uint64_t compiles_cold = engine.jit_cache()->stats().compiles;

  // Second run: same rewrite, no new installs -> warm.
  QueryResult warm = MustRun(&engine, kGroupQuery);
  EXPECT_TRUE(engine.telemetry().jit_cache_hit)
      << "cache-scan plans must be reusable across executions";
  EXPECT_EQ(engine.jit_cache()->stats().compiles, compiles_cold);
  ExpectIdentical(reference, cold, "caching engine cold");
  ExpectIdentical(reference, warm, "caching engine warm");

  // Mutating the caching manager retires the module; the rebuilt cache gets
  // a new block id, so the re-run compiles a fresh (re-rewritten) plan.
  engine.caches().InvalidateDataset("lineitem_json");
  QueryResult rebuilt = MustRun(&engine, kGroupQuery);
  EXPECT_FALSE(engine.telemetry().jit_cache_hit)
      << "caching-manager mutation must invalidate";
  EXPECT_GT(engine.jit_cache()->stats().compiles, compiles_cold);
  ExpectIdentical(reference, rebuilt, "caching engine rebuilt");
}

}  // namespace
}  // namespace proteus
