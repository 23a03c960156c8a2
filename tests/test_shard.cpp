// Sharded execution tests.
//
// The shard contract extends the morsel one: query results are *identical* —
// cell-for-cell, float bits and row order included — for every shard count,
// and for sharded vs unsharded execution, because every configuration folds
// the same global per-morsel partials in the same order. On top of that,
// every shard partial crosses a real serialization boundary (the
// PartialResult wire format through a ShardTransport), so the suite also
// round-trips the wire encoding property-style and checks the transport's
// bookkeeping.
#include <gtest/gtest.h>

#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <random>
#include <thread>

#include "src/shard/coordinator.h"
#include "src/shard/partial_result.h"
#include "src/shard/transport.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

// Small morsels so the ~240-row test corpus splits into many ranges and
// every shard count in {1, 2, 4} receives a non-trivial slice.
constexpr uint64_t kTestMorselRows = 16;

std::unique_ptr<QueryEngine> MakeEngine(int num_shards, int num_threads = 1,
                                        bool caching = false) {
  EngineOptions opts;
  opts.mode = ExecMode::kInterp;
  opts.num_threads = num_threads;
  opts.num_shards = num_shards;
  opts.morsel_rows = kTestMorselRows;
  opts.cache_policy.enabled = caching;
  auto engine = std::make_unique<QueryEngine>(opts);
  testutil::RegisterAll(engine.get());
  return engine;
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

/// Scans, selections, joins, and group-bys over JSON, CSV, and binary
/// datasets — the full format × operator matrix the acceptance criteria
/// name. Float aggregates are deliberate: bit-identity across shard counts
/// requires the fold shape to be invariant, not just the math.
const std::vector<std::string>& Workload() {
  static const std::vector<std::string> queries = {
      // Scans / projections (collection monoid: row order must be stable).
      "SELECT l_orderkey, l_quantity FROM lineitem_json WHERE l_orderkey < 1000000",
      "SELECT l_orderkey, l_extendedprice FROM lineitem_bincol WHERE l_orderkey < 1000000",
      // Selections + aggregates over every format family.
      "SELECT count(*), max(l_quantity), sum(l_tax) FROM lineitem_json WHERE l_orderkey < 30",
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_csv WHERE l_orderkey < 40",
      "SELECT min(l_extendedprice * (1.0 - l_discount)) FROM lineitem_bincol",
      "SELECT sum(l_extendedprice) FROM lineitem_binrow WHERE l_linenumber = 2",
      // Joins (each shard builds its own radix table, probes its slice).
      "SELECT count(*) FROM orders_bincol o JOIN lineitem_bincol l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 25",
      "SELECT count(*), max(o.o_totalprice) FROM orders_json o JOIN lineitem_json l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 40",
      // Group-bys (per-morsel group tables serialized per shard, merged in
      // global morsel order).
      "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_bincol "
      "WHERE l_orderkey < 30 GROUP BY l_linenumber",
      "SELECT l_linenumber, count(*), max(l_quantity) FROM lineitem_json "
      "GROUP BY l_linenumber",
      "SELECT l_linenumber, count(*), sum(l_tax) FROM lineitem_csv "
      "GROUP BY l_linenumber",
      // Unnest over nested JSON collections.
      "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l "
      "WHERE l.l_quantity > 25.0",
  };
  return queries;
}

TEST(ShardedExecution, ResultsIdenticalAcrossShardCounts) {
  auto baseline_engine = MakeEngine(/*num_shards=*/0);
  for (const auto& q : Workload()) {
    auto baseline = baseline_engine->Execute(q);
    ASSERT_TRUE(baseline.ok()) << q << "\n" << baseline.status().ToString();
    for (int shards : {1, 2, 4}) {
      auto engine = MakeEngine(shards);
      QueryTelemetry tel;
      auto r = engine->Execute(q, {.telemetry = &tel});
      ASSERT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
      ExpectIdentical(*baseline, *r, q + " @ " + std::to_string(shards) + " shards");
      EXPECT_GT(tel.shards_used, 0) << q;
      EXPECT_GT(tel.bytes_exchanged, 0u)
          << q << ": shard partials must cross the wire";
    }
  }
}

TEST(ShardedExecution, PartitionedJoinsIdenticalAcrossShardCounts) {
  // Partitioned probe layout composed with the shard executor: each shard
  // builds its own (partitioned) table and probes its morsel slice; results
  // must stay cell-identical across shard counts, skewed corpora included.
  auto make_engine = [](int shards, JoinStrategyOverride strat, ExecMode mode) {
    EngineOptions opts;
    opts.mode = mode;
    opts.num_shards = shards;
    opts.morsel_rows = kTestMorselRows;
    opts.optimizer.join_strategy = strat;
    auto engine = std::make_unique<QueryEngine>(opts);
    testutil::RegisterAll(engine.get());
    testutil::RegisterSkewCorpus(engine.get());
    return engine;
  };
  const std::vector<std::string> queries = {
      "SELECT count(*), sum(o.o_totalprice) FROM zipf_orders o "
      "JOIN skew_lineitem l ON o.o_orderkey = l.l_orderkey",
      "SELECT count(*), max(l.l_extendedprice) FROM heavy_orders o "
      "JOIN skew_lineitem l ON o.o_orderkey = l.l_orderkey WHERE l.l_linenumber < 5",
  };
  for (const auto& q : queries) {
    auto baseline = make_engine(0, JoinStrategyOverride::kForceShared,
                                ExecMode::kInterp)->Execute(q);
    ASSERT_TRUE(baseline.ok()) << q << "\n" << baseline.status().ToString();
    for (JoinStrategyOverride strat :
         {JoinStrategyOverride::kForceShared, JoinStrategyOverride::kForcePartitioned}) {
      for (ExecMode mode : {ExecMode::kInterp, ExecMode::kJIT}) {
        for (int shards : {1, 2, 4}) {
          auto engine = make_engine(shards, strat, mode);
          auto r = engine->Execute(q);
          ASSERT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
          ExpectIdentical(*baseline, *r,
                          q + " @ " + std::to_string(shards) + " shards, strat=" +
                              std::to_string(static_cast<int>(strat)));
        }
      }
    }
  }
}

TEST(ShardedExecution, ShardsComposeWithMorselWorkers) {
  // shards × num_threads: each shard drives its own morsel pool; neither
  // knob may change a single cell.
  auto baseline = MakeEngine(0)->Execute(Workload()[2]);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (int threads : {1, 4}) {
    auto engine = MakeEngine(/*num_shards=*/2, threads);
    for (const auto& q : Workload()) {
      auto b = MakeEngine(0)->Execute(q);
      auto r = engine->Execute(q);
      ASSERT_TRUE(b.ok()) << q << "\n" << b.status().ToString();
      ASSERT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
      ExpectIdentical(*b, *r, q + " @ 2 shards x " + std::to_string(threads) + " threads");
    }
  }
}

TEST(ShardedExecution, MatchesJitOracle) {
  // Cross-engine sanity: 4-shard execution agrees (as a multiset, with
  // float tolerance) with the default single-threaded JIT engine.
  EngineOptions jit_opts;
  QueryEngine jit(jit_opts);
  testutil::RegisterAll(&jit);
  auto sharded = MakeEngine(4);
  for (const auto& q : Workload()) {
    auto a = jit.Execute(q);
    auto b = sharded->Execute(q);
    ASSERT_TRUE(a.ok()) << q << "\n" << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q << "\n" << b.status().ToString();
    EXPECT_TRUE(a->EqualsUnordered(*b, 1e-6)) << q << "\njit:\n"
                                              << a->ToString() << "\nsharded:\n"
                                              << b->ToString();
  }
}

TEST(ShardedExecution, TelemetryReportsShardsAndBytes) {
  auto engine = MakeEngine(4);
  QueryTelemetry t;
  auto r = engine->Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 1000000",
                           {.telemetry = &t});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(t.used_jit);
  EXPECT_EQ(t.shards_used, 4) << "corpus splits into >= 4 morsels, so all shards run";
  EXPECT_GT(t.bytes_exchanged, 0u);
  EXPECT_GT(t.morsels, 1u);
  EXPECT_GE(t.threads_used, 1);
}

TEST(ShardedExecution, SingleShardStillCrossesTheWire) {
  // num_shards = 1 exercises the full serialization boundary — useful both
  // as a smoke test for the wire format and as the degenerate case of the
  // identity guarantee.
  auto engine = MakeEngine(1);
  QueryTelemetry tel;
  auto r = engine->Execute(Workload()[0], {.telemetry = &tel});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(tel.shards_used, 1);
  EXPECT_GT(tel.bytes_exchanged, 0u);
}

// A sharded query's compile telemetry comes from its own slices, never from
// the engine-wide cache counters: a compile another caller runs on the same
// engine while this query is in flight must not land in its numbers.
TEST(ShardedExecution, CompileTelemetryIsPerQuery) {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;  // the hook blocks exactly once, when armed
  bool held = false;
  bool released = false;
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_shards = 2;
  opts.morsel_rows = kTestMorselRows;
  opts.morsel_boundary_hook = [&](uint64_t) {
    std::unique_lock<std::mutex> lk(mu);
    if (!armed) return;
    armed = false;
    held = true;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
  };
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);

  const std::string warm_query =
      "SELECT count(*), sum(l_tax) FROM lineitem_json WHERE l_orderkey < 30";
  ASSERT_TRUE(engine.Execute(warm_query).ok());  // compiles; the shape is warm now
  {
    std::lock_guard<std::mutex> lk(mu);
    armed = true;
  }
  QueryTelemetry held_tel;
  Status held_status = Status::OK();
  bool finished = false;
  std::thread held_query([&] {
    CallOptions call;
    call.telemetry = &held_tel;
    held_status = engine.Execute(warm_query, call).status();
    std::lock_guard<std::mutex> lk(mu);
    finished = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return held || finished; });
  }

  // While the warm query waits at a morsel boundary, a second caller
  // compiles a shape the engine has never seen.
  QueryTelemetry other_tel;
  CallOptions other_call;
  other_call.telemetry = &other_tel;
  auto other = engine.Execute(
      "SELECT max(l_quantity), count(*) FROM lineitem_json WHERE l_linenumber = 2", other_call);
  {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
  }
  cv.notify_all();
  held_query.join();

  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE(other_tel.jit_cache_hit);
  EXPECT_GT(other_tel.compile_ms, 0.0);
  ASSERT_TRUE(held) << "the warm query never reached a morsel boundary";
  ASSERT_TRUE(held_status.ok()) << held_status.ToString();
  EXPECT_EQ(held_tel.shards_used, 2);
  EXPECT_TRUE(held_tel.used_jit) << held_tel.fallback_reason;
  EXPECT_TRUE(held_tel.jit_cache_hit) << "the held query compiled nothing";
  EXPECT_EQ(held_tel.compile_ms, 0.0) << "another caller's compile leaked in";
}

// With the compiled-query cache disabled every shard compiles in its own
// thread: the query reports those compiles, and execute_ms (wall time less
// the compile the morsels waited on) stays a real duration.
TEST(ShardedExecution, CacheDisabledShardsReportTheirCompiles) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_shards = 2;
  opts.morsel_rows = kTestMorselRows;
  opts.jit_cache_capacity = 0;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  QueryTelemetry t;
  auto r = engine.Execute("SELECT count(*), sum(l_tax) FROM lineitem_json WHERE l_orderkey < 30",
                          {.telemetry = &t});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(t.shards_used, 2);
  EXPECT_TRUE(t.used_jit) << t.fallback_reason;
  EXPECT_FALSE(t.jit_cache_hit);
  EXPECT_GT(t.compile_ms, 0.0);
  EXPECT_GE(t.execute_ms, 0.0);
}

TEST(ShardedExecution, NonShardablePlansKeepTheirNormalPath) {
  // Outer joins need a global unmatched-drain, so the coordinator declines
  // them; the engine answers through the regular (morsel-parallel) path
  // with shard telemetry zeroed.
  auto make_plan = [] {
    OpPtr scan_o = Operator::Scan("orders_json", "o");
    OpPtr scan_l = Operator::Scan("lineitem_json", "l");
    ExprPtr pred = Expr::Bin(BinOp::kEq, Expr::Proj(Expr::Var("o"), "o_orderkey"),
                             Expr::Proj(Expr::Var("l"), "l_orderkey"));
    OpPtr join = Operator::Join(scan_o, scan_l, pred, /*outer=*/true);
    return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"}});
  };
  auto unsharded = MakeEngine(0)->ExecutePlan(make_plan());
  auto engine = MakeEngine(4);
  QueryTelemetry tel;
  auto sharded = engine->ExecutePlan(make_plan(), {.telemetry = &tel});
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectIdentical(*unsharded, *sharded, "outer join under num_shards=4");
  EXPECT_EQ(tel.shards_used, 0);
  EXPECT_EQ(tel.bytes_exchanged, 0u);
}

TEST(ShardedExecution, ComposesWithCaching) {
  // Cache population happens before routing; the rewritten CacheScan leaf
  // shards like any other splittable scan.
  auto baseline_engine = MakeEngine(0, 1, /*caching=*/true);
  auto sharded_engine = MakeEngine(2, 1, /*caching=*/true);
  const std::string q =
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_csv WHERE l_orderkey < 40";
  QueryTelemetry tel;
  for (int round = 0; round < 2; ++round) {  // cold build, then cache hit
    auto a = baseline_engine->Execute(q);
    auto b = sharded_engine->Execute(q, {.telemetry = &tel});
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdentical(*a, *b, "cached CSV aggregate, round " + std::to_string(round));
  }
  EXPECT_TRUE(tel.used_cache);
  EXPECT_GT(tel.shards_used, 0);
}

// ---------------------------------------------------------------------------
// PartialResult wire format
// ---------------------------------------------------------------------------

/// Round-trips an aggregator and checks it is observationally identical:
/// same Final() now, and same Final() after merging the same extra partial
/// (the merge exercises internal state — int/float promotion flags, seen
/// bits — that Final() alone might mask).
void ExpectAggregatorRoundTrips(const Aggregator& a, const Aggregator& extra) {
  WireWriter w;
  a.Serialize(&w);
  std::string bytes = w.Take();
  WireReader r(bytes);
  auto back = Aggregator::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(r.AtEnd());
  EXPECT_TRUE(a.Final().Equals(back->Final()))
      << a.Final().ToString() << " vs " << back->Final().ToString();
  Aggregator merged_orig = a;
  Aggregator merged_back = *back;
  merged_orig.Merge(extra);
  merged_back.Merge(extra);
  EXPECT_TRUE(merged_orig.Final().Equals(merged_back.Final()))
      << merged_orig.Final().ToString() << " vs " << merged_back.Final().ToString();
}

Value RandomValue(std::mt19937* rng) {
  switch ((*rng)() % 4) {
    case 0: return Value::Int(static_cast<int64_t>((*rng)()) - (1 << 30));
    case 1: return Value::Float(std::ldexp(static_cast<double>((*rng)()), -16) - 1000.0);
    case 2: return Value::Str("s" + std::to_string((*rng)() % 1000));
    default: return Value::Boolean((*rng)() % 2 == 0);
  }
}

TEST(PartialResultWire, AggregatorRoundTripProperty) {
  const std::vector<Monoid> monoids = {Monoid::kSum, Monoid::kCount, Monoid::kMax,
                                       Monoid::kMin, Monoid::kAnd, Monoid::kOr,
                                       Monoid::kBag, Monoid::kList, Monoid::kSet};
  for (uint32_t seed = 0; seed < 25; ++seed) {
    std::mt19937 rng(seed);
    for (Monoid m : monoids) {
      Aggregator a(m);
      Aggregator extra(m);
      const int adds = static_cast<int>(rng() % 6);  // 0 adds = zero element
      for (int i = 0; i < adds; ++i) {
        Value v;
        switch (m) {
          case Monoid::kAnd:
          case Monoid::kOr: v = Value::Boolean(rng() % 2 == 0); break;
          case Monoid::kSum: v = rng() % 2 == 0 ? Value::Int(static_cast<int64_t>(rng() % 100))
                                                : Value::Float(0.25 * static_cast<double>(rng() % 64));
            break;
          case Monoid::kMax:
          case Monoid::kMin: v = rng() % 2 == 0 ? Value::Int(static_cast<int64_t>(rng() % 100))
                                                : Value::Int(-static_cast<int64_t>(rng() % 100));
            break;
          default: v = RandomValue(&rng); break;
        }
        a.Add(v);
        extra.Add(v);
      }
      // Collections also carry nested records across the wire.
      if (m == Monoid::kBag || m == Monoid::kList) {
        a.Add(Value::MakeRecord({"k", "vals"},
                                {Value::Int(7), Value::MakeList({Value::Float(1.5),
                                                                 Value::Null()})}));
      }
      ExpectAggregatorRoundTrips(a, extra);
    }
  }
}

/// Nest over d (x: {k int, v float, s string}) by x.k: c = count,
/// sv = sum(v), mv = max(v), ms = max(s) — typechecked, so its table holds
/// an int slot, two float slots and one Aggregator column.
OpPtr TypedWireNest() {
  TypeEnv env{{"x", Type::Record({{"k", Type::Int64()},
                                  {"v", Type::Float64()},
                                  {"s", Type::String()}})}};
  auto field = [&](const char* name) {
    ExprPtr e = Expr::Proj(Expr::Var("x"), name);
    EXPECT_TRUE(TypeCheck(e, env).ok());
    return e;
  };
  return Operator::Nest(Operator::Scan("d", "x"), field("k"), "k",
                        {{Monoid::kCount, nullptr, "c"},
                         {Monoid::kSum, field("v"), "sv"},
                         {Monoid::kMax, field("v"), "mv"},
                         {Monoid::kMax, field("s"), "ms"}});
}

EvalEnv WireRow(Value k, Value v, Value s) {
  EvalEnv env;
  env["x"] = Value::MakeRecord({"k", "v", "s"}, {std::move(k), std::move(v), std::move(s)});
  return env;
}

TEST(PartialResultWire, GroupTableRoundTrip) {
  // A real Nest operator drives AddRow; the reconstructed table must carry
  // the same layout and produce the same group records in the same
  // first-appearance order, and keep merging correctly.
  OpPtr nest = TypedWireNest();
  const GroupLayout layout = GroupLayout::ForNest(*nest);
  ASSERT_EQ(layout.ToString(), "[count:int, sum:float, max:float, max:aggregator]");

  GroupTable t(layout);
  for (int i = 0; i < 40; ++i) {
    // Every 9th row has a null key (one null group); key 6 only ever sees
    // null inputs (sum 0, max null).
    Value key = i % 9 == 0 ? Value::Null() : Value::Int(i % 7);
    const bool null_inputs = i % 7 == 6;
    ASSERT_TRUE(t.AddRow(*nest, WireRow(key, null_inputs ? Value::Null() : Value::Float(0.5 * i),
                                        null_inputs ? Value::Null()
                                                    : Value::Str("s" + std::to_string(i))))
                    .ok());
  }
  ASSERT_EQ(t.size(), 8u);  // keys 0..6 plus null

  WireWriter w;
  t.Serialize(&w);
  std::string bytes = w.Take();
  WireReader r(bytes);
  auto back = GroupTable::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(back->layout(), layout);
  ASSERT_EQ(back->size(), t.size());
  for (size_t g = 0; g < t.size(); ++g) {
    EXPECT_TRUE(t.GroupRecord(*nest, g).Equals(back->GroupRecord(*nest, g)))
        << "group " << g;
    if (t.Key(g).Equals(Value::Int(6))) {
      EXPECT_TRUE(back->Cell(g, 1).Equals(Value::Int(0))) << "unseen sum is 0";
      EXPECT_TRUE(back->Cell(g, 2).is_null()) << "unseen max is null";
      EXPECT_TRUE(back->Cell(g, 3).is_null()) << "unseen string max is null";
    }
  }

  // Merging new rows into the reconstructed table must find existing groups
  // (the rebuilt hash index) rather than duplicating them.
  GroupTable more(layout);
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(
        more.AddRow(*nest, WireRow(Value::Int(i % 7), Value::Float(1.0), Value::Str("z"))).ok());
  }
  GroupTable expect = t;  // copy
  GroupTable more_copy = more;
  expect.MergeFrom(std::move(more_copy));
  back->MergeFrom(std::move(more));
  ASSERT_EQ(back->size(), expect.size());
  for (size_t g = 0; g < expect.size(); ++g) {
    EXPECT_TRUE(expect.GroupRecord(*nest, g).Equals(back->GroupRecord(*nest, g)))
        << "merged group " << g;
  }
}

TEST(PartialResultWire, GroupTableKeysFollowValueEquals) {
  // 0.0 and -0.0 are one group, an int key and an equal float key are one
  // group (the first-seen key names it), NaN never matches, null keys
  // share one group — Value::Equals, exactly.
  OpPtr nest = TypedWireNest();
  GroupTable t(GroupLayout::ForNest(*nest));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Value k : {Value::Float(0.0), Value::Float(-0.0), Value::Int(2), Value::Float(2.0),
                  Value::Float(nan), Value::Float(nan), Value::Null(), Value::Null(),
                  Value::Str("a"), Value::Str("a"), Value::Boolean(true), Value::Int(1)}) {
    ASSERT_TRUE(t.AddRow(*nest, WireRow(k, Value::Float(1.0), Value::Str("x"))).ok());
  }
  ASSERT_EQ(t.size(), 8u);
  EXPECT_TRUE(t.Key(1).is_int()) << "Int(2) named the group Float(2.0) joined";
  EXPECT_TRUE(t.Cell(0, 0).Equals(Value::Int(2)));  // 0.0 and -0.0
  EXPECT_TRUE(t.Cell(1, 0).Equals(Value::Int(2)));  // 2 and 2.0
  EXPECT_TRUE(t.Cell(2, 0).Equals(Value::Int(1)));  // NaN
  EXPECT_TRUE(t.Cell(3, 0).Equals(Value::Int(1)));  // NaN
  EXPECT_TRUE(t.Cell(4, 0).Equals(Value::Int(2)));  // null, null
  EXPECT_TRUE(t.Cell(5, 0).Equals(Value::Int(2)));  // "a", "a"
}

TEST(PartialResultWire, GroupTableDecoderRejectsMalformedColumns) {
  // Hand-built payloads (GroupTable::Serialize's layout) that decode to a
  // Status, never a crash.
  auto header = [](WireWriter* w, uint64_t groups) {
    w->PutU64(1);  // one output: count in an int slot
    w->PutU8(static_cast<uint8_t>(Monoid::kCount));
    w->PutU8(static_cast<uint8_t>(GroupSlot::kInt));
    w->PutU64(groups);
  };
  {
    // A well-formed one-group table decodes.
    WireWriter w;
    header(&w, 1);
    w.PutStr(std::string(1, static_cast<char>(GroupKeyTag::kString)));
    w.PutI64(0);  // offset
    w.PutU64(3);  // length
    w.PutStr("abc");
    w.PutI64(5);  // the count slot
    w.PutI64(0);  // seen bytes
    std::string bytes = w.Take();
    WireReader r(bytes);
    auto t = GroupTable::Deserialize(&r);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(t->Key(0).Equals(Value::Str("abc")));
    EXPECT_TRUE(t->Cell(0, 0).Equals(Value::Int(5)));
  }
  {
    // A string key whose length runs past the key buffer.
    WireWriter w;
    header(&w, 1);
    w.PutStr(std::string(1, static_cast<char>(GroupKeyTag::kString)));
    w.PutI64(1);
    w.PutU64(1000);
    w.PutStr("abc");
    w.PutI64(5);
    w.PutI64(0);
    std::string bytes = w.Take();
    WireReader r(bytes);
    auto t = GroupTable::Deserialize(&r);
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.status().message().find("runs past"), std::string::npos)
        << t.status().ToString();
  }
  {
    // A key column cut short: two groups announced, one key's bits sent.
    WireWriter w;
    header(&w, 2);
    w.PutStr(std::string(2, static_cast<char>(GroupKeyTag::kInt)));
    w.PutI64(7);
    w.PutU64(0);
    std::string bytes = w.Take();
    WireReader r(bytes);
    EXPECT_FALSE(GroupTable::Deserialize(&r).ok());
  }
  {
    // An unknown key tag, and a duplicate key.
    for (const std::string& tags : {std::string("\x09"), std::string("\x01\x01")}) {
      WireWriter w;
      header(&w, tags.size());
      w.PutStr(tags);
      for (size_t g = 0; g < tags.size(); ++g) {
        w.PutI64(3);
        w.PutU64(0);
      }
      w.PutStr("");
      for (size_t g = 0; g < tags.size(); ++g) {
        w.PutI64(1);
        w.PutI64(0);
      }
      std::string bytes = w.Take();
      WireReader r(bytes);
      EXPECT_FALSE(GroupTable::Deserialize(&r).ok()) << tags.size();
    }
  }
}

TEST(PartialResultWire, PartialsEnvelopeRoundTrip) {
  PlanPartials p;
  p.nest = false;
  for (int m = 0; m < 3; ++m) {
    std::vector<Aggregator> aggs;
    aggs.emplace_back(Monoid::kCount);
    aggs.emplace_back(Monoid::kSum);
    aggs[0].Add(Value::Int(1));
    aggs[1].Add(Value::Float(1.25 * m));
    p.agg_morsels.push_back(std::move(aggs));
  }
  std::string bytes = PartialResult::FromPartials(std::move(p)).Serialize();
  auto back = PartialResult::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, PartialResult::Kind::kAggregates);
  ASSERT_EQ(back->partials.agg_morsels.size(), 3u);
  EXPECT_EQ(back->partials.agg_morsels[2][0].Final().i(), 1);
  EXPECT_TRUE(back->partials.agg_morsels[2][1].Final().Equals(Value::Float(2.5)));
}

TEST(PartialResultWire, RowBatchRoundTrip) {
  QueryResult rows;
  rows.columns = {"a", "b"};
  rows.rows.push_back({Value::Int(1), Value::Str("x")});
  rows.rows.push_back({Value::Null(), Value::MakeList({Value::Int(2), Value::Float(3.5)})});
  std::string bytes = PartialResult::FromRows(rows).Serialize();
  auto back = PartialResult::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, PartialResult::Kind::kRows);
  ASSERT_EQ(back->rows.columns, rows.columns);
  ASSERT_EQ(back->rows.rows.size(), rows.rows.size());
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    for (size_t c = 0; c < rows.rows[i].size(); ++c) {
      EXPECT_TRUE(rows.rows[i][c].Equals(back->rows.rows[i][c])) << i << "," << c;
    }
  }
}

TEST(PartialResultWire, RejectsMalformedPayloads) {
  EXPECT_FALSE(PartialResult::Deserialize("").ok());
  EXPECT_FALSE(PartialResult::Deserialize("junk bytes").ok());
  // Valid payload with the tail chopped off must fail cleanly, not crash.
  PlanPartials p;
  p.nest = false;
  std::vector<Aggregator> aggs;
  aggs.emplace_back(Monoid::kSum);
  aggs[0].Add(Value::Float(1.5));
  p.agg_morsels.push_back(std::move(aggs));
  std::string bytes = PartialResult::FromPartials(std::move(p)).Serialize();
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{5}}) {
    EXPECT_FALSE(PartialResult::Deserialize(std::string_view(bytes).substr(0, cut)).ok())
        << "cut at " << cut;
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(PartialResult::Deserialize(bytes + "x").ok());
}

// The full malformed-payload matrix across every PartialResult kind:
// EVERY proper prefix is a truncation and must fail cleanly, and trailing
// garbage after a complete payload is rejected (decode must consume the
// envelope exactly — the strict !AtEnd() rule). Length prefixes live at the
// front of each section, so no proper prefix can parse as a complete
// payload of its own.
TEST(PartialResultWire, MalformedMatrixAcrossAllKinds) {
  std::vector<std::pair<std::string, std::string>> payloads;

  {
    PlanPartials p;
    p.nest = false;
    for (int m = 0; m < 2; ++m) {
      std::vector<Aggregator> aggs;
      aggs.emplace_back(Monoid::kSum);
      aggs.emplace_back(Monoid::kCount);
      aggs[0].Add(Value::Float(1.5 * (m + 1)));
      aggs[1].Add(Value::Int(m));
      p.agg_morsels.push_back(std::move(aggs));
    }
    payloads.emplace_back("kAggregates",
                          PartialResult::FromPartials(std::move(p)).Serialize());
  }
  {
    OpPtr scan = Operator::Scan("d", "x");
    ExprPtr by = Expr::Proj(Expr::Var("x"), "k");
    OpPtr nest = Operator::Nest(
        scan, by, "k",
        {{Monoid::kCount, nullptr, "c"}, {Monoid::kSum, Expr::Proj(Expr::Var("x"), "v"), "s"}});
    GroupTable t(GroupLayout::ForNest(*nest));
    for (int i = 0; i < 12; ++i) {
      EvalEnv env;
      env["x"] = Value::MakeRecord({"k", "v"}, {Value::Int(i % 3), Value::Float(0.25 * i)});
      ASSERT_TRUE(t.AddRow(*nest, env).ok());
    }
    PlanPartials p;
    p.nest = true;
    p.group_morsels.push_back(std::move(t));
    payloads.emplace_back("kGroups",
                          PartialResult::FromPartials(std::move(p)).Serialize());
  }
  {
    QueryResult rows;
    rows.columns = {"a", "b"};
    rows.rows.push_back({Value::Int(7), Value::Str("hello")});
    rows.rows.push_back({Value::Null(), Value::MakeList({Value::Float(2.5)})});
    payloads.emplace_back("kRows", PartialResult::FromRows(rows).Serialize());
  }

  for (const auto& [kind, bytes] : payloads) {
    ASSERT_TRUE(PartialResult::Deserialize(bytes).ok()) << kind;
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(PartialResult::Deserialize(std::string_view(bytes).substr(0, cut)).ok())
          << kind << " truncated at " << cut;
    }
    EXPECT_FALSE(PartialResult::Deserialize(bytes + '\0').ok()) << kind;
    EXPECT_FALSE(PartialResult::Deserialize(bytes + "garbage").ok()) << kind;
  }
}

TEST(PartialResultWire, RejectsDeeplyNestedValues) {
  // A crafted chain of single-element list headers passes every length
  // check; the reader must bail with InvalidArgument at its depth bound
  // instead of recursing until the stack overflows.
  WireWriter w;
  for (int i = 0; i < 100000; ++i) {
    w.PutU8(6);   // list tag (wire.cpp kTagList)
    w.PutU64(1);  // one nested element
  }
  w.PutU8(0);  // innermost: null
  std::string bytes = w.Take();
  WireReader r(bytes);
  auto v = r.ReadValue();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);

  // Nesting at the bound still round-trips.
  Value nested = Value::Int(1);
  for (int i = 0; i < WireReader::kMaxValueDepth - 1; ++i) nested = Value::MakeList({nested});
  WireWriter ok;
  ok.PutValue(nested);
  std::string ok_bytes = ok.Take();
  WireReader ok_reader(ok_bytes);
  auto back = ok_reader.ReadValue();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->Equals(nested));
}

/// Loopback transport that rewrites shard 0's decoded payload in flight.
class CorruptingTransport : public ShardTransport {
 public:
  explicit CorruptingTransport(std::function<void(PartialResult*)> corrupt)
      : corrupt_(std::move(corrupt)) {}
  Status Send(int shard_id, std::string bytes) override {
    return inner_.Send(shard_id, std::move(bytes));
  }
  Result<std::string> Collect(int shard_id) override {
    PROTEUS_ASSIGN_OR_RETURN(std::string bytes, inner_.Collect(shard_id));
    PROTEUS_ASSIGN_OR_RETURN(PartialResult partial, PartialResult::Deserialize(bytes));
    if (shard_id == 0) corrupt_(&partial);
    return partial.Serialize();
  }
  uint64_t bytes_exchanged() const override { return inner_.bytes_exchanged(); }

 private:
  std::function<void(PartialResult*)> corrupt_;
  LoopbackTransport inner_;
};


TEST(ShardedExecution, CoordinatorRejectsMismatchedPartials) {
  // The wire format is the coordinator's trust boundary: a wire-valid
  // payload whose aggregate vectors don't match the plan's outputs — wrong
  // arity, wrong monoid — must be rejected before the merge, not crash it.
  // Corrupt one shard's payload in flight.
  auto engine = MakeEngine(0);
  ExecContext ctx;
  ctx.catalog = &engine->catalog();
  ctx.plugins = &engine->plugins();
  ctx.caches = &engine->caches();
  ctx.morsel_rows = kTestMorselRows;

  auto make_plan = [] {
    OpPtr scan = Operator::Scan("lineitem_json", "l");
    return Operator::Reduce(scan, {{Monoid::kCount, nullptr, "n"},
                                   {Monoid::kMax, Expr::Proj(Expr::Var("l"), "l_quantity"),
                                    "m"}});
  };
  struct Case {
    const char* needle;
    std::function<void(PartialResult*)> corrupt;
  };
  const std::vector<Case> cases = {
      {"arity",
       [](PartialResult* p) {
         if (!p->partials.agg_morsels.empty()) p->partials.agg_morsels[0].pop_back();
       }},
      {"monoid",
       [](PartialResult* p) {
         if (!p->partials.agg_morsels.empty()) {
           p->partials.agg_morsels[0][1] = Aggregator(Monoid::kSum);  // plan says kMax
         }
       }},
  };
  for (const Case& c : cases) {
    ShardCoordinator coordinator(ctx, /*num_shards=*/2, /*threads_per_shard=*/1);
    CorruptingTransport transport(c.corrupt);
    ShardExecStats stats;
    auto r = coordinator.Run(make_plan(), &transport, &stats);
    ASSERT_FALSE(r.ok()) << "mismatched " << c.needle << " must be rejected";
    EXPECT_NE(r.status().message().find(c.needle), std::string::npos)
        << r.status().ToString();
  }
}

TEST(ShardedExecution, CoordinatorRejectsMismatchedGroupLayout) {
  // A group table whose column layout disagrees with the plan's Nest
  // outputs is rejected before the merge.
  auto engine = MakeEngine(0);
  ExecContext ctx;
  ctx.catalog = &engine->catalog();
  ctx.plugins = &engine->plugins();
  ctx.caches = &engine->caches();
  ctx.morsel_rows = kTestMorselRows;
  OpPtr nest = Operator::Nest(Operator::Scan("lineitem_json", "l"),
                              Expr::Proj(Expr::Var("l"), "l_linenumber"), "ln",
                              {{Monoid::kCount, nullptr, "n"}}, nullptr, "g");
  OpPtr plan = Operator::Reduce(nest, {{Monoid::kCount, nullptr, "groups"}});
  ShardCoordinator coordinator(ctx, /*num_shards=*/2, /*threads_per_shard=*/1);
  CorruptingTransport transport([](PartialResult* p) {
    GroupLayout wrong;
    wrong.outputs.push_back({Monoid::kCount, GroupSlot::kFloat});
    for (GroupTable& t : p->partials.group_morsels) t = GroupTable(wrong);
  });
  ShardExecStats stats;
  auto r = coordinator.Run(plan, &transport, &stats);
  ASSERT_FALSE(r.ok()) << "a mismatched group layout must be rejected";
  EXPECT_NE(r.status().message().find("group layout"), std::string::npos)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// LoopbackTransport
// ---------------------------------------------------------------------------

TEST(LoopbackTransport, SendCollectAndAccounting) {
  LoopbackTransport t;
  ASSERT_TRUE(t.Send(0, "abcd").ok());
  ASSERT_TRUE(t.Send(1, "efghij").ok());
  EXPECT_EQ(t.bytes_exchanged(), 10u);
  EXPECT_EQ(t.Send(0, "dup").code(), StatusCode::kAlreadyExists);
  auto a = t.Collect(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "abcd");
  EXPECT_EQ(t.Collect(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t.Collect(7).status().code(), StatusCode::kNotFound);
  auto b = t.Collect(1);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "efghij");
  // bytes_exchanged is cumulative (telemetry), not a queue depth.
  EXPECT_EQ(t.bytes_exchanged(), 10u);
}

}  // namespace
}  // namespace proteus
