// Morsel-driven parallel execution tests.
//
// The core contract: query results are *identical* — not just equal as
// multisets, but cell-for-cell identical including float bits and row order
// — for every worker count. Morsel boundaries, radix-build layout, and
// partial-aggregate merge order depend only on the data, so num_threads is
// purely a performance knob. The suite drives projections, selections,
// joins, group-bys, and unnests through num_threads ∈ {1, 2, 8}, plus unit
// coverage for the TaskScheduler, Aggregator::Merge, and the plug-in
// Split() API.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "src/common/task_scheduler.h"
#include "src/engine/aggregator.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

// Small morsels so the ~240-row test corpus still splits into many ranges.
constexpr uint64_t kTestMorselRows = 16;

std::unique_ptr<QueryEngine> MakeEngine(int num_threads) {
  EngineOptions opts;
  opts.mode = ExecMode::kInterp;
  opts.num_threads = num_threads;
  opts.morsel_rows = kTestMorselRows;
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

const std::vector<std::string>& Workload() {
  static const std::vector<std::string> queries = {
      // Projections (collection monoid: row order must also be stable).
      "SELECT l_orderkey, l_quantity FROM lineitem_json WHERE l_orderkey < 1000000",
      "SELECT l_orderkey, l_extendedprice FROM lineitem_bincol WHERE l_orderkey < 1000000",
      // Selections + aggregates over every format family.
      "SELECT count(*), max(l_quantity), sum(l_tax) FROM lineitem_json WHERE l_orderkey < 30",
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_csv WHERE l_orderkey < 40",
      "SELECT min(l_extendedprice * (1.0 - l_discount)) FROM lineitem_bincol",
      "SELECT sum(l_extendedprice) FROM lineitem_binrow WHERE l_linenumber = 2",
      // Joins (shared radix build, morsel-parallel probe).
      "SELECT count(*) FROM orders_bincol o JOIN lineitem_bincol l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 25",
      "SELECT count(*), max(o.o_totalprice) FROM orders_json o JOIN lineitem_json l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 40",
      // Group-bys (per-morsel partial groups merged in morsel order).
      "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_bincol "
      "WHERE l_orderkey < 30 GROUP BY l_linenumber",
      "SELECT l_linenumber, count(*), max(l_quantity) FROM lineitem_json "
      "GROUP BY l_linenumber",
      // Unnest over nested JSON collections.
      "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l "
      "WHERE l.l_quantity > 25.0",
  };
  return queries;
}

TEST(ParallelExecution, ResultsIdenticalAcrossThreadCounts) {
  auto baseline_engine = MakeEngine(1);
  for (const auto& q : Workload()) {
    auto baseline = baseline_engine->Execute(q);
    ASSERT_TRUE(baseline.ok()) << q << "\n" << baseline.status().ToString();
    for (int threads : {2, 8}) {
      auto engine = MakeEngine(threads);
      auto r = engine->Execute(q);
      ASSERT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
      ExpectIdentical(*baseline, *r, q + " @ " + std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelExecution, ParallelMatchesJitOracle) {
  // Cross-engine sanity: the 8-worker morsel path agrees (as a multiset,
  // with float tolerance) with the default single-threaded JIT engine.
  EngineOptions jit_opts;
  QueryEngine jit(jit_opts);
  testutil::RegisterAll(&jit);
  auto parallel = MakeEngine(8);
  for (const auto& q : Workload()) {
    auto a = jit.Execute(q);
    auto b = parallel->Execute(q);
    ASSERT_TRUE(a.ok()) << q << "\n" << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q << "\n" << b.status().ToString();
    EXPECT_TRUE(a->EqualsUnordered(*b, 1e-6)) << q << "\njit:\n"
                                              << a->ToString() << "\nparallel:\n"
                                              << b->ToString();
  }
}

TEST(ParallelExecution, TelemetryReportsThreadsAndMorsels) {
  auto engine = MakeEngine(4);
  auto r = engine->Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 1000000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryTelemetry& t = engine->telemetry();
  EXPECT_FALSE(t.used_jit);
  EXPECT_GT(t.morsels, 1u) << "corpus should split into multiple morsels";
  EXPECT_GE(t.threads_used, 1);
  EXPECT_LE(t.threads_used, 4);
}

TEST(ParallelExecution, JitModeRoutesEveryPlanToWorkers) {
  // mode=kJIT with workers: every plan runs the *parallel JIT* pipelines —
  // a Nest mid-chain included, as a pipeline breaker whose folded groups
  // drive the region above it.
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_threads = 8;
  opts.morsel_rows = kTestMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);

  auto r = engine.Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 30");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(engine.telemetry().used_jit);
  EXPECT_TRUE(engine.telemetry().jit_parallel);
  EXPECT_GT(engine.telemetry().morsels, 0u);

  // Nest-of-Nest: the inner Nest sits mid-chain under the outer one. It
  // folds first; the outer Nest's per-morsel partials range over its groups.
  OpPtr scan_l = Operator::Scan("lineitem_json", "l");
  OpPtr inner = Operator::Nest(scan_l, Expr::Proj(Expr::Var("l"), "l_linenumber"), "ln",
                               {{Monoid::kSum, Expr::Proj(Expr::Var("l"), "l_quantity"), "q"}},
                               nullptr, "g");
  OpPtr outer_nest =
      Operator::Nest(inner, Expr::Proj(Expr::Var("g"), "ln"), "ln2",
                     {{Monoid::kCount, nullptr, "c"}}, nullptr, "h");
  auto nested =
      engine.ExecutePlan(Operator::Reduce(outer_nest, {{Monoid::kCount, nullptr, "n"}}));
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_GT(engine.telemetry().morsels, 0u);
  EXPECT_TRUE(engine.telemetry().used_jit) << engine.telemetry().fallback_reason;
  EXPECT_TRUE(engine.telemetry().jit_parallel);
}

TEST(ParallelExecution, JitPathStaysSingleThreadedAndCorrect) {
  // At num_threads == 1 the parallel JIT drives its morsel frame on the one
  // calling thread: correct, and telemetry reports a single worker.
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  auto r = engine.Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 30");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine.telemetry().threads_used, 1);
}

TEST(ParallelExecution, OuterJoinRunsMorselParallelAndMatches) {
  // Outer joins run morsel-parallel (the lifted ROADMAP serial fallback):
  // per-morsel matched-build bitmaps are OR-merged, then the unmatched
  // build rows drain once. The SQL frontend does not expose outer joins;
  // build the plan directly. Results must be identical for every worker
  // count, including the unmatched rows' position in the output.
  auto make_plan = [](bool project) {
    OpPtr scan_o = Operator::Scan("orders_json", "o");
    OpPtr scan_l = Operator::Scan("lineitem_json", "l");
    ExprPtr pred = Expr::Bin(BinOp::kEq, Expr::Proj(Expr::Var("o"), "o_orderkey"),
                             Expr::Proj(Expr::Var("l"), "l_orderkey"));
    OpPtr join = Operator::Join(scan_o, scan_l, pred, /*outer=*/true);
    if (project) {
      // Bag projection: row order (probe stream, then unmatched drain) is
      // observable and must not depend on the worker count.
      ExprPtr rec = Expr::Record({"key", "qty"}, {Expr::Proj(Expr::Var("o"), "o_orderkey"),
                                                  Expr::Proj(Expr::Var("l"), "l_quantity")});
      return Operator::Reduce(join, {{Monoid::kBag, rec, "rows"}});
    }
    return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"}});
  };
  for (bool project : {false, true}) {
    auto a = MakeEngine(1)->ExecutePlan(make_plan(project));
    auto b8 = MakeEngine(8);
    auto b = b8->ExecutePlan(make_plan(project));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdentical(*a, *b, project ? "outer join rows" : "outer join count");
    EXPECT_GT(b8->telemetry().morsels, 0u) << "outer joins run morsel-parallel now";
  }
}

TEST(ParallelExecution, HardwareConcurrencyResolvesInTelemetry) {
  // num_threads = 0 asks for hardware concurrency; the engine must resolve
  // it at construction and report the actual worker count — not the raw 0 —
  // in options() and QueryTelemetry::threads_used.
  EngineOptions opts;
  opts.mode = ExecMode::kInterp;
  opts.num_threads = 0;
  opts.morsel_rows = kTestMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);

  const int resolved = engine.scheduler().num_threads();
  EXPECT_GE(resolved, 1);
  EXPECT_EQ(engine.options().num_threads, resolved);

  auto r = engine.Execute("SELECT count(*) FROM lineitem_json WHERE l_orderkey < 1000000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryTelemetry& t = engine.telemetry();
  EXPECT_GT(t.morsels, 0u);
  EXPECT_EQ(t.threads_used,
            static_cast<int>(std::min<uint64_t>(static_cast<uint64_t>(resolved), t.morsels)));
}

// ---------------------------------------------------------------------------
// TaskScheduler
// ---------------------------------------------------------------------------

TEST(TaskScheduler, RunsEveryTaskExactlyOnce) {
  TaskScheduler sched(4);
  constexpr uint64_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  ASSERT_TRUE(sched
                  .ParallelFor(kTasks,
                               [&](uint64_t t, int) {
                                 hits[t].fetch_add(1);
                                 return Status::OK();
                               })
                  .ok());
  for (uint64_t t = 0; t < kTasks; ++t) EXPECT_EQ(hits[t].load(), 1) << t;
}

TEST(TaskScheduler, ReportsLowestFailingTask) {
  TaskScheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    Status s = sched.ParallelFor(100, [&](uint64_t t, int) -> Status {
      if (t == 13 || t == 77) {
        return Status::Internal("task " + std::to_string(t) + " failed");
      }
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    // 13 always runs (cancellation is best-effort, but 13 < 77 and errors
    // report the lowest failing index that actually ran).
    EXPECT_NE(s.message().find("failed"), std::string::npos);
  }
}

TEST(TaskScheduler, NestedCallsRunInline) {
  TaskScheduler sched(2);
  std::atomic<int> total{0};
  ASSERT_TRUE(sched
                  .ParallelFor(8,
                               [&](uint64_t, int) {
                                 return sched.ParallelFor(8, [&](uint64_t, int) {
                                   total.fetch_add(1);
                                   return Status::OK();
                                 });
                               })
                  .ok());
  EXPECT_EQ(total.load(), 64);
}

TEST(TaskScheduler, FoldsWorkerCountersIntoCaller) {
  TaskScheduler sched(4);
  GlobalCounters().Reset();
  ASSERT_TRUE(sched
                  .ParallelFor(64,
                               [&](uint64_t, int) {
                                 GlobalCounters().tuples_scanned += 10;
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_EQ(GlobalCounters().tuples_scanned, 640u);
}

// ---------------------------------------------------------------------------
// Aggregator::Merge
// ---------------------------------------------------------------------------

TEST(AggregatorMerge, NumericMonoids) {
  Aggregator a(Monoid::kSum), b(Monoid::kSum);
  a.Add(Value::Int(3));
  b.Add(Value::Int(4));
  a.Merge(b);
  EXPECT_EQ(a.Final().i(), 7);

  Aggregator fa(Monoid::kSum), fb(Monoid::kSum);
  fa.Add(Value::Int(1));
  fb.Add(Value::Float(2.5));
  fa.Merge(fb);
  EXPECT_DOUBLE_EQ(fa.Final().f(), 3.5);

  Aggregator mx(Monoid::kMax), my(Monoid::kMax);
  mx.Add(Value::Int(5));
  my.Add(Value::Int(9));
  mx.Merge(my);
  EXPECT_EQ(mx.Final().i(), 9);

  Aggregator empty(Monoid::kMin), some(Monoid::kMin);
  some.Add(Value::Int(-2));
  empty.Merge(some);
  EXPECT_EQ(empty.Final().i(), -2);

  Aggregator c1(Monoid::kCount), c2(Monoid::kCount);
  c1.Add(Value::Int(1));
  c1.Add(Value::Int(1));
  c2.Add(Value::Int(1));
  c1.Merge(c2);
  EXPECT_EQ(c1.Final().i(), 3);
}

TEST(AggregatorMerge, CollectionMonoidsKeepMorselOrder) {
  Aggregator l1(Monoid::kList), l2(Monoid::kList);
  l1.Add(Value::Int(1));
  l1.Add(Value::Int(2));
  l2.Add(Value::Int(3));
  l1.Merge(l2);
  Value merged_list = l1.Final();
  const ValueList& items = merged_list.list();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].i(), 1);
  EXPECT_EQ(items[1].i(), 2);
  EXPECT_EQ(items[2].i(), 3);

  Aggregator s1(Monoid::kSet), s2(Monoid::kSet);
  s1.Add(Value::Int(1));
  s2.Add(Value::Int(1));
  s2.Add(Value::Int(2));
  s1.Merge(s2);
  Value merged_set = s1.Final();
  const ValueList& set = merged_set.list();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0].i(), 1);
  EXPECT_EQ(set[1].i(), 2);
}

// ---------------------------------------------------------------------------
// Plug-in Split() API
// ---------------------------------------------------------------------------

class SplitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = MakeEngine(1);
  }

  InputPlugin* MustOpen(const std::string& dataset) {
    auto info = engine_->catalog().Get(dataset);
    EXPECT_TRUE(info.ok());
    auto plugin = engine_->plugins().GetOrOpen(**info, nullptr);
    EXPECT_TRUE(plugin.ok());
    return *plugin;
  }

  std::unique_ptr<QueryEngine> engine_;
};

void ExpectCoversAllRecords(const std::vector<ScanRange>& ranges, uint64_t n,
                            uint64_t max_morsels) {
  ASSERT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), max_morsels);
  uint64_t expect_begin = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, expect_begin) << "ranges must be contiguous";
    EXPECT_LE(r.begin, r.end);
    expect_begin = r.end;
  }
  EXPECT_EQ(ranges.back().end, n) << "ranges must cover every record";
}

TEST_F(SplitTest, AllPluginsCoverAllRecordsContiguously) {
  for (const char* ds : {"lineitem_json", "lineitem_csv", "lineitem_bincol",
                         "lineitem_binrow", "orders_json", "spam"}) {
    InputPlugin* p = MustOpen(ds);
    ASSERT_NE(p, nullptr) << ds;
    for (uint64_t m : {1, 3, 7, 1000000}) {
      ExpectCoversAllRecords(p->Split(m), p->NumRecords(), std::max<uint64_t>(m, 1));
    }
  }
}

TEST_F(SplitTest, JsonSplitBalancesBytes) {
  InputPlugin* p = MustOpen("lineitem_json");
  ASSERT_NE(p, nullptr);
  auto ranges = p->Split(4);
  ASSERT_GT(ranges.size(), 1u);
  // Every morsel holds a similar number of records for this fairly uniform
  // corpus; mostly this asserts byte balancing did not degenerate.
  uint64_t min_size = UINT64_MAX, max_size = 0;
  for (const auto& r : ranges) {
    min_size = std::min(min_size, r.size());
    max_size = std::max(max_size, r.size());
  }
  EXPECT_GT(min_size, 0u);
  EXPECT_LE(max_size, 2 * min_size + 16);
}

// The reentrancy contract: 8 threads hammer ONE engine with mixed plans and
// every caller gets (a) exactly the rows a serial run produces and (b)
// telemetry attributed to its own query. The attribution check is a
// conservation law: per-query tasks_dealt / steals from CallOptions, summed
// over every query, must equal the shared scheduler's lifetime totals —
// which the old read-then-reset delta could never satisfy (concurrent
// queries double- and cross-counted each other's work). Run under TSan in
// CI, this is also the data-race regression test for the shared engine.
TEST(ConcurrentEngine, EightCallersShareOneEngineWithExactAttribution) {
  auto baseline_engine = MakeEngine(1);
  std::vector<QueryResult> baselines;
  for (const auto& q : Workload()) {
    auto r = baseline_engine->Execute(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    baselines.push_back(std::move(*r));
  }

  auto engine = MakeEngine(4);
  constexpr int kCallers = 8;
  constexpr int kRounds = 2;
  std::atomic<uint64_t> sum_dealt{0};
  std::atomic<uint64_t> sum_steals{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < Workload().size(); ++q) {
          const size_t idx = (q + c) % Workload().size();
          QueryTelemetry tel;
          CallOptions call;
          call.telemetry = &tel;
          auto r = engine->Execute(Workload()[idx], call);
          ASSERT_TRUE(r.ok()) << Workload()[idx] << ": " << r.status().ToString();
          ExpectIdentical(baselines[idx], *r,
                          "caller " + std::to_string(c) + " query " +
                              std::to_string(idx));
          sum_dealt.fetch_add(tel.tasks_dealt, std::memory_order_relaxed);
          sum_steals.fetch_add(tel.steals, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : callers) t.join();

  // Conservation: every dealt task and every steal of the engine's lifetime
  // belongs to exactly one query.
  EXPECT_EQ(sum_dealt.load(), engine->scheduler().total_dealt());
  EXPECT_EQ(sum_steals.load(), engine->scheduler().total_steals());
}

// Concurrent ParallelFor callers on one scheduler: every batch completes,
// every caller sees only its own error, and pool workers interleave across
// batches without dropping or double-running tasks.
TEST(TaskScheduler, ConcurrentBatchesRunEveryTaskExactlyOnce) {
  TaskScheduler sched(4);
  constexpr int kCallers = 6;
  constexpr uint64_t kTasks = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) {
    std::vector<std::atomic<int>> init(kTasks);
    v.swap(init);
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      TaskScheduler::BatchStats stats;
      Status s;
      {
        TaskScheduler::StatsScope scope(&stats);
        s = sched.ParallelFor(kTasks, [&](uint64_t t, int) {
          hits[c][t].fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
      }
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(stats.dealt, kTasks);
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (uint64_t t = 0; t < kTasks; ++t) {
      ASSERT_EQ(hits[c][t].load(), 1) << "caller " << c << " task " << t;
    }
  }
}

TEST_F(SplitTest, SplitIsDeterministic) {
  InputPlugin* p = MustOpen("lineitem_json");
  ASSERT_NE(p, nullptr);
  auto a = p->Split(7);
  auto b = p->Split(7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

}  // namespace
}  // namespace proteus
