// Differential harness: the generated engine must agree with the Volcano
// interpreter on every query the JIT accepts — across formats, query shapes,
// and selectivities (parameterized sweep), plus randomized predicates and a
// fixed-seed randomized-plan property sweep.
//
// Since the parallel-JIT-pipelines PR the agreement contract is *cell
// identity*, not multiset tolerance: generated pipelines are emitted with a
// (morsel_begin, morsel_end) range parameter and driven over the same
// Split() morsel decomposition the interpreter uses, per-morsel partials
// merging through the same fold. So for every covered plan shape, JIT
// results must be cell-for-cell identical — float bits and row order
// included — across num_threads ∈ {1, 2, 4}, to the interpreter, and
// composed with num_shards. The matrix below drives scans, selections,
// joins, outer joins, group-bys, and unnest through all four plug-ins.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>

#include "src/common/counters.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

// Small morsels so the ~240-row corpus splits into many ranges and the
// merge order is actually exercised.
constexpr uint64_t kDiffMorselRows = 16;

struct EquivCase {
  std::string name;
  std::string query;
};

class JitEquivTest : public ::testing::TestWithParam<EquivCase> {};

QueryResult RunMode(const std::string& q, ExecMode mode, bool* used_jit) {
  EngineOptions opts;
  opts.mode = mode;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  QueryTelemetry tel;
  auto r = engine.Execute(q, {.telemetry = &tel});
  EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
  if (used_jit != nullptr) *used_jit = tel.used_jit;
  return r.ok() ? *r : QueryResult{};
}

/// One engine run with full telemetry, at a given thread/shard fan-out.
struct RunInfo {
  QueryResult result;
  QueryTelemetry telemetry;
  Status status = Status::OK();
};

RunInfo RunConfig(const std::string& q, ExecMode mode, int threads, int shards = 0) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.num_shards = shards;
  opts.morsel_rows = kDiffMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  RunInfo info;
  auto r = engine.Execute(q, {.telemetry = &info.telemetry});
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  return info;
}

RunInfo RunPlanConfig(const std::function<OpPtr()>& make_plan, ExecMode mode, int threads) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.morsel_rows = kDiffMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  RunInfo info;
  auto r = engine.ExecutePlan(make_plan(), {.telemetry = &info.telemetry});
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  return info;
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

TEST_P(JitEquivTest, JitMatchesInterpreter) {
  const EquivCase& c = GetParam();
  bool used_jit = false;
  QueryResult jit = RunMode(c.query, ExecMode::kJIT, &used_jit);
  QueryResult interp = RunMode(c.query, ExecMode::kInterp, nullptr);
  EXPECT_TRUE(used_jit) << "query unexpectedly fell back: " << c.query;
  EXPECT_TRUE(jit.EqualsUnordered(interp, 1e-6))
      << c.query << "\nJIT:\n"
      << jit.ToString() << "\nInterp:\n"
      << interp.ToString();
}

std::vector<EquivCase> SweepCases() {
  std::vector<EquivCase> cases;
  // Selectivity sweep (the paper's 10/20/50/100%) x format x template.
  for (int sel : {6, 12, 30, 60}) {  // of 60 orders
    for (const char* ds : {"lineitem_bincol", "lineitem_binrow", "lineitem_csv",
                           "lineitem_json", "lineitem_json_shuffled"}) {
      std::string s = std::to_string(sel);
      cases.push_back({std::string(ds) + "_count_" + s,
                       "SELECT count(*) FROM " + std::string(ds) + " WHERE l_orderkey < " + s});
      cases.push_back({std::string(ds) + "_agg4_" + s,
                       "SELECT count(*), max(l_quantity), sum(l_tax), min(l_discount) FROM " +
                           std::string(ds) + " WHERE l_orderkey < " + s});
      cases.push_back(
          {std::string(ds) + "_preds_" + s,
           "SELECT count(*) FROM " + std::string(ds) + " WHERE l_orderkey < " + s +
               " and l_quantity < 40.0 and l_discount < 0.08 and l_tax < 0.06"});
      cases.push_back({std::string(ds) + "_group_" + s,
                       "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM " +
                           std::string(ds) + " WHERE l_orderkey < " + s +
                           " GROUP BY l_linenumber"});
    }
    std::string s = std::to_string(sel);
    cases.push_back({"join_bincol_" + s,
                     "SELECT count(*), max(o.o_totalprice) FROM orders_bincol o JOIN "
                     "lineitem_bincol l ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < " +
                         s});
    cases.push_back({"join_json_" + s,
                     "SELECT count(*), max(o.o_totalprice) FROM orders_json o JOIN "
                     "lineitem_json l ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < " +
                         s});
    cases.push_back({"unnest_" + s,
                     "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l WHERE "
                     "l.l_orderkey < " +
                         s});
  }
  // Strings, projections, comprehension syntax.
  cases.push_back({"str_eq_csv",
                   "SELECT count(*) FROM lineitem_csv WHERE l_shipmode = 'RAIL'"});
  cases.push_back({"str_eq_json",
                   "SELECT count(*) FROM lineitem_json WHERE l_shipmode = 'SHIP'"});
  cases.push_back({"str_group",
                   "SELECT l_shipmode, count(*), max(l_quantity) FROM lineitem_bincol "
                   "GROUP BY l_shipmode"});
  cases.push_back({"projection_rows",
                   "SELECT o_orderkey, o_totalprice FROM orders_bincol WHERE o_orderkey < 17"});
  cases.push_back({"comp_record_yield",
                   "for { s <- spam, s.body_len > 3000 } "
                   "yield bag <id: s.mail_id, n: s.body_len>"});
  cases.push_back({"comp_nested_path",
                   "for { s <- spam, s.origin.country = 'RU' } yield count"});
  cases.push_back({"comp_unnest_elem",
                   "for { s <- spam, k <- s.classes, k.label > 10 } yield (count, max k.label)"});
  cases.push_back({"arith_expr",
                   "SELECT sum(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)) "
                   "FROM lineitem_bincol WHERE l_orderkey < 30"});
  cases.push_back({"three_way_join",
                   "SELECT count(*) FROM lineitem_bincol l JOIN orders_bincol o ON "
                   "l.l_orderkey = o.o_orderkey JOIN orders_json oj ON "
                   "o.o_orderkey = oj.o_orderkey WHERE l.l_orderkey < 21"});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JitEquivTest, ::testing::ValuesIn(SweepCases()),
                         [](const auto& info) { return info.param.name; });

// Randomized predicates: conjunctions of range predicates over numeric
// lineitem columns with random thresholds must agree in both engines.
TEST(JitEquivRandom, RandomRangePredicates) {
  std::mt19937_64 rng(2016);
  std::uniform_int_distribution<int> key(0, 60);
  std::uniform_real_distribution<double> qty(1, 50), disc(0, 0.1), tax(0, 0.08);
  const char* datasets[] = {"lineitem_bincol", "lineitem_csv", "lineitem_json"};
  for (int trial = 0; trial < 12; ++trial) {
    std::ostringstream q;
    q.precision(6);
    q << "SELECT count(*), sum(l_quantity) FROM " << datasets[trial % 3] << " WHERE ";
    q << "l_orderkey < " << key(rng);
    if (trial % 2 == 0) q << " and l_quantity < " << qty(rng);
    if (trial % 3 == 0) q << " and l_discount < " << disc(rng);
    if (trial % 4 == 0) q << " and l_tax >= " << tax(rng);
    bool used_jit = false;
    QueryResult a = RunMode(q.str(), ExecMode::kJIT, &used_jit);
    QueryResult b = RunMode(q.str(), ExecMode::kInterp, nullptr);
    EXPECT_TRUE(used_jit);
    EXPECT_TRUE(a.EqualsUnordered(b, 1e-6)) << q.str();
  }
}

// Caching must not change results: run the same query twice with caching on
// (second run reads from cache) and compare to the uncached interpreter.
TEST(JitEquivRandom, CachedRunsMatchUncached) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.cache_policy.enabled = true;
  QueryEngine cached(opts);
  testutil::RegisterAll(&cached);

  std::string q =
      "SELECT count(*), max(l_quantity) FROM lineitem_json WHERE l_orderkey < 30";
  auto first = cached.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  QueryTelemetry tel;
  auto second = cached.Execute(q, {.telemetry = &tel});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(tel.used_cache);

  QueryResult oracle = RunMode(q, ExecMode::kInterp, nullptr);
  EXPECT_TRUE(first->EqualsUnordered(oracle, 1e-6));
  EXPECT_TRUE(second->EqualsUnordered(oracle, 1e-6));
}

// ---------------------------------------------------------------------------
// Differential matrix: parallel JIT ≡ serial JIT ≡ interpreter, cell for
// cell, across num_threads ∈ {1, 2, 4} × all four plug-ins × plan shapes.
// ---------------------------------------------------------------------------

struct DiffCase {
  std::string name;
  std::string query;
};

class JitDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(JitDifferentialTest, CellIdenticalAcrossThreadsAndEngines) {
  const DiffCase& c = GetParam();
  // Interpreter oracle at one thread — itself morsel-driven over the same
  // decomposition, which is exactly why cell identity is achievable.
  RunInfo oracle = RunConfig(c.query, ExecMode::kInterp, 1);
  ASSERT_TRUE(oracle.status.ok()) << c.query << "\n" << oracle.status.ToString();
  for (int threads : {1, 2, 4}) {
    RunInfo jit = RunConfig(c.query, ExecMode::kJIT, threads);
    ASSERT_TRUE(jit.status.ok()) << c.query << "\n" << jit.status.ToString();
    ExpectIdentical(oracle.result, jit.result,
                    c.query + " @ jit threads=" + std::to_string(threads));
    EXPECT_TRUE(jit.telemetry.used_jit)
        << c.query << " unexpectedly fell back: " << jit.telemetry.fallback_reason;
    EXPECT_TRUE(jit.telemetry.jit_parallel) << c.query;
    EXPECT_GT(jit.telemetry.morsels, 0u) << c.query;
    EXPECT_LE(jit.telemetry.threads_used, threads) << c.query;
  }
}

std::vector<DiffCase> DiffCases() {
  std::vector<DiffCase> cases;
  const char* lineitems[] = {"lineitem_bincol", "lineitem_binrow", "lineitem_csv",
                             "lineitem_json"};
  for (const char* ds : lineitems) {
    std::string d(ds);
    // Scans: bag projections make row order observable.
    cases.push_back({d + "_scan_rows",
                     "SELECT l_orderkey, l_quantity, l_extendedprice FROM " + d +
                         " WHERE l_orderkey < 1000000"});
    // Selections + the full scalar-aggregate set (count/sum/max/min).
    cases.push_back({d + "_select_aggs",
                     "SELECT count(*), sum(l_tax), max(l_quantity), min(l_discount) FROM " +
                         d + " WHERE l_orderkey < 30 and l_quantity < 40.0"});
    // Float-heavy arithmetic: per-morsel partial sums must fold identically.
    cases.push_back({d + "_float_sum",
                     "SELECT sum(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)) FROM " +
                         d + " WHERE l_orderkey < 45"});
    // Group-bys: int keys and string keys, multiple monoids.
    cases.push_back({d + "_group_int",
                     "SELECT l_linenumber, count(*), sum(l_extendedprice), max(l_quantity) "
                     "FROM " + d + " WHERE l_orderkey < 40 GROUP BY l_linenumber"});
    cases.push_back({d + "_group_str",
                     "SELECT l_shipmode, count(*), min(l_extendedprice) FROM " + d +
                         " GROUP BY l_shipmode"});
    // Joins: shared radix build once, probes fan out per morsel.
    cases.push_back({d + "_join",
                     "SELECT count(*), max(o.o_totalprice) FROM orders_bincol o JOIN " + d +
                         " l ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 40"});
  }
  // Join over raw-format build sides and three-way chains.
  cases.push_back({"join_json_build",
                   "SELECT count(*), max(o.o_totalprice) FROM orders_json o JOIN "
                   "lineitem_csv l ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 35"});
  cases.push_back({"three_way_join",
                   "SELECT count(*) FROM lineitem_bincol l JOIN orders_bincol o ON "
                   "l.l_orderkey = o.o_orderkey JOIN orders_json oj ON "
                   "o.o_orderkey = oj.o_orderkey WHERE l.l_orderkey < 21"});
  // Join feeding a group-by (build once + per-morsel group partials).
  cases.push_back({"join_group",
                   "SELECT l.l_linenumber, count(*), sum(o.o_totalprice) FROM orders_json o "
                   "JOIN lineitem_json l ON o.o_orderkey = l.l_orderkey "
                   "GROUP BY l.l_linenumber"});
  // Unnest over nested JSON collections, alone and under aggregation.
  cases.push_back({"unnest_count",
                   "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l WHERE "
                   "l.l_orderkey < 30"});
  cases.push_back({"unnest_aggs",
                   "SELECT count(*), max(l.l_quantity) FROM orders_denorm o, "
                   "UNNEST(o.lineitems) l WHERE l.l_quantity > 10.0"});
  cases.push_back({"unnest_comp",
                   "for { s <- spam, k <- s.classes, k.label > 10 } yield (count, max k.label)"});
  // Set-monoid roots: per-morsel dedup sinks merged in morsel order keep
  // first-appearance row order identical to the interpreter — across all
  // four plug-ins, with duplicates guaranteed by the narrow key domains.
  for (const char* ds : {"lineitem_bincol", "lineitem_binrow", "lineitem_csv",
                         "lineitem_json"}) {
    std::string d(ds);
    cases.push_back({d + "_set_int",
                     "for { l <- " + d + " } yield set l.l_linenumber"});
    cases.push_back({d + "_set_record",
                     "for { l <- " + d + ", l.l_orderkey < 40 } "
                     "yield set <key: l.l_orderkey, n: l.l_linenumber>"});
  }
  cases.push_back({"set_str", "for { l <- lineitem_csv } yield set l.l_shipmode"});
  // Mixed-kind if-branches (int vs float) widen like the arithmetic path
  // instead of bailing — pinned against the interpreter in scalar, bag, and
  // extreme positions.
  cases.push_back({"if_mixed_sum",
                   "SELECT sum(if l_quantity > 25.0 then l_extendedprice else 0), count(*) "
                   "FROM lineitem_bincol WHERE l_orderkey < 40"});
  cases.push_back({"if_mixed_rows",
                   "SELECT l_orderkey, if l_quantity > 25.0 then l_extendedprice else 0 "
                   "FROM lineitem_json WHERE l_orderkey < 15"});
  cases.push_back({"if_mixed_minmax",
                   "SELECT min(if l_quantity > 25.0 then l_extendedprice else 1), "
                   "max(if l_discount < 0.05 then 0 else l_tax) FROM lineitem_csv"});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, JitDifferentialTest, ::testing::ValuesIn(DiffCases()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Outer joins, outer unnest, and set outputs now run through generated code:
// per-morsel matched-build bitmaps + one-shot generated drain passes, a
// null-element emission branch, and set-dedup collection sinks. Every case
// pins used_jit = true / jit_parallel = true with an empty fallback_reason
// and results cell-identical (float bits + row order) to the interpreter
// across num_threads ∈ {1, 2, 4}, cold and warm cache.
// ---------------------------------------------------------------------------

/// Writes the outer-shape corpora once per process: orders whose keys have
/// no lineitems ("widows"), JSON rows with the join key absent (the
/// interpreter binds SQL null there), and denormalized orders with empty
/// lineitem arrays (outer-unnest rows).
const std::string& OuterCorpusDir() {
  static const std::string dir = [] {
    const testutil::Corpus& c = testutil::Corpus::Get();
    {
      std::ofstream f(c.dir + "/widow_orders.json");
      f << R"({"o_orderkey":1,"o_custkey":1,"o_totalprice":100.5,"o_shippriority":1,"o_comment":"real"})"
        << "\n";
      for (int i = 0; i < 7; ++i) {
        f << "{\"o_orderkey\":" << 1000 + i << ",\"o_custkey\":" << i % 3
          << ",\"o_totalprice\":" << 50.25 + i
          << ",\"o_shippriority\":0,\"o_comment\":\"widow\"}\n";
      }
      f << R"({"o_orderkey":2,"o_custkey":2,"o_totalprice":200.25,"o_shippriority":2,"o_comment":"real"})"
        << "\n";
    }
    {
      // Every third row lacks l_orderkey entirely: a SQL-null probe (or
      // build) key that must match nothing in either engine.
      std::ofstream f(c.dir + "/nullkey_lineitem.json");
      for (int i = 0; i < 36; ++i) {
        if (i % 3 == 0) {
          f << "{\"l_linenumber\":" << i % 7 << ",\"l_quantity\":" << 5.5 + i
            << ",\"l_extendedprice\":" << 100.25 + i
            << ",\"l_discount\":0.01,\"l_tax\":0.02,\"l_shipmode\":\"RAIL\","
               "\"l_comment\":\"nokey\"}\n";
        } else {
          f << "{\"l_orderkey\":" << i % 5 + 1 << ",\"l_linenumber\":" << i % 7
            << ",\"l_quantity\":" << 5.5 + i << ",\"l_extendedprice\":" << 100.25 + i
            << ",\"l_discount\":0.01,\"l_tax\":0.02,\"l_shipmode\":\"AIR\","
               "\"l_comment\":\"keyed\"}\n";
        }
      }
    }
    {
      // Orders 3, 6, 9, ... have empty lineitems arrays.
      std::ofstream f(c.dir + "/holey_denorm.json");
      for (int i = 1; i <= 21; ++i) {
        f << "{\"o_orderkey\":" << i << ",\"o_custkey\":" << i % 4
          << ",\"o_totalprice\":" << 10.5 * i << ",\"lineitems\":[";
        if (i % 3 != 0) {
          f << "{\"l_orderkey\":" << i << ",\"l_linenumber\":1,\"l_quantity\":" << 2.5 + i
            << ",\"l_extendedprice\":30.75,\"l_discount\":0.02,\"l_tax\":0.01,"
               "\"l_shipmode\":\"MAIL\",\"l_comment\":\"one\"}";
          if (i % 2 == 0) {
            f << ",{\"l_orderkey\":" << i << ",\"l_linenumber\":2,\"l_quantity\":" << 7.5 + i
              << ",\"l_extendedprice\":41.5,\"l_discount\":0.03,\"l_tax\":0.02,"
                 "\"l_shipmode\":\"SHIP\",\"l_comment\":\"two\"}";
          }
        }
        f << "]}\n";
      }
    }
    return c.dir;
  }();
  return dir;
}

void RegisterOuterCorpus(QueryEngine* engine) {
  const std::string& dir = OuterCorpusDir();
  auto reg = [&](const std::string& name, const std::string& file, TypePtr type) {
    DatasetInfo info;
    info.name = name;
    info.format = DataFormat::kJSON;
    info.path = dir + "/" + file;
    info.type = std::move(type);
    ASSERT_TRUE(engine->RegisterDataset(info).ok()) << name;
  };
  reg("widow_orders", "widow_orders.json", datagen::OrdersSchema());
  reg("nullkey_lineitem", "nullkey_lineitem.json", datagen::LineitemSchema());
  reg("holey_denorm", "holey_denorm.json", datagen::OrdersDenormSchema());
}

RunInfo RunOuterPlan(const std::function<OpPtr()>& make_plan, ExecMode mode, int threads) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.morsel_rows = kDiffMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  RegisterOuterCorpus(&engine);
  RunInfo info;
  auto r = engine.ExecutePlan(make_plan(), {.telemetry = &info.telemetry});
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  return info;
}

/// Oracle vs generated code across thread counts, with the generated engine
/// required to actually run (and to say so).
void ExpectJitMatchesInterp(const std::function<OpPtr()>& make_plan, const std::string& what) {
  RunInfo oracle = RunOuterPlan(make_plan, ExecMode::kInterp, 1);
  ASSERT_TRUE(oracle.status.ok()) << what << "\n" << oracle.status.ToString();
  for (int threads : {1, 2, 4}) {
    RunInfo jit = RunOuterPlan(make_plan, ExecMode::kJIT, threads);
    ASSERT_TRUE(jit.status.ok()) << what << "\n" << jit.status.ToString();
    ExpectIdentical(oracle.result, jit.result, what + " @ threads=" + std::to_string(threads));
    EXPECT_TRUE(jit.telemetry.used_jit)
        << what << " fell back: " << jit.telemetry.fallback_reason;
    EXPECT_TRUE(jit.telemetry.jit_parallel) << what;
    EXPECT_TRUE(jit.telemetry.fallback_reason.empty()) << jit.telemetry.fallback_reason;
    EXPECT_GT(jit.telemetry.morsels, 0u) << what;
  }
}

ExprPtr Proj(const char* var, const char* field) { return Expr::Proj(Expr::Var(var), field); }

OpPtr WidowOuterJoin(const char* probe_ds) {
  OpPtr scan_o = Operator::Scan("widow_orders", "o");
  OpPtr scan_l = Operator::Scan(probe_ds, "l");
  ExprPtr pred =
      Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("l", "l_orderkey"));
  return Operator::Join(scan_o, scan_l, pred, /*outer=*/true);
}

TEST(JitOuterJoin, BagOutputWithNullProbeCellsCellIdentical) {
  auto make_plan = [] {
    ExprPtr rec = Expr::Record({"key", "price", "qty"},
                               {Proj("o", "o_orderkey"), Proj("o", "o_totalprice"),
                                Proj("l", "l_quantity")});
    return Operator::Reduce(WidowOuterJoin("lineitem_json"), {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(make_plan, "outer join bag");
  // Sanity: the widows actually exercise the drain — their probe cells are
  // SQL null in the merged result.
  RunInfo jit = RunOuterPlan(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok());
  size_t null_cells = 0;
  for (const auto& row : jit.result.rows) null_cells += row[2].is_null() ? 1 : 0;
  EXPECT_EQ(null_cells, 7u) << "one drained row per widow order";
}

TEST(JitOuterJoin, ScalarAggsSkipNullDrainInputs) {
  // count sees every drained row; max/sum over the probe side must ignore
  // them (null inputs never contribute to value monoids).
  auto make_plan = [] {
    return Operator::Reduce(WidowOuterJoin("lineitem_json"),
                            {{Monoid::kCount, nullptr, "n"},
                             {Monoid::kMax, Proj("l", "l_quantity"), "maxq"},
                             {Monoid::kSum, Proj("l", "l_extendedprice"), "sump"}});
  };
  ExpectJitMatchesInterp(make_plan, "outer join scalar aggs");
}

TEST(JitOuterJoin, GroupByAboveDrainCellIdentical) {
  // Group on a build-side key: drained widows form their own groups whose
  // probe-side aggregates stay empty (null result cells).
  auto make_plan = [] {
    OpPtr nest = Operator::Nest(WidowOuterJoin("lineitem_json"), Proj("o", "o_orderkey"),
                                "key", {{Monoid::kCount, nullptr, "n"},
                                        {Monoid::kMax, Proj("l", "l_quantity"), "maxq"}},
                                nullptr, "g");
    ExprPtr rec = Expr::Record(
        {"key", "n", "maxq"}, {Proj("g", "key"), Proj("g", "n"), Proj("g", "maxq")});
    return Operator::Reduce(nest, {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(make_plan, "outer join group-by");
}

TEST(JitOuterJoin, NullGroupKeyFromDrainedRows) {
  // Group on a *probe-side* field: every drained widow lands in the SQL-null
  // key group, exactly like the interpreter's boxed Null key.
  auto make_plan = [] {
    OpPtr nest = Operator::Nest(WidowOuterJoin("lineitem_json"), Proj("l", "l_linenumber"),
                                "ln", {{Monoid::kCount, nullptr, "n"}}, nullptr, "g");
    ExprPtr rec = Expr::Record({"ln", "n"}, {Proj("g", "ln"), Proj("g", "n")});
    return Operator::Reduce(nest, {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(make_plan, "outer join null group key");
}

TEST(JitOuterJoin, NullKeyProbeRowsMatchNothing) {
  // Probe rows whose JSON key field is absent are SQL-null keys: they match
  // nothing (inner and outer alike) in both engines.
  for (bool outer : {false, true}) {
    auto make_plan = [outer] {
      OpPtr scan_o = Operator::Scan("widow_orders", "o");
      OpPtr scan_l = Operator::Scan("nullkey_lineitem", "l");
      ExprPtr pred =
          Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("l", "l_orderkey"));
      OpPtr join = Operator::Join(scan_o, scan_l, pred, outer);
      return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"},
                                     {Monoid::kSum, Proj("l", "l_quantity"), "sumq"}});
    };
    ExpectJitMatchesInterp(make_plan, outer ? "null-key probe (outer)"
                                            : "null-key probe (inner)");
  }
}

TEST(JitOuterJoin, NullKeyBuildRowsDrainWithNullKeyCells) {
  // Build rows with an absent key never match but an outer join still keeps
  // them for the drain — emitting the key column itself as SQL null (the
  // null flag round-trips through the payload mask).
  auto make_plan = [] {
    OpPtr scan_l = Operator::Scan("nullkey_lineitem", "l");
    OpPtr scan_o = Operator::Scan("orders_json", "o");
    ExprPtr pred =
        Expr::Bin(BinOp::kEq, Proj("l", "l_orderkey"), Proj("o", "o_orderkey"));
    OpPtr join = Operator::Join(scan_l, scan_o, pred, /*outer=*/true);
    ExprPtr rec = Expr::Record({"lkey", "qty", "oprice"},
                               {Proj("l", "l_orderkey"), Proj("l", "l_quantity"),
                                Proj("o", "o_totalprice")});
    return Operator::Reduce(join, {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(make_plan, "null-key build rows");
  RunInfo jit = RunOuterPlan(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok());
  size_t null_keys = 0;
  for (const auto& row : jit.result.rows) null_keys += row[0].is_null() ? 1 : 0;
  EXPECT_EQ(null_keys, 12u) << "every third of 36 rows lacks the key";
}

TEST(JitOuterUnnest, EmptyCollectionsEmitNullElementRows) {
  // Outer unnest over arrays where every third is empty: the outer row is
  // emitted once with a null element in both engines.
  auto make_plan = [] {
    OpPtr scan = Operator::Scan("holey_denorm", "o");
    OpPtr unnest =
        Operator::Unnest(scan, {"o", "lineitems"}, "l", nullptr, /*outer=*/true);
    ExprPtr rec = Expr::Record({"okey", "qty"},
                               {Proj("o", "o_orderkey"), Proj("l", "l_quantity")});
    return Operator::Reduce(unnest, {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(make_plan, "outer unnest bag");
  RunInfo jit = RunOuterPlan(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok());
  size_t null_elems = 0;
  for (const auto& row : jit.result.rows) null_elems += row[1].is_null() ? 1 : 0;
  EXPECT_EQ(null_elems, 7u) << "orders 3,6,9,12,15,18,21 have empty arrays";
}

TEST(JitOuterUnnest, AggregatesOverNullElements) {
  auto make_plan = [] {
    OpPtr scan = Operator::Scan("holey_denorm", "o");
    OpPtr unnest =
        Operator::Unnest(scan, {"o", "lineitems"}, "l", nullptr, /*outer=*/true);
    return Operator::Reduce(unnest, {{Monoid::kCount, nullptr, "n"},
                                     {Monoid::kMin, Proj("l", "l_quantity"), "minq"},
                                     {Monoid::kSum, Proj("o", "o_totalprice"), "sump"}});
  };
  ExpectJitMatchesInterp(make_plan, "outer unnest aggs");
}

TEST(JitOuterJoin, WarmCacheStaysCellIdentical) {
  // Bitmaps, drain state, and set/dedup state are per-run, never baked into
  // the instruction stream: a warm (cache-hit) rerun of an outer join is
  // cell-identical with compile_ms == 0.
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_threads = 2;
  opts.morsel_rows = kDiffMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  RegisterOuterCorpus(&engine);
  auto make_plan = [] {
    ExprPtr rec = Expr::Record({"key", "qty"},
                               {Proj("o", "o_orderkey"), Proj("l", "l_quantity")});
    return Operator::Reduce(WidowOuterJoin("lineitem_json"), {{Monoid::kBag, rec, "rows"}});
  };
  QueryTelemetry tel;
  auto cold = engine.ExecutePlan(make_plan(), {.telemetry = &tel});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(tel.used_jit) << tel.fallback_reason;
  EXPECT_FALSE(tel.jit_cache_hit);
  auto warm = engine.ExecutePlan(make_plan(), {.telemetry = &tel});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(tel.used_jit);
  EXPECT_TRUE(tel.jit_cache_hit);
  EXPECT_EQ(tel.compile_ms, 0.0);
  ExpectIdentical(*cold, *warm, "outer join cold vs warm cache");
}

TEST(JitOuterJoin, ShardedEnginesDeclineButStillRunJit) {
  // Outer joins stay unshardable (the drain needs a global bitmap view);
  // the coordinator declines and the plan takes the normal parallel-JIT
  // path instead of the interpreter.
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_threads = 2;
  opts.num_shards = 2;
  opts.morsel_rows = kDiffMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  RegisterOuterCorpus(&engine);
  OpPtr plan = Operator::Reduce(WidowOuterJoin("lineitem_json"),
                                {{Monoid::kCount, nullptr, "n"}});
  QueryTelemetry tel;
  auto r = engine.ExecutePlan(std::move(plan), {.telemetry = &tel});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(tel.shards_used, 0);
  EXPECT_TRUE(tel.used_jit) << tel.fallback_reason;
  EXPECT_TRUE(tel.jit_parallel);
}

// ---------------------------------------------------------------------------
// Mid-chain Nest as a pipeline breaker: the Nest's input region folds first
// — one morsel, in row order, into the one typed GroupTable both engines
// write — and the region above is driven
// over its groups, split into morsels. Small morsels split the ~60 orderkey
// groups into several morsels, so the group-range decomposition and the
// partial merge are exercised at every thread count.
// ---------------------------------------------------------------------------

/// Nest(l <- `ds`) by l_orderkey as "ok": n = count, q = sum(l_quantity),
/// bound as g.
OpPtr OrderkeyNest(const char* ds) {
  return Operator::Nest(Operator::Scan(ds, "l"), Proj("l", "l_orderkey"), "ok",
                        {{Monoid::kCount, nullptr, "n"},
                         {Monoid::kSum, Proj("l", "l_quantity"), "q"}},
                        nullptr, "g");
}

OpPtr SelectAboveNest(const char* ds, ExprPtr pred) {
  return Operator::Select(OrderkeyNest(ds), std::move(pred));
}

TEST(JitMidChainNest, SelectAboveNestScalarRoot) {
  for (const char* ds : {"lineitem_bincol", "lineitem_json"}) {
    auto make_plan = [ds] {
      return Operator::Reduce(
          SelectAboveNest(ds, Expr::Bin(BinOp::kGt, Proj("g", "q"), Expr::Float(50.0))),
          {{Monoid::kCount, nullptr, "groups"},
           {Monoid::kSum, Proj("g", "n"), "rows"},
           {Monoid::kMax, Proj("g", "q"), "max_q"},
           {Monoid::kMin, Proj("g", "n"), "min_n"}});
    };
    ExpectJitMatchesInterp(make_plan, std::string("select above nest, scalar root: ") + ds);
  }
}

TEST(JitMidChainNest, SelectAboveNestBagRoot) {
  auto make_plan = [] {
    ExprPtr rec = Expr::Record({"ok", "n", "q"},
                               {Proj("g", "ok"), Proj("g", "n"), Proj("g", "q")});
    return Operator::Reduce(
        SelectAboveNest("lineitem_csv", Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(3))),
        {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(make_plan, "select above nest, bag root");
}

TEST(JitMidChainNest, SelectAboveNestSetRootDeduplicates) {
  // Per-morsel set sinks over the group ranges, merged in morsel order: the
  // group counts repeat, so first-appearance dedup is observable.
  auto make_plan = [] {
    return Operator::Reduce(
        SelectAboveNest("lineitem_bincol", Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(0))),
        {{Monoid::kSet, Proj("g", "n"), "ns"}});
  };
  ExpectJitMatchesInterp(make_plan, "select above nest, set root");
  RunInfo jit = RunOuterPlan(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
  EXPECT_LE(jit.result.rows.size(), 7u) << "group sizes must deduplicate";
}

TEST(JitMidChainNest, EmptySelectionAboveNestYieldsNullExtremes) {
  // No group passes: the scalar root sees zero rows, so max/min are SQL null
  // and count/sum their zeros — in both engines. The whole-relation generated
  // engine this path replaced emitted its register initializers here instead
  // (-inf, INT64_MAX, INT64_MIN).
  auto make_plan = [] {
    return Operator::Reduce(
        SelectAboveNest("lineitem_bincol",
                        Expr::Bin(BinOp::kGt, Proj("g", "q"), Expr::Float(1e12))),
        {{Monoid::kCount, nullptr, "groups"},
         {Monoid::kSum, Proj("g", "n"), "rows"},
         {Monoid::kMax, Proj("g", "q"), "max_q"},
         {Monoid::kMin, Proj("g", "n"), "min_n"},
         {Monoid::kMax, Proj("g", "ok"), "max_ok"}});
  };
  ExpectJitMatchesInterp(make_plan, "empty selection above nest");
  for (ExecMode mode : {ExecMode::kJIT, ExecMode::kInterp}) {
    RunInfo run = RunOuterPlan(make_plan, mode, 2);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    ASSERT_EQ(run.result.rows.size(), 1u);
    const auto& row = run.result.rows[0];
    EXPECT_EQ(row[0].i(), 0);
    EXPECT_EQ(row[1].i(), 0);
    EXPECT_TRUE(row[2].is_null()) << row[2].ToString();
    EXPECT_TRUE(row[3].is_null()) << row[3].ToString();
    EXPECT_TRUE(row[4].is_null()) << row[4].ToString();
  }
}

TEST(JitMidChainNest, JoinProbesNestLeaf) {
  // The small build side keeps the optimizer from swapping the Nest onto
  // the build side: the Nest drives the probe chain.
  auto make_plan = [] {
    ExprPtr pred = Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("g", "ok"));
    OpPtr build = Operator::Select(Operator::Scan("orders_bincol", "o"),
                                   Expr::Bin(BinOp::kLt, Proj("o", "o_orderkey"), Expr::Int(8)));
    OpPtr join = Operator::Join(build, OrderkeyNest("lineitem_json"), pred);
    return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"},
                                   {Monoid::kSum, Proj("o", "o_totalprice"), "price"},
                                   {Monoid::kMax, Proj("g", "q"), "max_q"}});
  };
  ExpectJitMatchesInterp(make_plan, "join probing a nest leaf");
}

TEST(JitMidChainNest, OuterJoinAboveNestLeafCompiles) {
  // Widow orders match no group: the drain binds every group field to SQL
  // null, typed from the Nest's group record.
  auto make_plan = [] {
    ExprPtr pred = Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("g", "ok"));
    OpPtr join = Operator::Join(Operator::Scan("widow_orders", "o"),
                                OrderkeyNest("lineitem_json"), pred, /*outer=*/true);
    ExprPtr rec = Expr::Record({"key", "n", "q"},
                               {Proj("o", "o_orderkey"), Proj("g", "n"), Proj("g", "q")});
    return Operator::Reduce(join, {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(make_plan, "outer join above a nest leaf");
  RunInfo jit = RunOuterPlan(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
  size_t null_cells = 0;
  for (const auto& row : jit.result.rows) null_cells += row[1].is_null() ? 1 : 0;
  EXPECT_EQ(null_cells, 7u) << "one drained row per widow order";
}

TEST(JitMidChainNest, NestOfNest) {
  for (bool select_between : {false, true}) {
    auto make_plan = [select_between] {
      OpPtr inner = OrderkeyNest("lineitem_bincol");
      if (select_between) {
        inner = Operator::Select(std::move(inner),
                                 Expr::Bin(BinOp::kGt, Proj("g", "q"), Expr::Float(20.0)));
      }
      OpPtr outer = Operator::Nest(inner, Proj("g", "n"), "n",
                                   {{Monoid::kCount, nullptr, "c"},
                                    {Monoid::kSum, Proj("g", "q"), "s"},
                                    {Monoid::kMax, Proj("g", "ok"), "top"}},
                                   nullptr, "h");
      ExprPtr rec = Expr::Record({"n", "c", "s", "top"}, {Proj("h", "n"), Proj("h", "c"),
                                                          Proj("h", "s"), Proj("h", "top")});
      return Operator::Reduce(outer, {{Monoid::kBag, rec, "rows"}});
    };
    ExpectJitMatchesInterp(make_plan, select_between ? "nest of select of nest" : "nest of nest");
  }
}

TEST(JitMidChainNest, NestInsideJoinBuildSubtree) {
  // The main chain is driven by a scan; the Nest folds inside the join's
  // build side and its group records become the build rows.
  auto make_plan = [] {
    ExprPtr pred = Expr::Bin(BinOp::kEq, Proj("g", "ok"), Proj("o", "o_orderkey"));
    OpPtr join = Operator::Join(OrderkeyNest("lineitem_binrow"),
                                Operator::Scan("orders_json", "o"), pred);
    return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"},
                                   {Monoid::kSum, Proj("g", "q"), "sum_q"},
                                   {Monoid::kMax, Proj("o", "o_totalprice"), "max_price"}});
  };
  ExpectJitMatchesInterp(make_plan, "nest inside a join build subtree");
}

TEST(JitMidChainNest, ShardedAndTieredEnginesDeclineNestLeaf) {
  // A Nest-driven main chain has no morsel decomposition before its fold,
  // so sharding and tiered hot-swap keep declining it; the plan still runs
  // as generated morsel pipelines.
  auto make_plan = [] {
    return Operator::Reduce(
        SelectAboveNest("lineitem_bincol", Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(2))),
        {{Monoid::kCount, nullptr, "groups"}});
  };
  EXPECT_FALSE(PlanIsMorselParallelizable(make_plan()));
  EXPECT_FALSE(PlanIsShardable(make_plan()));
  for (bool tiered : {false, true}) {
    EngineOptions opts;
    opts.num_threads = 2;
    opts.num_shards = tiered ? 0 : 2;
    opts.tiered = tiered;
    opts.morsel_rows = kDiffMorselRows;
    QueryEngine engine(opts);
    testutil::RegisterAll(&engine);
    QueryTelemetry tel;
    auto r = engine.ExecutePlan(make_plan(), {.telemetry = &tel});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(tel.shards_used, 0);
    EXPECT_EQ(tel.morsels_interpreted, 0u);
    EXPECT_TRUE(tel.used_jit) << tel.fallback_reason;
    EXPECT_GT(tel.morsels, 0u);
  }
}

TEST(JitMidChainNest, CancelledFoldStopsBothEngines) {
  auto make_plan = [] {
    return Operator::Reduce(
        SelectAboveNest("lineitem_json", Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(2))),
        {{Monoid::kCount, nullptr, "groups"}});
  };
  for (ExecMode mode : {ExecMode::kJIT, ExecMode::kInterp}) {
    EngineOptions opts;
    opts.mode = mode;
    opts.num_threads = 2;
    QueryEngine engine(opts);
    testutil::RegisterAll(&engine);
    std::atomic<bool> cancel{true};
    QueryTelemetry tel;
    CallOptions call;
    call.cancel = &cancel;
    call.telemetry = &tel;
    auto r = engine.ExecutePlan(make_plan(), call);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();
    EXPECT_TRUE(tel.cancelled);
  }
}

// ---------------------------------------------------------------------------
// Telemetry (headline bugfix): a JIT→interpreter fallback must record the
// failed codegen attempt's cost in compile_ms and keep it out of execute_ms
// — previously the attempt was silently folded into execute_ms with
// compile_ms stuck at 0.
// ---------------------------------------------------------------------------

/// A root Nest with a collection monoid output: chunk-decomposable
/// (sharding and the tiered controller accept it) but outside the generated
/// fast path — the construct the fallback tests below decline on.
OpPtr CollectionNestCount() {
  OpPtr nest = Operator::Nest(Operator::Scan("lineitem_json", "l"), Proj("l", "l_linenumber"),
                              "ln", {{Monoid::kBag, Proj("l", "l_quantity"), "qs"}}, nullptr,
                              "g");
  return Operator::Reduce(nest, {{Monoid::kCount, nullptr, "n"}});
}

TEST(JitFallbackTelemetry, FailedCompileAttemptIsRecorded) {
  // A collection-monoid Nest has no generated fast path: codegen aborts and
  // the morsel-parallel interpreter serves the plan.
  auto make_plan = CollectionNestCount;
  RunInfo jit = RunPlanConfig(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
  EXPECT_FALSE(jit.telemetry.used_jit);
  EXPECT_FALSE(jit.telemetry.fallback_reason.empty());
  EXPECT_GT(jit.telemetry.compile_ms, 0.0)
      << "the aborted codegen attempt cost real time that must be attributed";
  EXPECT_GE(jit.telemetry.execute_ms, 0.0);
  // Against the same plan in interpreter mode the fallback stays correct.
  RunInfo interp = RunPlanConfig(make_plan, ExecMode::kInterp, 2);
  ASSERT_TRUE(interp.status.ok());
  ExpectIdentical(interp.result, jit.result, "collection-monoid fallback");
}

// ---------------------------------------------------------------------------
// Fixed-seed randomized-plan property sweep: serial JIT vs parallel JIT vs
// interpreter. Plans are generated from a small grammar (dataset × agg set ×
// predicate conjunction × optional join × optional group-by × projection
// form) with a fixed seed — no wall-clock or fresh entropy anywhere, so a
// failure reproduces exactly.
// ---------------------------------------------------------------------------

std::string RandomQuery(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> pick(0, 1 << 20);
  std::uniform_real_distribution<double> qty(1, 50), disc(0, 0.1), tax(0, 0.08);
  const char* datasets[] = {"lineitem_bincol", "lineitem_binrow", "lineitem_csv",
                            "lineitem_json"};
  std::string ds = datasets[pick(rng) % 4];
  bool join = pick(rng) % 4 == 0;       // join with orders on orderkey
  bool group = pick(rng) % 3 == 0;      // group by linenumber/shipmode
  bool project = !group && pick(rng) % 4 == 0;  // bag projection rows

  std::ostringstream q;
  q.precision(6);
  q << "SELECT ";
  std::string lp = join ? "l." : "";
  std::string group_key;
  if (group) group_key = lp + (pick(rng) % 2 == 0 ? "l_linenumber" : "l_shipmode");
  if (project) {
    q << lp << "l_orderkey, " << lp << "l_quantity, " << lp << "l_extendedprice";
  } else {
    if (group) q << group_key << ", ";
    std::vector<std::string> aggs = {"count(*)"};
    if (pick(rng) % 2 == 0) aggs.push_back("sum(" + lp + "l_quantity)");
    if (pick(rng) % 2 == 0) aggs.push_back("max(" + lp + "l_extendedprice)");
    if (pick(rng) % 2 == 0) aggs.push_back("min(" + lp + "l_discount)");
    if (pick(rng) % 3 == 0) {
      aggs.push_back("sum(" + lp + "l_extendedprice * (1.0 - " + lp + "l_discount))");
    }
    if (join && pick(rng) % 2 == 0) aggs.push_back("max(o.o_totalprice)");
    for (size_t i = 0; i < aggs.size(); ++i) q << (i > 0 ? ", " : "") << aggs[i];
  }
  q << " FROM ";
  if (join) {
    q << "orders_" << (pick(rng) % 2 == 0 ? "bincol" : "json") << " o JOIN " << ds
      << " l ON o.o_orderkey = l.l_orderkey";
  } else {
    q << ds;
  }
  q << " WHERE " << lp << "l_orderkey < " << pick(rng) % 70;
  if (pick(rng) % 2 == 0) q << " and " << lp << "l_quantity < " << qty(rng);
  if (pick(rng) % 3 == 0) q << " and " << lp << "l_discount < " << disc(rng);
  if (pick(rng) % 4 == 0) q << " and " << lp << "l_tax >= " << tax(rng);
  if (group) q << " GROUP BY " << group_key;
  return q.str();
}

TEST(JitDifferentialProperty, RandomPlansAgreeAcrossEngines) {
  std::mt19937_64 rng(20160815);  // fixed seed: the paper's VLDB year+month
  int jit_runs = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::string q = RandomQuery(rng);
    RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
    ASSERT_TRUE(oracle.status.ok()) << q << "\n" << oracle.status.ToString();
    RunInfo serial_jit = RunConfig(q, ExecMode::kJIT, 1);
    ASSERT_TRUE(serial_jit.status.ok()) << q << "\n" << serial_jit.status.ToString();
    ExpectIdentical(oracle.result, serial_jit.result, q + " @ serial jit");
    if (serial_jit.telemetry.used_jit) ++jit_runs;
    for (int threads : {2, 4}) {
      RunInfo parallel_jit = RunConfig(q, ExecMode::kJIT, threads);
      ASSERT_TRUE(parallel_jit.status.ok()) << q << "\n" << parallel_jit.status.ToString();
      ExpectIdentical(serial_jit.result, parallel_jit.result,
                      q + " @ jit threads=" + std::to_string(threads));
      EXPECT_EQ(serial_jit.telemetry.used_jit, parallel_jit.telemetry.used_jit) << q;
    }
  }
  // The generator must mostly produce JIT-able plans or the sweep is hollow.
  EXPECT_GT(jit_runs, 18) << "random plan generator fell back too often";
}

// ---------------------------------------------------------------------------
// Telemetry regression: num_threads > 1 + JIT must report the engine that
// actually ran — never the silent interpreter fallback this PR removed.
// ---------------------------------------------------------------------------

TEST(JitParallelTelemetry, ParallelJitReportsItself) {
  const std::string q =
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_json WHERE l_orderkey < 1000000";
  for (int threads : {2, 4}) {
    RunInfo jit = RunConfig(q, ExecMode::kJIT, threads);
    ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
    EXPECT_TRUE(jit.telemetry.used_jit)
        << "num_threads=" << threads
        << " + JIT reported interpreter execution: " << jit.telemetry.fallback_reason;
    EXPECT_TRUE(jit.telemetry.jit_parallel);
    EXPECT_TRUE(jit.telemetry.fallback_reason.empty()) << jit.telemetry.fallback_reason;
    EXPECT_GT(jit.telemetry.morsels, 1u);
    EXPECT_GE(jit.telemetry.threads_used, 1);
    EXPECT_LE(jit.telemetry.threads_used, threads);
  }
  // num_threads == 1 drives the same morsel frame through generated code.
  RunInfo one = RunConfig(q, ExecMode::kJIT, 1);
  ASSERT_TRUE(one.status.ok());
  EXPECT_TRUE(one.telemetry.used_jit);
  EXPECT_TRUE(one.telemetry.jit_parallel);
  EXPECT_EQ(one.telemetry.threads_used, 1);
  EXPECT_GT(one.telemetry.morsels, 1u);
}

// ---------------------------------------------------------------------------
// Composition with sharding: shards run the same generated pipelines over
// their morsel slices; results stay cell-identical to the unsharded JIT run
// and telemetry reports the JIT actually ran on the shards.
// ---------------------------------------------------------------------------

TEST(JitParallelSharded, JitPipelinesComposeWithShards) {
  const std::vector<std::string> queries = {
      "SELECT l_orderkey, l_quantity FROM lineitem_csv WHERE l_orderkey < 1000000",
      "SELECT count(*), sum(l_tax), max(l_quantity) FROM lineitem_json WHERE l_orderkey < 40",
      "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_bincol "
      "GROUP BY l_linenumber",
      "SELECT count(*), max(o.o_totalprice) FROM orders_json o JOIN lineitem_json l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 35",
  };
  for (const auto& q : queries) {
    RunInfo unsharded = RunConfig(q, ExecMode::kJIT, 2, /*shards=*/0);
    ASSERT_TRUE(unsharded.status.ok()) << q << "\n" << unsharded.status.ToString();
    for (int shards : {1, 2, 4}) {
      RunInfo sharded = RunConfig(q, ExecMode::kJIT, 2, shards);
      ASSERT_TRUE(sharded.status.ok()) << q << "\n" << sharded.status.ToString();
      ExpectIdentical(unsharded.result, sharded.result,
                      q + " @ shards=" + std::to_string(shards));
      EXPECT_GT(sharded.telemetry.shards_used, 0) << q;
      EXPECT_TRUE(sharded.telemetry.used_jit)
          << q << " shards fell back: " << sharded.telemetry.fallback_reason;
      EXPECT_TRUE(sharded.telemetry.jit_parallel) << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Tiered asynchronous compilation: a cold query starts on the interpreter
// while its module compiles in the background, then hot-swaps to generated
// code at a morsel boundary. The contract under test: the swap point is
// *invisible* — results are cell-identical to pure-interpreter and pure-JIT
// runs wherever it lands (morsel 0, 1, mid-query, past the end, or never
// because the compile failed), at every thread and shard count, and the
// telemetry honestly reports which engine ran how many morsels.
// ---------------------------------------------------------------------------

std::unique_ptr<QueryEngine> MakeTieredEngine(const jit::TieredOptions& topts, int threads,
                                              int shards = 0) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.num_threads = threads;
  opts.num_shards = shards;
  opts.morsel_rows = kDiffMorselRows;
  opts.tiered = true;
  opts.tiered_opts = topts;
  auto engine = std::make_unique<QueryEngine>(opts);
  testutil::RegisterAll(engine.get());
  return engine;
}

/// One Execute() on a caller-owned engine (tiered tests rerun the same
/// engine to exercise the shared cache and the background compiler).
RunInfo RunOn(QueryEngine* engine, const std::string& q) {
  RunInfo info;
  auto r = engine->Execute(q, {.telemetry = &info.telemetry});
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  return info;
}

TEST(TieredSwap, ForcedSwapBoundaryIsInvisible) {
  const std::string q =
      "SELECT l_linenumber, count(*), sum(l_extendedprice), min(l_discount) "
      "FROM lineitem_json WHERE l_orderkey < 45 GROUP BY l_linenumber";
  RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  RunInfo pure_jit = RunConfig(q, ExecMode::kJIT, 2);
  ASSERT_TRUE(pure_jit.status.ok()) << pure_jit.status.ToString();
  const uint64_t n = pure_jit.telemetry.morsels;
  ASSERT_GT(n, 8u) << "corpus too small to place a mid-query swap";

  // k = 0 (swap before any interpreter work), k = 1, k = mid-query. Each
  // run interprets exactly k morsels, then blocks on the background compile
  // and hot-swaps — the result must not betray the boundary.
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, n / 2}) {
    jit::TieredOptions topts;
    topts.force_swap_after_morsels = k;
    auto engine = MakeTieredEngine(topts, /*threads=*/2);
    RunInfo tiered = RunOn(engine.get(), q);
    ASSERT_TRUE(tiered.status.ok()) << "k=" << k << ": " << tiered.status.ToString();
    ExpectIdentical(oracle.result, tiered.result, "tiered swap @ k=" + std::to_string(k));
    ExpectIdentical(pure_jit.result, tiered.result,
                    "tiered vs pure jit @ k=" + std::to_string(k));
    EXPECT_EQ(tiered.telemetry.morsels_interpreted, k);
    EXPECT_EQ(tiered.telemetry.morsels_jit, n - k);
    EXPECT_EQ(tiered.telemetry.morsels, n);
    EXPECT_TRUE(tiered.telemetry.used_jit) << "k=" << k;
    EXPECT_TRUE(tiered.telemetry.jit_parallel);
    EXPECT_TRUE(tiered.telemetry.fallback_reason.empty())
        << tiered.telemetry.fallback_reason;
    EXPECT_GT(tiered.telemetry.swap_ms, 0.0) << "swap happened, swap_ms must say when";
    EXPECT_GT(tiered.telemetry.compile_ms, 0.0)
        << "the consumed background compile cost real time";
    if (k > 0) {
      // The acceptance shape: a genuinely mixed run — both engines ran.
      EXPECT_GT(tiered.telemetry.morsels_interpreted, 0u);
      EXPECT_GT(tiered.telemetry.morsels_jit, 0u);
    }
  }
}

TEST(TieredSwap, SwapIsInvisibleAcrossThreadsAndShards) {
  const std::vector<std::string> queries = {
      "SELECT count(*), sum(l_tax), max(l_quantity) FROM lineitem_json WHERE l_orderkey < 40",
      "SELECT l_orderkey, l_quantity FROM lineitem_csv WHERE l_orderkey < 1000000",
      "SELECT count(*), max(o.o_totalprice) FROM orders_json o JOIN lineitem_bincol l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 35",
  };
  for (const auto& q : queries) {
    RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
    ASSERT_TRUE(oracle.status.ok()) << q << "\n" << oracle.status.ToString();
    // Probe-side morsel count: decides whether a shard's slice is big
    // enough for its forced swap to actually land (slice > k morsels).
    RunInfo pure_jit = RunConfig(q, ExecMode::kJIT, 2);
    ASSERT_TRUE(pure_jit.status.ok()) << q;
    const uint64_t n = pure_jit.telemetry.morsels;
    jit::TieredOptions topts;
    topts.force_swap_after_morsels = 3;  // every controller interprets 3, then swaps
    for (int threads : {1, 2, 4}) {
      auto engine = MakeTieredEngine(topts, threads);
      RunInfo tiered = RunOn(engine.get(), q);
      ASSERT_TRUE(tiered.status.ok()) << q << "\n" << tiered.status.ToString();
      ExpectIdentical(oracle.result, tiered.result,
                      q + " @ tiered threads=" + std::to_string(threads));
      EXPECT_GT(tiered.telemetry.morsels_interpreted, 0u) << q;
      EXPECT_GT(tiered.telemetry.morsels_jit, 0u) << q;
    }
    // Each shard runs its own tiered controller over its slice and swaps
    // independently (after 1 interpreted morsel here — shard slices are
    // small); the merged result still cannot depend on any of it.
    topts.force_swap_after_morsels = 1;
    for (int shards : {1, 2, 4}) {
      auto engine = MakeTieredEngine(topts, /*threads=*/2, shards);
      RunInfo tiered = RunOn(engine.get(), q);
      ASSERT_TRUE(tiered.status.ok()) << q << "\n" << tiered.status.ToString();
      ExpectIdentical(oracle.result, tiered.result,
                      q + " @ tiered shards=" + std::to_string(shards));
      EXPECT_GT(tiered.telemetry.shards_used, 0) << q;
      EXPECT_GT(tiered.telemetry.morsels_interpreted, 0u) << q;
      if (n / static_cast<uint64_t>(shards) > 1) {
        // Every slice holds > 1 morsel, so every shard swaps mid-slice.
        EXPECT_GT(tiered.telemetry.morsels_jit, 0u)
            << q << " shards=" << shards << " n=" << n;
        EXPECT_TRUE(tiered.telemetry.used_jit) << q << " shards=" << shards;
      }
    }
  }
}

TEST(TieredSwap, CompileOutlivingTheQueryIsHarmlessAndWarmsTheCache) {
  const std::string q =
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_json WHERE l_orderkey < 50";
  RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
  ASSERT_TRUE(oracle.status.ok());

  // A 300 ms artificial compile delay dwarfs the ~240-row interpretation:
  // the query finishes before the module exists, and nothing blocks on it.
  jit::TieredOptions topts;
  topts.compile_delay_ms = 300;
  auto engine = MakeTieredEngine(topts, /*threads=*/2);
  RunInfo cold = RunOn(engine.get(), q);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ExpectIdentical(oracle.result, cold.result, "tiered, compile outlives query");
  EXPECT_EQ(cold.telemetry.morsels_jit, 0u);
  EXPECT_GT(cold.telemetry.morsels_interpreted, 0u);
  EXPECT_FALSE(cold.telemetry.used_jit);
  EXPECT_EQ(cold.telemetry.compile_ms, 0.0) << "unconsumed compile must not be billed";
  EXPECT_EQ(cold.telemetry.swap_ms, 0.0);
  EXPECT_NE(cold.telemetry.fallback_reason.find("did not land"), std::string::npos)
      << cold.telemetry.fallback_reason;

  // The orphaned compile still publishes into the shared cache: after the
  // background thread drains, the same engine serves the query warm — pure
  // generated code from morsel 0, no interpreter at all.
  ASSERT_NE(engine->tiered_compiler(), nullptr);
  engine->tiered_compiler()->Drain();
  RunInfo warm = RunOn(engine.get(), q);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ExpectIdentical(oracle.result, warm.result, "tiered warm rerun");
  EXPECT_TRUE(warm.telemetry.jit_cache_hit);
  EXPECT_EQ(warm.telemetry.morsels_interpreted, 0u);
  EXPECT_GT(warm.telemetry.morsels_jit, 0u);
  EXPECT_TRUE(warm.telemetry.used_jit);
}

TEST(TieredSwap, FailedCompileInterpreterCompletesSilently) {
  // The collection-monoid Nest is chunk-decomposable (the tiered controller
  // accepts it) but has no generated fast path: the background compile
  // fails, and the interpreter must simply finish the query — the recorded
  // compile_ms being the only trace of the attempt.
  auto make_plan = CollectionNestCount;
  RunInfo oracle = RunPlanConfig(make_plan, ExecMode::kInterp, 2);
  ASSERT_TRUE(oracle.status.ok());

  jit::TieredOptions topts;
  // Force the controller to consume the (failed) ticket after one morsel so
  // the failure is observed mid-query, not raced past.
  topts.force_swap_after_morsels = 1;
  auto engine = MakeTieredEngine(topts, /*threads=*/2);
  QueryTelemetry t;
  auto r = engine->ExecutePlan(make_plan(), {.telemetry = &t});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectIdentical(oracle.result, *r, "tiered, failed compile");
  EXPECT_EQ(t.morsels_jit, 0u);
  EXPECT_GT(t.morsels_interpreted, 0u);
  EXPECT_FALSE(t.used_jit);
  EXPECT_GT(t.compile_ms, 0.0)
      << "the failed background compile cost real time that must be attributed";
  EXPECT_NE(t.fallback_reason.find("compile failed"), std::string::npos)
      << t.fallback_reason;
}

TEST(TieredSwap, ColdShardsCompileOnceThroughTheCache) {
  const std::string q =
      "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_json";
  RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  RunInfo pure_jit = RunConfig(q, ExecMode::kJIT, 2);
  ASSERT_TRUE(pure_jit.status.ok()) << pure_jit.status.ToString();
  ASSERT_GT(pure_jit.telemetry.morsels, 8u) << "every shard's slice must hold > 1 morsel";

  // Each of the four shard controllers queues its own background compile
  // and, after one interpreted morsel, blocks on its own ticket. The
  // compiled-query cache is the only de-duplication: the first job
  // compiles and publishes, the later ones are cache hits billed at 0 ms.
  jit::TieredOptions topts;
  topts.force_swap_after_morsels = 1;
  auto engine = MakeTieredEngine(topts, /*threads=*/2, /*shards=*/4);
  RunInfo tiered = RunOn(engine.get(), q);
  ASSERT_TRUE(tiered.status.ok()) << tiered.status.ToString();
  ExpectIdentical(oracle.result, tiered.result, "tiered shards=4, cold cache");
  EXPECT_EQ(tiered.telemetry.shards_used, 4);
  EXPECT_TRUE(tiered.telemetry.used_jit) << tiered.telemetry.fallback_reason;
  EXPECT_GT(tiered.telemetry.compile_ms, 0.0) << "the one real compile is billed";
  engine->tiered_compiler()->Drain();
  ASSERT_NE(engine->jit_cache(), nullptr);
  EXPECT_EQ(engine->jit_cache()->stats().compiles, 1u);
}

// ---------------------------------------------------------------------------
// One region runner: every route — unsharded or sharded, plain or tiered —
// chooses its engine in jit::RunRegion and reports through jit::RegionStats,
// so telemetry means the same thing whichever route served the plan.
// ---------------------------------------------------------------------------

TEST(RegionRunner, EveryRouteKeepsTheCodegenReason) {
  RunInfo oracle = RunPlanConfig(CollectionNestCount, ExecMode::kInterp, 2);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  jit::TieredOptions forced;
  forced.force_swap_after_morsels = 1;  // consume the failed ticket mid-query
  struct Route {
    const char* name;
    int shards;
    bool tiered;
  };
  for (const Route& route : {Route{"shards=1", 1, false}, Route{"shards=2", 2, false},
                             Route{"tiered", 0, true}, Route{"tiered shards=2", 2, true}}) {
    EngineOptions opts;
    opts.num_threads = 2;
    opts.num_shards = route.shards;
    opts.morsel_rows = kDiffMorselRows;
    opts.tiered = route.tiered;
    opts.tiered_opts = forced;
    QueryEngine engine(opts);
    testutil::RegisterAll(&engine);
    QueryTelemetry t;
    std::string ir = "stale IR from an earlier query";
    auto r = engine.ExecutePlan(CollectionNestCount(), {.telemetry = &t, .ir = &ir});
    ASSERT_TRUE(r.ok()) << route.name << ": " << r.status().ToString();
    ExpectIdentical(oracle.result, *r, route.name);
    EXPECT_EQ(t.shards_used, route.shards) << route.name;
    EXPECT_FALSE(t.used_jit) << route.name;
    EXPECT_TRUE(ir.empty()) << route.name << ": the interpreter served it, yet IR came back";
    EXPECT_GT(t.compile_ms, 0.0) << route.name;
    EXPECT_NE(t.fallback_reason.find("nest with collection monoid"), std::string::npos)
        << route.name << ": " << t.fallback_reason;
    if (route.tiered) {
      EXPECT_NE(t.fallback_reason.find("tiered: background compile failed: "), std::string::npos)
          << route.name << ": " << t.fallback_reason;
    }
  }
}

struct RoutePlan {
  const char* name;
  std::function<OpPtr()> make;
};

/// One plan of each region shape the routes must agree on.
std::vector<RoutePlan> RoutePlans() {
  return {
      {"scan-aggregate",
       [] {
         OpPtr scan = Operator::Scan("lineitem_json", "l");
         OpPtr sel = Operator::Select(
             scan, Expr::Bin(BinOp::kLt, Proj("l", "l_orderkey"), Expr::Int(40)));
         return Operator::Reduce(sel, {{Monoid::kCount, nullptr, "n"},
                                       {Monoid::kSum, Proj("l", "l_tax"), "tax"}});
       }},
      {"equi join",
       [] {
         OpPtr join = Operator::Join(
             Operator::Scan("orders_json", "o"), Operator::Scan("lineitem_json", "l"),
             Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("l", "l_orderkey")),
             /*outer=*/false);
         return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"},
                                        {Monoid::kMax, Proj("o", "o_totalprice"), "m"}});
       }},
      {"root group-by",
       [] {
         return Operator::Reduce(OrderkeyNest("lineitem_json"),
                                 {{Monoid::kBag, Proj("g", "n"), "n"}});
       }},
      {"outer join",
       [] {
         OpPtr join = Operator::Join(
             Operator::Scan("orders_json", "o"), Operator::Scan("lineitem_json", "l"),
             Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("l", "l_orderkey")),
             /*outer=*/true);
         return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"}});
       }},
      {"nest-driven",
       [] {
         return Operator::Reduce(
             SelectAboveNest("lineitem_json",
                             Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(2))),
             {{Monoid::kCount, nullptr, "groups"}});
       }},
  };
}

TEST(RegionRunner, TelemetryAgreesAcrossRoutes) {
  struct Route {
    const char* name;
    ExecMode mode;
    int shards;
    bool tiered;
    bool forced_swap = false;  ///< cold tiered run, swapped after one morsel
  };
  const std::vector<Route> routes = {
      {"interpreter", ExecMode::kInterp, 0, false},
      {"jit", ExecMode::kJIT, 0, false},
      {"jit shards=2", ExecMode::kJIT, 2, false},
      {"tiered warm", ExecMode::kJIT, 0, true},
      {"tiered warm shards=2", ExecMode::kJIT, 2, true},
      {"tiered forced swap", ExecMode::kJIT, 0, true, true},
  };
  for (const RoutePlan& plan : RoutePlans()) {
    std::optional<RunInfo> first;
    std::optional<RunInfo> first_jit;
    for (const Route& route : routes) {
      const std::string what = std::string(plan.name) + " @ " + route.name;
      EngineOptions opts;
      opts.mode = route.mode;
      opts.num_threads = 2;
      opts.num_shards = route.shards;
      opts.morsel_rows = kDiffMorselRows;
      opts.tiered = route.tiered;
      if (route.forced_swap) opts.tiered_opts.force_swap_after_morsels = 1;
      QueryEngine engine(opts);
      testutil::RegisterAll(&engine);
      if (route.tiered && !route.forced_swap) {
        // Warm: the cold run's background compile publishes the module.
        ASSERT_TRUE(engine.ExecutePlan(plan.make()).ok()) << what;
        engine.tiered_compiler()->Drain();
      }
      RunInfo run;
      std::string ir = "stale IR from an earlier query";
      auto r = engine.ExecutePlan(plan.make(), {.telemetry = &run.telemetry, .ir = &ir});
      ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
      run.result = std::move(*r);
      EXPECT_GT(run.telemetry.morsels, 0u) << what;
      // CallOptions::ir carries the served module's IR on every JIT route
      // and is cleared when the interpreter ran.
      EXPECT_EQ(ir.find("proteus_pipeline") != std::string::npos, run.telemetry.used_jit)
          << what;
      EXPECT_EQ(ir.empty(), !run.telemetry.used_jit) << what;
      if (route.mode == ExecMode::kJIT) {
        EXPECT_TRUE(run.telemetry.used_jit) << what << ": " << run.telemetry.fallback_reason;
        EXPECT_TRUE(run.telemetry.fallback_reason.empty())
            << what << ": " << run.telemetry.fallback_reason;
        if (route.tiered && !route.forced_swap) {
          EXPECT_EQ(run.telemetry.morsels_interpreted, 0u) << what;
        }
        if (!first_jit.has_value()) {
          first_jit = run;
        } else {
          EXPECT_EQ(run.telemetry.used_jit, first_jit->telemetry.used_jit) << what;
          EXPECT_EQ(run.telemetry.jit_parallel, first_jit->telemetry.jit_parallel) << what;
          EXPECT_EQ(run.telemetry.ir_verified, first_jit->telemetry.ir_verified) << what;
        }
      }
      if (!first.has_value()) {
        first = run;
        continue;
      }
      ExpectIdentical(first->result, run.result, what);
      EXPECT_EQ(run.telemetry.morsels, first->telemetry.morsels)
          << what << " vs " << routes[0].name;
    }
  }
}

// The morsel hook (EngineOptions::morsel_boundary_hook) fires once per
// main-region morsel with its global index on every route: shard slices and
// tiered chunks do not restart at 0, and join build sides and Nest folds do
// not fire it.
TEST(RegionRunner, MorselHookSeesEachGlobalMorselOnce) {
  struct Route {
    const char* name;
    ExecMode mode;
    int shards;
    bool tiered;
  };
  const std::vector<Route> routes = {
      {"interpreter", ExecMode::kInterp, 0, false},
      {"interpreter shards=2", ExecMode::kInterp, 2, false},
      {"jit", ExecMode::kJIT, 0, false},
      {"jit shards=2", ExecMode::kJIT, 2, false},
      {"tiered forced swap", ExecMode::kJIT, 0, true},
      {"tiered forced swap shards=2", ExecMode::kJIT, 2, true},
  };
  for (const RoutePlan& plan : RoutePlans()) {
    for (const Route& route : routes) {
      const std::string what = std::string(plan.name) + " @ " + route.name;
      std::mutex mu;
      std::vector<uint64_t> seen;
      EngineOptions opts;
      opts.mode = route.mode;
      opts.num_threads = 2;
      opts.num_shards = route.shards;
      opts.morsel_rows = kDiffMorselRows;
      opts.tiered = route.tiered;
      opts.tiered_opts.force_swap_after_morsels = 1;
      opts.morsel_boundary_hook = [&](uint64_t m) {
        std::lock_guard<std::mutex> lk(mu);
        seen.push_back(m);
      };
      QueryEngine engine(opts);
      testutil::RegisterAll(&engine);
      QueryTelemetry tel;
      auto r = engine.ExecutePlan(plan.make(), {.telemetry = &tel});
      ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
      std::sort(seen.begin(), seen.end());
      std::vector<uint64_t> expected(tel.morsels);
      std::iota(expected.begin(), expected.end(), uint64_t{0});
      EXPECT_EQ(seen, expected) << what;
    }
  }
}

// An empty answer names its columns from the plan, not from a first row it
// does not have: each query below reports the same columns with and without
// rows, on every route.
TEST(EmptyAnswer, NamesTheColumnsOfItsNonEmptyVariant) {
  struct Query {
    const char* name;
    const char* sql;  ///< %s = the l_orderkey bound
  };
  const std::vector<Query> queries = {
      {"two columns", "SELECT l_orderkey, l_quantity FROM lineitem_json WHERE l_orderkey < %s"},
      {"one column", "SELECT l_quantity FROM lineitem_csv WHERE l_orderkey < %s"},
      {"group by",
       "SELECT l_linenumber, count(*) FROM lineitem_json WHERE l_orderkey < %s "
       "GROUP BY l_linenumber"},
  };
  struct Route {
    const char* name;
    ExecMode mode;
    int shards;
  };
  const std::vector<Route> routes = {
      {"interpreter", ExecMode::kInterp, 0},
      {"jit", ExecMode::kJIT, 0},
      {"jit shards=2", ExecMode::kJIT, 2},
  };
  auto with_bound = [](const char* sql, const char* bound) {
    char buf[256];
    snprintf(buf, sizeof(buf), sql, bound);
    return std::string(buf);
  };
  for (const Query& q : queries) {
    for (const Route& route : routes) {
      const std::string what = std::string(q.name) + " @ " + route.name;
      RunInfo rows = RunConfig(with_bound(q.sql, "2"), route.mode, 2, route.shards);
      RunInfo empty = RunConfig(with_bound(q.sql, "0"), route.mode, 2, route.shards);
      ASSERT_TRUE(rows.status.ok()) << what << ": " << rows.status.ToString();
      ASSERT_TRUE(empty.status.ok()) << what << ": " << empty.status.ToString();
      ASSERT_FALSE(rows.result.rows.empty()) << what;
      EXPECT_TRUE(empty.result.rows.empty()) << what;
      EXPECT_EQ(empty.result.columns, rows.result.columns) << what;
      EXPECT_EQ(empty.telemetry.used_jit, route.mode == ExecMode::kJIT)
          << what << ": " << empty.telemetry.fallback_reason;
      EXPECT_EQ(empty.telemetry.shards_used, route.shards) << what;
    }
  }
}

// A record yielded whole takes its columns from its static type, and each
// cell lands under its own name even when every JSON object orders its
// fields differently.
TEST(EmptyAnswer, WholeRecordCellsAlignToTheirTypesFields) {
  const char* q = "for { l <- %s, l.l_orderkey < %s } yield bag l";
  auto run = [&](const char* ds, const char* bound) {
    char buf[128];
    snprintf(buf, sizeof(buf), q, ds, bound);
    return RunConfig(buf, ExecMode::kInterp, 2);
  };
  RunInfo ordered = run("lineitem_json", "3");
  RunInfo shuffled = run("lineitem_json_shuffled", "3");
  RunInfo empty = run("lineitem_json_shuffled", "0");
  ASSERT_TRUE(ordered.status.ok()) << ordered.status.ToString();
  ASSERT_TRUE(shuffled.status.ok()) << shuffled.status.ToString();
  ASSERT_TRUE(empty.status.ok()) << empty.status.ToString();
  ASSERT_FALSE(ordered.result.rows.empty());
  ExpectIdentical(ordered.result, shuffled.result, "shuffled vs ordered JSON fields");
  EXPECT_TRUE(empty.result.rows.empty());
  EXPECT_EQ(empty.result.columns, ordered.result.columns);
}

// ---------------------------------------------------------------------------
// Partitioned parallel joins: the optimizer's skew-aware strategy pass must
// pick the partitioned layout on skewed build sides (once stats are warm),
// and both layouts must stay cell-identical — to each other, to the
// interpreter, across num_threads ∈ {1, 2, 4} — on Zipf, single-heavy-hitter,
// and all-null-key corpora.
// ---------------------------------------------------------------------------

/// One engine with the skew corpora and a fixed join-strategy override. The
/// query runs `warmups + 1` times on the same engine: stats publish on the
/// first cold dataset access — after that run's Optimize — so only the
/// final (returned) run's strategy pass sees the build side's ndv.
RunInfo RunSkewQuery(const std::string& q, ExecMode mode, int threads,
                     JoinStrategyOverride strat = JoinStrategyOverride::kAuto,
                     int warmups = 1) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.morsel_rows = kDiffMorselRows;
  opts.optimizer.join_strategy = strat;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  testutil::RegisterSkewCorpus(&engine);
  for (int i = 0; i < warmups; ++i) {
    auto w = engine.Execute(q);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
  }
  RunInfo info;
  auto r = engine.Execute(q, {.telemetry = &info.telemetry});
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  return info;
}

const char* kZipfJoinQuery =
    "SELECT count(*), sum(o.o_totalprice), max(l.l_extendedprice) FROM zipf_orders o "
    "JOIN skew_lineitem l ON o.o_orderkey = l.l_orderkey WHERE l.l_quantity < 45.0";
const char* kHeavyJoinQuery =
    "SELECT count(*), sum(l.l_extendedprice) FROM heavy_orders o "
    "JOIN skew_lineitem l ON o.o_orderkey = l.l_orderkey";

TEST(PartitionedJoin, SkewedBuildSelectsPartitionedLayout) {
  RunInfo jit = RunSkewQuery(kZipfJoinQuery, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
  EXPECT_TRUE(jit.telemetry.used_jit) << jit.telemetry.fallback_reason;
  EXPECT_EQ(jit.telemetry.join_strategy, "partitioned") << jit.telemetry.plan;

  // A small uniform build (60 orders) stays on the shared layout.
  RunInfo small = RunSkewQuery(
      "SELECT count(*) FROM orders_json o JOIN lineitem_json l ON "
      "o.o_orderkey = l.l_orderkey",
      ExecMode::kJIT, 2);
  ASSERT_TRUE(small.status.ok()) << small.status.ToString();
  EXPECT_EQ(small.telemetry.join_strategy, "shared") << small.telemetry.plan;

  // The cold (stat-less) first run of the same skewed query must also have
  // reported a strategy — shared, since the optimizer had nothing to go on.
  RunInfo cold = RunSkewQuery(kZipfJoinQuery, ExecMode::kJIT, 2,
                              JoinStrategyOverride::kAuto, /*warmups=*/0);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_EQ(cold.telemetry.join_strategy, "shared") << "cold runs have no stats";
}

TEST(PartitionedJoin, CellIdenticalAcrossStrategiesAndThreads) {
  for (const char* q : {kZipfJoinQuery, kHeavyJoinQuery}) {
    RunInfo oracle =
        RunSkewQuery(q, ExecMode::kInterp, 1, JoinStrategyOverride::kForceShared);
    ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
    for (JoinStrategyOverride strat :
         {JoinStrategyOverride::kForceShared, JoinStrategyOverride::kForcePartitioned,
          JoinStrategyOverride::kAuto}) {
      for (int threads : {1, 2, 4}) {
        const std::string ctx = std::string(q) + " strat=" +
                                std::to_string(static_cast<int>(strat)) +
                                " threads=" + std::to_string(threads);
        RunInfo jit = RunSkewQuery(q, ExecMode::kJIT, threads, strat);
        ASSERT_TRUE(jit.status.ok()) << ctx << "\n" << jit.status.ToString();
        EXPECT_TRUE(jit.telemetry.used_jit) << ctx << ": " << jit.telemetry.fallback_reason;
        ExpectIdentical(oracle.result, jit.result, "jit " + ctx);
        RunInfo interp = RunSkewQuery(q, ExecMode::kInterp, threads, strat);
        ASSERT_TRUE(interp.status.ok()) << ctx;
        ExpectIdentical(oracle.result, interp.result, "interp " + ctx);
      }
    }
  }
}

TEST(PartitionedJoin, AllNullBuildKeysMatchNothingInEitherLayout) {
  const std::string q =
      "SELECT count(*) FROM nullkey_orders o JOIN skew_lineitem l ON "
      "o.o_orderkey = l.l_orderkey";
  for (JoinStrategyOverride strat :
       {JoinStrategyOverride::kForceShared, JoinStrategyOverride::kForcePartitioned}) {
    RunInfo jit = RunSkewQuery(q, ExecMode::kJIT, 2, strat);
    ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
    EXPECT_EQ(jit.result.scalar().i(), 0) << "null keys must match nothing";
    RunInfo interp = RunSkewQuery(q, ExecMode::kInterp, 2, strat);
    ASSERT_TRUE(interp.status.ok());
    ExpectIdentical(interp.result, jit.result, "all-null build keys");
  }
}

TEST(PartitionedJoin, GroupByAboveSkewedJoinCellIdentical) {
  // A Nest above the probe pipeline composes with the partitioned layout:
  // group order comes from the morsel-order partial fold either way.
  const std::string q =
      "SELECT l.l_linenumber, count(*), sum(o.o_totalprice) FROM heavy_orders o "
      "JOIN skew_lineitem l ON o.o_orderkey = l.l_orderkey GROUP BY l.l_linenumber";
  RunInfo oracle =
      RunSkewQuery(q, ExecMode::kInterp, 1, JoinStrategyOverride::kForceShared);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  for (int threads : {1, 2, 4}) {
    RunInfo jit = RunSkewQuery(q, ExecMode::kJIT, threads,
                               JoinStrategyOverride::kForcePartitioned);
    ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
    EXPECT_TRUE(jit.telemetry.used_jit) << jit.telemetry.fallback_reason;
    ExpectIdentical(oracle.result, jit.result,
                    "grouped partitioned join @ threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// Fallback burn-down: non-equi joins and float group keys now compile; a
// plan with several remaining blockers reports every reason, not the first.
// ---------------------------------------------------------------------------

TEST(JitFallbackTelemetry, NonEquiJoinCompiles) {
  auto make_plan = [] {
    OpPtr scan_o = Operator::Scan("orders_json", "o");
    OpPtr scan_l = Operator::Scan("lineitem_json", "l");
    ExprPtr pred =
        Expr::Bin(BinOp::kLt, Proj("o", "o_orderkey"), Proj("l", "l_orderkey"));
    OpPtr join = Operator::Join(scan_o, scan_l, pred, /*outer=*/false);
    return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"},
                                   {Monoid::kSum, Proj("l", "l_quantity"), "sumq"}});
  };
  RunInfo oracle = RunPlanConfig(make_plan, ExecMode::kInterp, 1);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  for (int threads : {1, 2, 4}) {
    RunInfo jit = RunPlanConfig(make_plan, ExecMode::kJIT, threads);
    ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
    EXPECT_TRUE(jit.telemetry.used_jit) << jit.telemetry.fallback_reason;
    EXPECT_TRUE(jit.telemetry.fallback_reason.empty()) << jit.telemetry.fallback_reason;
    ExpectIdentical(oracle.result, jit.result,
                    "non-equi join @ threads=" + std::to_string(threads));
  }
}

TEST(JitFallbackTelemetry, FloatGroupKeysCompile) {
  const std::string q =
      "SELECT l_discount, count(*), sum(l_extendedprice) FROM lineitem_bincol "
      "GROUP BY l_discount";
  RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  for (int threads : {1, 2, 4}) {
    RunInfo jit = RunConfig(q, ExecMode::kJIT, threads);
    ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
    EXPECT_TRUE(jit.telemetry.used_jit) << jit.telemetry.fallback_reason;
    EXPECT_TRUE(jit.telemetry.fallback_reason.empty()) << jit.telemetry.fallback_reason;
    ExpectIdentical(oracle.result, jit.result,
                    "float group keys @ threads=" + std::to_string(threads));
  }
}

TEST(JitFallbackTelemetry, AllFallbackReasonsReported) {
  // Two independent blockers in one plan: an outer join inside a join's
  // build subtree (off the main pipeline chain) and a collection-monoid
  // Nest. The fallback reason must list both, semicolon-joined — previously
  // only the first traversal hit surfaced.
  auto make_plan = [] {
    OpPtr outer = Operator::Join(
        Operator::Scan("orders_json", "o"), Operator::Scan("lineitem_json", "l"),
        Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("l", "l_orderkey")),
        /*outer=*/true);
    OpPtr join = Operator::Join(
        outer, Operator::Scan("orders_bincol", "c"),
        Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("c", "o_orderkey")),
        /*outer=*/false);
    OpPtr nest = Operator::Nest(join, Proj("l", "l_linenumber"), "ln",
                                {{Monoid::kBag, Proj("l", "l_quantity"), "qs"}},
                                nullptr, "g");
    return Operator::Reduce(nest, {{Monoid::kCount, nullptr, "n"}});
  };
  RunInfo jit = RunPlanConfig(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
  EXPECT_FALSE(jit.telemetry.used_jit);
  EXPECT_NE(jit.telemetry.fallback_reason.find("outer join outside the morsel pipeline chain"),
            std::string::npos)
      << jit.telemetry.fallback_reason;
  EXPECT_NE(jit.telemetry.fallback_reason.find("nest with collection monoid"),
            std::string::npos)
      << jit.telemetry.fallback_reason;
  EXPECT_NE(jit.telemetry.fallback_reason.find("; "), std::string::npos)
      << "reasons must be semicolon-joined: " << jit.telemetry.fallback_reason;
}

// ---------------------------------------------------------------------------
// Zero divisors: generated `/` and `%` fail the query exactly where Eval()
// does — same status, every thread count — and never trap or yield inf.
// ---------------------------------------------------------------------------

TEST(JitZeroDivisor, FailsWithTheInterpretersStatus) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Column divisors: l_orderkey - 1 is 0 on order 1's lines.
      {"SELECT count(*), sum(l_orderkey % (l_orderkey - 1)) FROM lineitem_bincol",
       "modulo by zero"},
      {"SELECT count(*), sum(l_orderkey / (l_orderkey - 1)) FROM lineitem_bincol",
       "division by zero"},
      {"SELECT count(*) FROM lineitem_json WHERE l_quantity / (l_orderkey - 1) > 1.0",
       "division by zero"},
      {"SELECT l_linenumber, sum(l_orderkey % (l_orderkey - 1)) FROM lineitem_csv "
       "GROUP BY l_linenumber",
       "modulo by zero"},
      // Literal divisors: bound at run time, so checked at run time too.
      {"SELECT count(*), sum(l_orderkey % 0) FROM lineitem_json", "modulo by zero"},
      {"SELECT count(*), sum(l_quantity / 0) FROM lineitem_csv", "division by zero"},
      {"SELECT count(*), sum(l_quantity / 0.0) FROM lineitem_binrow", "division by zero"},
  };
  for (const auto& [q, message] : cases) {
    RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
    ASSERT_EQ(oracle.status.code(), StatusCode::kInvalidArgument) << q << "\n"
                                                                  << oracle.status.ToString();
    EXPECT_EQ(oracle.status.message(), message) << q;
    for (int threads : {1, 2, 4}) {
      RunInfo jit = RunConfig(q, ExecMode::kJIT, threads);
      EXPECT_EQ(jit.status.code(), oracle.status.code())
          << q << " threads=" << threads << "\n" << jit.status.ToString();
      EXPECT_EQ(jit.status.message(), oracle.status.message()) << q << " threads=" << threads;
      EXPECT_TRUE(jit.telemetry.fallback_reason.empty())
          << q << " fell back: " << jit.telemetry.fallback_reason;
    }
  }
}

// A division that Eval() never evaluates cannot fail the query: the right
// operand of a decided and/or, the untaken branch of an if, rows that fail
// the predicate, and null divisors.
TEST(JitZeroDivisor, UnevaluatedDivisionsDoNotFail) {
  const std::vector<std::string> queries = {
      "SELECT count(*) FROM lineitem_json WHERE l_orderkey <> 1 and "
      "l_quantity / (l_orderkey - 1) > 1.0",
      "SELECT count(*) FROM lineitem_csv WHERE l_orderkey = 1 or "
      "l_orderkey % (l_orderkey - 1) = 0",
      "SELECT count(*), sum(if l_orderkey = 1 then 0 else l_orderkey % (l_orderkey - 1)), "
      "max(if l_orderkey <> 1 then l_quantity / (l_orderkey - 1) else 0.5) FROM lineitem_bincol",
      "SELECT count(*), sum(l_orderkey % 0) FROM lineitem_bincol WHERE l_orderkey < 0",
  };
  for (const std::string& q : queries) {
    RunInfo oracle = RunConfig(q, ExecMode::kInterp, 1);
    ASSERT_TRUE(oracle.status.ok()) << q << "\n" << oracle.status.ToString();
    for (int threads : {1, 2, 4}) {
      RunInfo jit = RunConfig(q, ExecMode::kJIT, threads);
      ASSERT_TRUE(jit.status.ok()) << q << "\n" << jit.status.ToString();
      EXPECT_TRUE(jit.telemetry.used_jit) << q << ": " << jit.telemetry.fallback_reason;
      ExpectIdentical(oracle.result, jit.result, q + " @ threads=" + std::to_string(threads));
    }
  }
  // Outer joins: a zero divisor on matched rows fails both engines alike;
  // the drained (unmatched) rows bind l to null, so there the divisor is
  // null and the modulo is null, not an error.
  auto outer = [](std::function<ExprPtr()> divisor) {
    return [divisor] {
      return Operator::Reduce(
          WidowOuterJoin("lineitem_json"),
          {{Monoid::kCount, nullptr, "n"},
           {Monoid::kSum, Expr::Bin(BinOp::kMod, Proj("o", "o_orderkey"), divisor()), "s"}});
    };
  };
  auto zero = outer([] {
    return Expr::Bin(BinOp::kSub, Proj("l", "l_orderkey"), Proj("l", "l_orderkey"));
  });
  RunInfo oracle = RunOuterPlan(zero, ExecMode::kInterp, 1);
  ASSERT_EQ(oracle.status.code(), StatusCode::kInvalidArgument) << oracle.status.ToString();
  for (int threads : {1, 2, 4}) {
    RunInfo jit = RunOuterPlan(zero, ExecMode::kJIT, threads);
    EXPECT_EQ(jit.status.code(), oracle.status.code()) << jit.status.ToString();
    EXPECT_EQ(jit.status.message(), oracle.status.message());
  }
  ExpectJitMatchesInterp(outer([] { return Proj("l", "l_orderkey"); }),
                         "null divisors of drained outer-join rows");
}

// ---------------------------------------------------------------------------
// Literal sweep: one plan shape per literal site, run over many literal
// values. Every run binds its own literals into the one module compiled for
// the shape, and must match the interpreter cell for cell.
// ---------------------------------------------------------------------------

/// A literal kind and the expressions each site builds around a literal of
/// it (over lineitem variable `l` and orders variable `o`).
struct LiteralKind {
  const char* name;
  std::vector<Value> values;
  Value other;  ///< a second value of the kind (the group key's else branch)
  std::function<ExprPtr(const char* l, ExprPtr lit)> pred;    ///< bool over l
  std::function<ExprPtr(const char* l, ExprPtr lit)> number;  ///< numeric over l
  std::function<ExprPtr(ExprPtr lit)> cross;                  ///< bool over o and l
  std::function<ExprPtr(ExprPtr lit)> key;                    ///< int join key over o
};

std::vector<LiteralKind> LiteralKinds() {
  auto lt = [](ExprPtr a, ExprPtr b) { return Expr::Bin(BinOp::kLt, a, b); };
  auto eq = [](ExprPtr a, ExprPtr b) { return Expr::Bin(BinOp::kEq, a, b); };
  auto ne = [](ExprPtr a, ExprPtr b) { return Expr::Bin(BinOp::kNe, a, b); };
  auto add = [](ExprPtr a, ExprPtr b) { return Expr::Bin(BinOp::kAdd, a, b); };
  auto mul = [](ExprPtr a, ExprPtr b) { return Expr::Bin(BinOp::kMul, a, b); };
  auto one_if = [](ExprPtr c) { return Expr::If(c, Expr::Int(1), Expr::Int(0)); };
  return {
      {"int",
       {Value::Int(0), Value::Int(-5), Value::Int(1), Value::Int(17), Value::Int(30),
        Value::Int(59), Value::Int(int64_t{1} << 40), Value::Int(30)},
       Value::Int(7),
       [=](const char* l, ExprPtr lit) { return lt(Proj(l, "l_orderkey"), lit); },
       [=](const char* l, ExprPtr lit) { return mul(Proj(l, "l_orderkey"), lit); },
       [=](ExprPtr lit) {
         return lt(add(Proj("l", "l_linenumber"), Proj("o", "o_shippriority")), lit);
       },
       [=](ExprPtr lit) { return add(Proj("o", "o_orderkey"), lit); }},
      {"float",
       {Value::Float(0.0), Value::Float(-0.0), Value::Float(-1.5), Value::Float(0.5),
        Value::Float(17.25), Value::Float(49.99), Value::Float(1e6)},
       Value::Float(7.5),
       [=](const char* l, ExprPtr lit) { return lt(Proj(l, "l_quantity"), lit); },
       [=](const char* l, ExprPtr lit) { return mul(Proj(l, "l_quantity"), lit); },
       [=](ExprPtr lit) {
         return lt(Proj("l", "l_quantity"), mul(Proj("o", "o_totalprice"), lit));
       },
       [=](ExprPtr lit) {
         return add(Proj("o", "o_orderkey"),
                    Expr::Cast(Type::Int64(), mul(Proj("o", "o_shippriority"), lit)));
       }},
      {"bool",
       {Value::Boolean(true), Value::Boolean(false), Value::Boolean(true)},
       Value::Boolean(false),
       [=](const char* l, ExprPtr lit) {
         return eq(lt(Proj(l, "l_linenumber"), Expr::Int(4)), lit);
       },
       [=](const char* l, ExprPtr lit) {
         return Expr::If(eq(lt(Proj(l, "l_linenumber"), Expr::Int(4)), lit),
                         Proj(l, "l_quantity"), Expr::Float(0.5));
       },
       [=](ExprPtr lit) {
         return eq(lt(Proj("l", "l_linenumber"), Proj("o", "o_shippriority")), lit);
       },
       [=](ExprPtr lit) {
         return add(Proj("o", "o_orderkey"),
                    one_if(eq(lt(Expr::Int(2), Proj("o", "o_shippriority")), lit)));
       }},
      {"string",
       {Value::Str(""), Value::Str("AIR"), Value::Str("RAIL"), Value::Str("it's"),
        Value::Str("say \"hi\" \\ 'there'"), Value::Str("TRUCK"), Value::Str("AIR")},
       Value::Str("other"),
       [=](const char* l, ExprPtr lit) { return ne(Proj(l, "l_shipmode"), lit); },
       [=](const char* l, ExprPtr lit) {
         return Expr::If(eq(Proj(l, "l_shipmode"), lit), Proj(l, "l_quantity"),
                         Expr::Float(0.5));
       },
       [=](ExprPtr lit) {
         return Expr::Bin(BinOp::kOr, ne(Proj("l", "l_shipmode"), lit),
                          ne(Proj("o", "o_comment"), lit));
       },
       [=](ExprPtr lit) {
         return add(Proj("o", "o_orderkey"), one_if(eq(Proj("o", "o_comment"), lit)));
       }},
  };
}

/// One literal site: the plan a literal of `kind` shapes.
struct LiteralSite {
  const char* name;
  std::function<OpPtr(const LiteralKind& kind, ExprPtr lit)> plan;
};

std::vector<LiteralSite> LiteralSites() {
  auto orderkeys_match = [] {
    return Expr::Bin(BinOp::kEq, Proj("o", "o_orderkey"), Proj("l", "l_orderkey"));
  };
  return {
      {"select",
       [](const LiteralKind& k, ExprPtr lit) {
         return Operator::Reduce(
             Operator::Select(Operator::Scan("lineitem_csv", "l"), k.pred("l", lit)),
             {{Monoid::kCount, nullptr, "n"}, {Monoid::kSum, Proj("l", "l_extendedprice"), "s"}});
       }},
      {"join_predicate",
       [=](const LiteralKind& k, ExprPtr lit) {
         return Operator::Reduce(
             Operator::Join(Operator::Scan("orders_bincol", "o"),
                            Operator::Scan("lineitem_json", "l"),
                            Expr::Bin(BinOp::kAnd, orderkeys_match(), k.cross(lit))),
             {{Monoid::kCount, nullptr, "n"},
              {Monoid::kMax, Proj("o", "o_totalprice"), "p"},
              {Monoid::kSum, Proj("l", "l_quantity"), "q"}});
       }},
      {"join_key",
       [](const LiteralKind& k, ExprPtr lit) {
         return Operator::Reduce(
             Operator::Join(Operator::Scan("orders_json", "o"),
                            Operator::Scan("lineitem_bincol", "l"),
                            Expr::Bin(BinOp::kEq, k.key(lit), Proj("l", "l_orderkey"))),
             {{Monoid::kCount, nullptr, "n"}, {Monoid::kSum, Proj("l", "l_extendedprice"), "s"}});
       }},
      {"nest_group_by",
       [](const LiteralKind& k, ExprPtr lit) {
         ExprPtr key = Expr::If(Expr::Bin(BinOp::kLt, Proj("l", "l_orderkey"), Expr::Int(30)),
                                lit, Expr::Lit(k.other));
         OpPtr nest = Operator::Nest(Operator::Scan("lineitem_bincol", "l"), key, "k",
                                     {{Monoid::kCount, nullptr, "n"},
                                      {Monoid::kSum, Proj("l", "l_quantity"), "q"}},
                                     nullptr, "g");
         ExprPtr row =
             Expr::Record({"k", "n", "q"}, {Proj("g", "k"), Proj("g", "n"), Proj("g", "q")});
         return Operator::Reduce(nest, {{Monoid::kBag, row, "row"}});
       }},
      {"aggregate_argument",
       [](const LiteralKind& k, ExprPtr lit) {
         return Operator::Reduce(Operator::Scan("lineitem_binrow", "l"),
                                 {{Monoid::kCount, nullptr, "n"},
                                  {Monoid::kSum, k.number("l", lit), "s"},
                                  {Monoid::kMax, k.number("l", lit), "m"}});
       }},
      {"unnest_predicate",
       [](const LiteralKind& k, ExprPtr lit) {
         return Operator::Reduce(
             Operator::Unnest(Operator::Scan("orders_denorm", "o"), {"o", "lineitems"}, "l",
                              k.pred("l", lit)),
             {{Monoid::kCount, nullptr, "n"}, {Monoid::kSum, Proj("l", "l_quantity"), "q"}});
       }},
      {"outer_join",
       [=](const LiteralKind& k, ExprPtr lit) {
         return Operator::Reduce(
             Operator::Join(Operator::Scan("orders_json", "o"),
                            Operator::Select(Operator::Scan("lineitem_json", "l"),
                                             k.pred("l", lit)),
                            orderkeys_match(), /*outer=*/true),
             {{Monoid::kCount, nullptr, "n"},
              {Monoid::kSum, Proj("l", "l_quantity"), "q"},
              {Monoid::kMax, Proj("o", "o_totalprice"), "p"}});
       }},
  };
}

std::unique_ptr<QueryEngine> SweepEngine(ExecMode mode, int threads) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.morsel_rows = kDiffMorselRows;
  // Statistics would let the optimizer re-plan by literal value; the sweep
  // holds each site to one optimized shape.
  opts.collect_stats_on_cold_access = false;
  auto engine = std::make_unique<QueryEngine>(opts);
  testutil::RegisterAll(engine.get());
  return engine;
}

TEST(JitLiteralSweep, OneModulePerShapeMatchesTheInterpreter) {
  auto interp = SweepEngine(ExecMode::kInterp, 1);
  for (const LiteralSite& site : LiteralSites()) {
    for (const LiteralKind& kind : LiteralKinds()) {
      const std::string shape = std::string(site.name) + "/" + kind.name;
      std::vector<QueryResult> oracle;
      for (const Value& v : kind.values) {
        auto r = interp->ExecutePlan(site.plan(kind, Expr::Lit(v)));
        ASSERT_TRUE(r.ok()) << shape << " " << v.ToString() << ": " << r.status().ToString();
        oracle.push_back(std::move(*r));
      }
      for (int threads : {1, 2, 4}) {
        auto jit = SweepEngine(ExecMode::kJIT, threads);
        for (size_t i = 0; i < kind.values.size(); ++i) {
          const std::string what = shape + " literal " + kind.values[i].ToString() +
                                   " threads=" + std::to_string(threads);
          QueryTelemetry tel;
          auto r = jit->ExecutePlan(site.plan(kind, Expr::Lit(kind.values[i])),
                                    {.telemetry = &tel});
          ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
          ASSERT_TRUE(tel.used_jit) << what << " fell back: " << tel.fallback_reason;
          EXPECT_EQ(tel.jit_cache_hit, i > 0) << what;
          ExpectIdentical(oracle[i], *r, what);
        }
        EXPECT_EQ(jit->jit_cache()->stats().compiles, 1u) << shape << " threads=" << threads;
      }
    }
  }
}


// ---------------------------------------------------------------------------
// The one typed group table: both engines fold every Nest position into the
// same GroupTable (key column with Value::Equals semantics, 8-byte slots
// plus seen flags, an Aggregator column for string extremes), so float
// keys, string max/min and high-cardinality merges stay cell-identical.
// ---------------------------------------------------------------------------

/// Nest(l <- lineitem_bincol) keyed by if l_linenumber < 4 then 0.0 else
/// -0.0, counting n: one group under Value::Equals (0.0 == -0.0).
OpPtr SignedZeroKeyNest() {
  ExprPtr key = Expr::If(Expr::Bin(BinOp::kLt, Proj("l", "l_linenumber"), Expr::Int(4)),
                         Expr::Float(0.0), Expr::Float(-0.0));
  return Operator::Nest(Operator::Scan("lineitem_bincol", "l"), key, "k",
                        {{Monoid::kCount, nullptr, "n"}}, nullptr, "g");
}

TEST(JitGroupTable, SignedZeroFloatKeysFormOneGroupInBothNestPositions) {
  auto mid_chain = [] {
    return Operator::Reduce(
        Operator::Select(SignedZeroKeyNest(),
                         Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(0))),
        {{Monoid::kCount, nullptr, "groups"}});
  };
  auto root = [] {
    ExprPtr rec = Expr::Record({"k", "n"}, {Proj("g", "k"), Proj("g", "n")});
    return Operator::Reduce(SignedZeroKeyNest(), {{Monoid::kBag, rec, "rows"}});
  };
  ExpectJitMatchesInterp(mid_chain, "signed-zero keys, mid-chain nest");
  ExpectJitMatchesInterp(root, "signed-zero keys, root nest");
  for (int threads : {1, 2, 4}) {
    RunInfo jit = RunOuterPlan(mid_chain, ExecMode::kJIT, threads);
    ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
    ASSERT_EQ(jit.result.rows.size(), 1u);
    EXPECT_TRUE(jit.result.rows[0][0].Equals(Value::Int(1)))
        << "0.0 and -0.0 are one group: " << jit.result.rows[0][0].ToString();
    jit = RunOuterPlan(root, ExecMode::kJIT, threads);
    ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
    EXPECT_EQ(jit.result.rows.size(), 1u) << "threads=" << threads;
  }
}

TEST(JitGroupTable, StringExtremesCompileInBothNestPositions) {
  // max/min(l_shipmode) live in the table's Aggregator column; a mid-chain
  // group loop reads the extremes in place.
  auto nest = [] {
    return Operator::Nest(Operator::Scan("lineitem_bincol", "l"), Proj("l", "l_linenumber"),
                          "ln",
                          {{Monoid::kCount, nullptr, "n"},
                           {Monoid::kMax, Proj("l", "l_shipmode"), "hi"},
                           {Monoid::kMin, Proj("l", "l_shipmode"), "lo"}},
                          nullptr, "g");
  };
  ExprPtr rec = Expr::Record({"ln", "n", "hi", "lo"},
                             {Proj("g", "ln"), Proj("g", "n"), Proj("g", "hi"), Proj("g", "lo")});
  ExpectJitMatchesInterp(
      [&] {
        return Operator::Reduce(
            Operator::Select(nest(), Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(0))),
            {{Monoid::kBag, rec, "rows"}});
      },
      "string max/min, mid-chain nest");
  ExpectJitMatchesInterp([&] { return Operator::Reduce(nest(), {{Monoid::kBag, rec, "rows"}}); },
                         "string max/min, root nest");
}

/// highcard_denorm: 4000 orders, o_custkey = 7 * o_orderkey mod 3000 (3000
/// int keys: 1000 shared by two orders far apart, 2000 by one), with 0, 1 or
/// 2 lineitems each — every fifth order has none, so its outer-unnest row
/// carries only null inputs.
const std::string& HighCardCorpusPath() {
  static const std::string path = [] {
    const std::string p = testutil::Corpus::Get().dir + "/highcard_denorm.json";
    std::ofstream f(p);
    for (int i = 1; i <= 4000; ++i) {
      f << "{\"o_orderkey\":" << i << ",\"o_custkey\":" << (7 * i) % 3000
        << ",\"o_totalprice\":" << 1.5 * i << ",\"lineitems\":[";
      const int lines = i % 5 == 0 ? 0 : (i % 3 == 0 ? 2 : 1);
      for (int ln = 1; ln <= lines; ++ln) {
        if (ln > 1) f << ",";
        f << "{\"l_orderkey\":" << i << ",\"l_linenumber\":" << (i * ln) % 11
          << ",\"l_quantity\":" << 0.25 * ((i * 13 + ln) % 97) << ",\"l_extendedprice\":"
          << 10.125 * ((i + ln) % 89) << ",\"l_discount\":0.01,\"l_tax\":0.02,"
          << "\"l_shipmode\":\"AIR\",\"l_comment\":\"c\"}";
      }
      f << "]}\n";
    }
    return p;
  }();
  return path;
}

/// GROUP BY o_custkey over the outer unnest of highcard_denorm:
/// count/sum/max/min over int (l_linenumber) and float (l_quantity,
/// l_extendedprice) inputs.
OpPtr HighCardGroupPlan() {
  OpPtr unnest = Operator::Unnest(Operator::Scan("highcard_denorm", "o"), {"o", "lineitems"},
                                  "l", nullptr, /*outer=*/true);
  OpPtr nest = Operator::Nest(unnest, Proj("o", "o_custkey"), "ck",
                              {{Monoid::kCount, nullptr, "n"},
                               {Monoid::kSum, Proj("l", "l_quantity"), "sq"},
                               {Monoid::kSum, Proj("l", "l_linenumber"), "sl"},
                               {Monoid::kMax, Proj("l", "l_quantity"), "mq"},
                               {Monoid::kMax, Proj("l", "l_linenumber"), "ml"},
                               {Monoid::kMin, Proj("l", "l_extendedprice"), "pe"},
                               {Monoid::kMin, Proj("l", "l_linenumber"), "nl"}},
                              nullptr, "g");
  std::vector<std::string> names = {"ck", "n", "sq", "sl", "mq", "ml", "pe", "nl"};
  std::vector<ExprPtr> cells;
  for (const auto& name : names) cells.push_back(Proj("g", name.c_str()));
  return Operator::Reduce(nest, {{Monoid::kBag, Expr::Record(names, cells), "rows"}});
}

RunInfo RunHighCard(ExecMode mode, int threads, int shards, bool tiered) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.num_shards = shards;
  opts.morsel_rows = kDiffMorselRows;
  opts.tiered = tiered;
  opts.tiered_opts.force_swap_after_morsels = 5;
  QueryEngine engine(opts);
  DatasetInfo info;
  info.name = "highcard_denorm";
  info.format = DataFormat::kJSON;
  info.path = HighCardCorpusPath();
  info.type = datagen::OrdersDenormSchema();
  EXPECT_TRUE(engine.RegisterDataset(info).ok());
  RunInfo run;
  auto r = engine.ExecutePlan(HighCardGroupPlan(), {.telemetry = &run.telemetry});
  run.status = r.status();
  if (r.ok()) run.result = std::move(*r);
  return run;
}

TEST(JitGroupTable, HighCardinalityGroupsCellIdenticalEverywhere) {
  RunInfo oracle = RunHighCard(ExecMode::kInterp, 1, 0, false);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  ASSERT_EQ(oracle.result.rows.size(), 3000u);
  ASSERT_GT(oracle.telemetry.morsels, 100u) << "many small morsels";
  // Groups whose every input is null: sum 0, max/min null — Aggregator's
  // empty-state cells.
  size_t null_only = 0;
  for (const auto& row : oracle.result.rows) {
    if (!row[4].is_null()) continue;
    ++null_only;
    EXPECT_TRUE(row[2].is_int() && row[2].i() == 0) << row[2].ToString();
    EXPECT_TRUE(row[3].is_int() && row[3].i() == 0) << row[3].ToString();
    EXPECT_TRUE(row[5].is_null() && row[6].is_null() && row[7].is_null());
  }
  EXPECT_GT(null_only, 100u);

  struct Config {
    std::string name;
    ExecMode mode;
    int threads;
    int shards;
    bool tiered;
  };
  const std::vector<Config> configs = {
      {"jit threads=1", ExecMode::kJIT, 1, 0, false},
      {"jit threads=2", ExecMode::kJIT, 2, 0, false},
      {"jit threads=4", ExecMode::kJIT, 4, 0, false},
      {"interp threads=4", ExecMode::kInterp, 4, 0, false},
      {"interp shards=2", ExecMode::kInterp, 2, 2, false},
      {"jit shards=2", ExecMode::kJIT, 2, 2, false},
      {"tiered forced swap", ExecMode::kJIT, 2, 0, true},
  };
  for (const Config& c : configs) {
    RunInfo run = RunHighCard(c.mode, c.threads, c.shards, c.tiered);
    ASSERT_TRUE(run.status.ok()) << c.name << ": " << run.status.ToString();
    ExpectIdentical(oracle.result, run.result, "high-cardinality group-by @ " + c.name);
    if (c.mode == ExecMode::kJIT) {
      EXPECT_TRUE(run.telemetry.used_jit) << c.name << ": " << run.telemetry.fallback_reason;
    }
    if (c.shards > 0) {
      EXPECT_EQ(run.telemetry.shards_used, c.shards) << c.name;
    }
    if (c.tiered) {
      EXPECT_GT(run.telemetry.morsels_interpreted, 0u) << "the swap landed mid-query";
      EXPECT_GT(run.telemetry.morsels_jit, 0u) << "the swap landed mid-query";
    }
  }
}

// ---------------------------------------------------------------------------
// Raw JSON reads follow one rule on every engine, route and cache: an absent
// field or a JSON null is SQL null, strings come back unescaped, and nested
// paths assemble into one record. Each case's answer is the interpreter's,
// asserted outright; every route must then reproduce it cell for cell.
// Escaped strings travel through a join payload, a group key and a bag
// output, so a sanitizer build catches unescaped bytes freed too early.
// ---------------------------------------------------------------------------

/// One raw_csv row: its fields' text, empty for SQL null.
struct RawCsvRow {
  std::string id, k, x, n, s, f;
};
RawCsvRow RawCsv(int i) {
  RawCsvRow r;
  r.id = std::to_string(i);
  r.k = i % 4 == 3 ? "" : std::to_string(i % 5);
  if (i % 3 != 0) r.x = std::to_string(0.5 * i + 0.25);
  r.n = i % 5 == 1 ? "" : std::to_string(i * 7 % 11 - 3);
  r.s = i % 6 == 2 ? "" : (i % 2 != 0 ? "odd" : "even");
  r.f = i % 3 == 1 ? "true" : (i % 3 == 2 ? "" : "false");
  return r;
}
constexpr int kRawCsvRows = 36;

/// Writes the raw-rule corpora once per process:
///   raw_sparse — 48 objects: x absent on every third (else -5 or -7),
///                y null on every other (else -4), s cycling through the
///                escaped strings a"b and c\d and a plain one, k = id % 5;
///   raw_elems  — 40 objects whose items elements are {f, w} records, some
///                lacking w, some arrays empty;
///   raw_nested — 40 objects with two leaves under o.p;
///   raw_csv    — 36 CSV rows (RawCsvRow) whose int, float, string, bool
///                and join-key fields are empty on some rows.
const std::string& RawCorpusDir() {
  static const std::string dir = [] {
    const testutil::Corpus& c = testutil::Corpus::Get();
    {
      std::ofstream f(c.dir + "/raw_sparse.json");
      const char* strings[] = {R"("a\"b")", R"("plain")", R"("c\\d")"};
      for (int i = 0; i < 48; ++i) {
        f << "{\"id\":" << i << ",\"k\":" << i % 5;
        if (i % 3 != 0) f << ",\"x\":" << (i % 2 != 0 ? -5 : -7);
        if (i % 2 == 0) {
          f << ",\"y\":null";
        } else {
          f << ",\"y\":-4";
        }
        f << ",\"s\":" << strings[i % 3] << "}\n";
      }
    }
    {
      std::ofstream f(c.dir + "/raw_elems.json");
      for (int i = 0; i < 40; ++i) {
        f << "{\"id\":" << i << ",\"items\":[";
        switch (i % 4) {
          case 0: break;
          case 1: f << "{\"f\":true,\"w\":" << i + 1 << "}"; break;
          case 2: f << "{\"f\":true},{\"f\":false,\"w\":" << i + 1 << "}"; break;
          default: f << "{\"f\":false,\"w\":" << i + 1 << "},{\"w\":2,\"f\":true}"; break;
        }
        f << "]}\n";
      }
    }
    {
      std::ofstream f(c.dir + "/raw_nested.json");
      for (int i = 0; i < 40; ++i) {
        f << "{\"id\":" << i << ",\"o\":{\"p\":{\"x\":1,\"y\":10}}}\n";
      }
    }
    {
      std::ofstream f(c.dir + "/raw_csv.csv");
      for (int i = 0; i < kRawCsvRows; ++i) {
        const RawCsvRow r = RawCsv(i);
        f << r.id << "," << r.k << "," << r.x << "," << r.n << "," << r.s << "," << r.f << "\n";
      }
    }
    return c.dir;
  }();
  return dir;
}

void RegisterRawCorpus(QueryEngine* engine) {
  const std::string& dir = RawCorpusDir();
  auto reg = [&](const std::string& name, TypePtr type, DataFormat format = DataFormat::kJSON) {
    DatasetInfo info;
    info.name = name;
    info.format = format;
    info.path = dir + "/" + name + (format == DataFormat::kCSV ? ".csv" : ".json");
    info.type = std::move(type);
    ASSERT_TRUE(engine->RegisterDataset(info).ok()) << name;
  };
  reg("raw_sparse", Type::BagOfRecords({{"id", Type::Int64()},
                                        {"k", Type::Int64()},
                                        {"x", Type::Int64()},
                                        {"y", Type::Int64()},
                                        {"s", Type::String()}}));
  const TypePtr elem = Type::Record({{"f", Type::Bool()}, {"w", Type::Int64()}});
  reg("raw_elems",
      Type::BagOfRecords({{"id", Type::Int64()},
                          {"items", Type::Collection(CollectionKind::kList, elem)}}));
  reg("raw_nested",
      Type::BagOfRecords(
          {{"id", Type::Int64()},
           {"o", Type::Record({{"p", Type::Record({{"x", Type::Int64()},
                                                   {"y", Type::Int64()}})}})}}));
  reg("raw_csv",
      Type::BagOfRecords({{"id", Type::Int64()},
                          {"k", Type::Int64()},
                          {"x", Type::Float64()},
                          {"n", Type::Int64()},
                          {"s", Type::String()},
                          {"f", Type::Bool()}}),
      DataFormat::kCSV);
}

/// The key corpus of the JitKeyJoins tests below: join keys of every type
/// with the values whose equality rules differ between types.
const std::vector<Value>& KeyInts() {
  static const std::vector<Value> v = {
      Value::Int(2), Value::Int(0), Value::Int(-1), Value::Int(7),
      Value::Int(int64_t{1} << 53), Value::Int((int64_t{1} << 53) + 1),
      Value::Int(-(int64_t{1} << 53) - 1), Value::Int(INT64_MAX), Value::Int(INT64_MIN),
      Value::Null(), Value::Int(2)};
  return v;
}

const std::vector<Value>& KeyFloats() {
  static const std::vector<Value> v = {
      Value::Float(2.0), Value::Float(-0.0), Value::Float(0.0), Value::Float(0.5),
      Value::Float(std::numeric_limits<double>::quiet_NaN()),
      Value::Float(std::numeric_limits<double>::infinity()),
      Value::Float(-std::numeric_limits<double>::infinity()), Value::Float(1e300),
      Value::Float(0x1p53), Value::Float(-0x1p53 - 2.0), Value::Null(), Value::Float(7.0),
      Value::Float(0x1p63)};
  return v;
}

/// Shared prefixes, the empty string, duplicates, and characters JSON
/// escapes; the probe side adds misses.
std::vector<Value> KeyStrings(bool probe) {
  std::vector<Value> v = {Value::Str("a"),        Value::Str("ab"),          Value::Str("abc"),
                          Value::Str(""),         Value::Str("dup"),         Value::Str("quote\"d"),
                          Value::Str("back\\sl"), Value::Str("tab\there"),   Value::Null()};
  if (probe) {
    v.push_back(Value::Str("abcd"));
    v.push_back(Value::Str("zzz"));
  } else {
    v.push_back(Value::Str("dup"));
  }
  return v;
}

/// Build side ("keys_a", 24 rows) or probe side ("keys_b", 72 rows: several
/// 16-row morsels) of the key corpus: id, ik (int), fk (float), sk (string).
RowTable KeyTable(bool probe) {
  RowTable t(Type::Record({{"id", Type::Int64()},
                           {"ik", Type::Int64()},
                           {"fk", Type::Float64()},
                           {"sk", Type::String()}}));
  const std::vector<Value> strs = KeyStrings(probe);
  const int rows = probe ? 72 : 24;
  const int base = probe ? 100 : 0;
  for (int i = 0; i < rows; ++i) {
    const size_t k = static_cast<size_t>(i);
    t.Append({Value::Int(base + i), KeyInts()[(probe ? 3 * k : k) % KeyInts().size()],
              KeyFloats()[(probe ? 7 * k : 5 * k) % KeyFloats().size()],
              strs[(probe ? 5 * k : 7 * k) % strs.size()]});
  }
  return t;
}

/// Writes the key corpus as binary columns, CSV and JSON once per process.
/// CSV writes an empty field for a null or empty string (both SQL null
/// there) and nan/inf as text; JSON omits null fields on even rows and
/// writes `null` on odd ones, and has no NaN or inf (those fields are
/// omitted too); binary columns store a null as 0, 0.0 or "".
const std::string& KeyCorpusDir() {
  static const std::string dir = [] {
    const std::string d = testutil::Corpus::Get().dir;
    for (bool probe : {false, true}) {
      const RowTable t = KeyTable(probe);
      const std::string name = d + (probe ? "/keys_b" : "/keys_a");
      EXPECT_TRUE(WriteBinaryColumnDir(name + ".bincol", t).ok());
      EXPECT_TRUE(WriteCSVFile(name + ".csv", t).ok());
      std::ofstream f(name + ".json");
      const auto& fields = t.record_type()->fields();
      for (size_t r = 0; r < t.num_rows(); ++r) {
        std::string line;
        for (size_t c = 0; c < fields.size(); ++c) {
          const Value& v = t.row(r)[c];
          const bool unwritable = v.is_float() && !std::isfinite(v.f());
          if ((v.is_null() && r % 2 == 0) || unwritable) continue;
          line += (line.empty() ? "{\"" : ",\"") + fields[c].name + "\":" + ValueToJSON(v);
        }
        f << line << "}\n";
      }
    }
    return d;
  }();
  return dir;
}

const char* kKeyFormats[] = {"bincol", "csv", "json"};

void RegisterKeyCorpus(QueryEngine* engine) {
  const std::string& dir = KeyCorpusDir();
  const TypePtr type = Type::BagOfRecords({{"id", Type::Int64()},
                                           {"ik", Type::Int64()},
                                           {"fk", Type::Float64()},
                                           {"sk", Type::String()}});
  for (const char* side : {"keys_a", "keys_b"}) {
    for (const char* fmt : kKeyFormats) {
      DatasetInfo info;
      info.name = std::string(side) + "_" + fmt;
      info.format = fmt == std::string("bincol") ? DataFormat::kBinaryColumn
                    : fmt == std::string("csv")  ? DataFormat::kCSV
                                                 : DataFormat::kJSON;
      info.path = dir + "/" + side + "." + fmt;
      info.type = type;
      ASSERT_TRUE(engine->RegisterDataset(info).ok()) << info.name;
    }
  }
}

struct RawRoute {
  std::string name;
  ExecMode mode;
  int threads;
  int shards = 0;
  bool cached = false;  ///< scan caches on; the measured run reads the block
  bool tiered = false;  ///< forced swap after the first morsel
  JoinStrategyOverride strat = JoinStrategyOverride::kAuto;
};

/// Runs `run` once on a fresh engine over the raw and key corpora,
/// configured as `route` (cached routes after one warm-up run that fills the
/// caches).
using EngineRun = std::function<Result<QueryResult>(QueryEngine&, const CallOptions&)>;
RunInfo RunRawWith(const EngineRun& run, const RawRoute& route) {
  EngineOptions opts;
  opts.mode = route.mode;
  opts.num_threads = route.threads;
  opts.num_shards = route.shards;
  opts.morsel_rows = kDiffMorselRows;
  opts.cache_policy.enabled = route.cached;
  opts.tiered = route.tiered;
  opts.tiered_opts.force_swap_after_morsels = 1;
  opts.optimizer.join_strategy = route.strat;
  QueryEngine engine(opts);
  RegisterRawCorpus(&engine);
  RegisterKeyCorpus(&engine);
  if (route.cached) {
    auto warm = run(engine, {});
    EXPECT_TRUE(warm.ok()) << route.name << ": " << warm.status().ToString();
  }
  RunInfo info;
  auto r = run(engine, {.telemetry = &info.telemetry});
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  return info;
}

RunInfo RunRaw(const std::string& q, const RawRoute& route) {
  return RunRawWith(
      [&](QueryEngine& engine, const CallOptions& call) { return engine.Execute(q, call); },
      route);
}

/// Every route a raw read can take: both engines, thread and shard
/// fan-outs, scan caches, and a tiered swap.
std::vector<RawRoute> RawRoutes() {
  return {
      {"interp threads=4", ExecMode::kInterp, 4},
      {"jit threads=1", ExecMode::kJIT, 1},
      {"jit threads=2", ExecMode::kJIT, 2},
      {"jit threads=4", ExecMode::kJIT, 4},
      {"interp shards=2", ExecMode::kInterp, 2, 2},
      {"jit shards=2", ExecMode::kJIT, 2, 2},
      {"interp cached", ExecMode::kInterp, 2, 0, /*cached=*/true},
      {"jit cached", ExecMode::kJIT, 2, 0, /*cached=*/true},
      {"tiered forced swap", ExecMode::kJIT, 2, 0, false, /*tiered=*/true},
  };
}

struct RawCase {
  std::string name;
  std::string query;
  /// Checks the interpreter's answer outright.
  std::function<void(const QueryResult&)> check;
};

std::vector<RawCase> RawCases() {
  auto scalar = [](int64_t want) {
    return [want](const QueryResult& r) {
      ASSERT_EQ(r.rows.size(), 1u);
      ASSERT_EQ(r.rows[0].size(), 1u);
      EXPECT_TRUE(r.rows[0][0].Equals(Value::Int(want))) << r.rows[0][0].ToString();
    };
  };
  auto strings_unescaped = [](size_t col) {
    return [col](const QueryResult& r) {
      ASSERT_FALSE(r.rows.empty());
      size_t escaped = 0;
      for (const auto& row : r.rows) {
        ASSERT_TRUE(row[col].is_string()) << row[col].ToString();
        const std::string& s = row[col].s();
        EXPECT_TRUE(s == "a\"b" || s == "plain" || s == "c\\d") << s;
        escaped += s != "plain" ? 1 : 0;
      }
      EXPECT_GT(escaped, 0u);
    };
  };
  return {
      {"absent field is null in max", "SELECT max(x) FROM raw_sparse", scalar(-5)},
      {"absent field fails a comparison", "SELECT count(*) FROM raw_sparse WHERE x > -1",
       scalar(0)},
      {"json null is null in max", "SELECT max(y) FROM raw_sparse", scalar(-4)},
      {"escaped group key", "SELECT s, count(*) FROM raw_sparse GROUP BY s",
       [=](const QueryResult& r) {
         ASSERT_EQ(r.rows.size(), 3u);
         strings_unescaped(0)(r);
       }},
      {"escaped bag output with null cells", "SELECT id, s, x FROM raw_sparse WHERE id < 20",
       [=](const QueryResult& r) {
         ASSERT_EQ(r.rows.size(), 20u);
         strings_unescaped(1)(r);
         size_t nulls = 0;
         for (const auto& row : r.rows) nulls += row[2].is_null() ? 1 : 0;
         EXPECT_EQ(nulls, 7u);
       }},
      {"escaped join payload",
       "SELECT a.id, a.s, b.s FROM raw_sparse a JOIN raw_sparse b ON a.k = b.k "
       "WHERE a.id < 8",
       [=](const QueryResult& r) {
         ASSERT_FALSE(r.rows.empty());
         strings_unescaped(1)(r);
         strings_unescaped(2)(r);
       }},
      {"absent join keys match nothing",
       "SELECT count(*) FROM raw_sparse a JOIN raw_sparse b ON a.x = b.x", scalar(512)},
      {"element bool field", "SELECT count(*) FROM raw_elems t, UNNEST(t.items) e WHERE e.f",
       scalar(30)},
      {"element field absent is null", "SELECT min(e.w) FROM raw_elems t, UNNEST(t.items) e",
       scalar(2)},
      {"element fields through a join",
       "SELECT count(*), min(e.w), max(s.y) FROM raw_elems t, UNNEST(t.items) e "
       "JOIN raw_sparse s ON t.id = s.id WHERE e.f",
       [](const QueryResult& r) {
         ASSERT_EQ(r.rows.size(), 1u);
         ASSERT_EQ(r.rows[0].size(), 3u);
         EXPECT_TRUE(r.rows[0][0].Equals(Value::Int(30))) << r.rows[0][0].ToString();
         EXPECT_TRUE(r.rows[0][1].Equals(Value::Int(2))) << r.rows[0][1].ToString();
         EXPECT_TRUE(r.rows[0][2].Equals(Value::Int(-4))) << r.rows[0][2].ToString();
       }},
      {"empty csv int fails a comparison", "SELECT count(*) FROM raw_csv WHERE n > -100",
       scalar(29)},
      {"empty csv bool fails a predicate", "SELECT count(*) FROM raw_csv WHERE f", scalar(12)},
      {"empty csv fields are null in aggregates", "SELECT min(x), max(n) FROM raw_csv",
       [](const QueryResult& r) {
         ASSERT_EQ(r.rows.size(), 1u);
         ASSERT_EQ(r.rows[0].size(), 2u);
         EXPECT_TRUE(r.rows[0][0].Equals(Value::Float(0.75))) << r.rows[0][0].ToString();
         EXPECT_TRUE(r.rows[0][1].Equals(Value::Int(7))) << r.rows[0][1].ToString();
       }},
      {"empty csv cells in a bag output", "SELECT id, s, x, f FROM raw_csv WHERE id < 12",
       [](const QueryResult& r) {
         ASSERT_EQ(r.rows.size(), 12u);
         size_t null_s = 0, null_x = 0, null_f = 0;
         for (const auto& row : r.rows) {
           null_s += row[1].is_null() ? 1 : 0;
           null_x += row[2].is_null() ? 1 : 0;
           null_f += row[3].is_null() ? 1 : 0;
         }
         EXPECT_EQ(null_s, 2u);
         EXPECT_EQ(null_x, 4u);
         EXPECT_EQ(null_f, 4u);
       }},
      {"empty csv group key", "SELECT s, count(*) FROM raw_csv GROUP BY s",
       [](const QueryResult& r) { EXPECT_EQ(r.rows.size(), 3u); }},
      {"empty csv join keys match nothing",
       "SELECT count(*), max(b.x) FROM raw_csv a JOIN raw_csv b ON a.k = b.k",
       [](const QueryResult& r) {
         int64_t pairs = 0;
         for (int i = 0; i < kRawCsvRows; ++i) {
           for (int j = 0; j < kRawCsvRows; ++j) {
             const std::string ki = RawCsv(i).k;
             pairs += !ki.empty() && ki == RawCsv(j).k ? 1 : 0;
           }
         }
         ASSERT_EQ(r.rows.size(), 1u);
         EXPECT_TRUE(r.rows[0][0].Equals(Value::Int(pairs))) << r.rows[0][0].ToString();
       }},
      {"two leaves under one nested record",
       "SELECT sum(t.o.p.x), sum(t.o.p.y) FROM raw_nested t",
       [](const QueryResult& r) {
         ASSERT_EQ(r.rows.size(), 1u);
         ASSERT_EQ(r.rows[0].size(), 2u);
         EXPECT_TRUE(r.rows[0][0].Equals(Value::Int(40))) << r.rows[0][0].ToString();
         EXPECT_TRUE(r.rows[0][1].Equals(Value::Int(400))) << r.rows[0][1].ToString();
       }},
  };
}

TEST(RawFieldReads, EveryRouteFollowsTheInterpretersJsonRules) {
  const std::vector<RawRoute> routes = RawRoutes();
  for (const RawCase& c : RawCases()) {
    SCOPED_TRACE(c.name);
    RunInfo oracle = RunRaw(c.query, {"interp threads=1", ExecMode::kInterp, 1});
    ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
    c.check(oracle.result);
    for (const RawRoute& route : routes) {
      RunInfo run = RunRaw(c.query, route);
      ASSERT_TRUE(run.status.ok()) << route.name << ": " << run.status.ToString();
      ExpectIdentical(oracle.result, run.result, c.name + " @ " + route.name);
      if (route.mode == ExecMode::kJIT) {
        EXPECT_TRUE(run.telemetry.used_jit)
            << route.name << ": " << run.telemetry.fallback_reason;
      }
      if (route.cached) {
        EXPECT_TRUE(run.telemetry.used_cache) << route.name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy raw reads: generated code reads a raw field only where an operator
// first uses it, once per row (or element) at most — a count(*) reads
// nothing, a filter's other fields cost only for the rows that pass. The
// counters pin the reads exactly; each hazard of the binding rules (a field
// first used inside an and/or/if arm, sibling branches, loops over matches
// or elements) must stay cell-identical to the interpreter on every route,
// without a codegen decline.
// ---------------------------------------------------------------------------

/// raw_field_accesses of one run of `q` on a warm engine (an engine's first
/// run of a dataset also reads fields, for the optimizer's statistics).
uint64_t RawReadsOf(const std::string& q, ExecMode mode, int threads,
                    QueryResult* result = nullptr) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.morsel_rows = kDiffMorselRows;
  QueryEngine engine(opts);
  RegisterRawCorpus(&engine);
  auto warm = engine.Execute(q);
  EXPECT_TRUE(warm.ok()) << q << ": " << warm.status().ToString();
  QueryTelemetry tel;
  const uint64_t before = GlobalCounters().raw_field_accesses;
  auto r = engine.Execute(q, {.telemetry = &tel});
  const uint64_t reads = GlobalCounters().raw_field_accesses - before;
  EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
  if (mode == ExecMode::kJIT) {
    EXPECT_TRUE(tel.used_jit) << q << ": " << tel.fallback_reason;
  }
  if (result != nullptr && r.ok()) *result = std::move(*r);
  return reads;
}

TEST(LazyRawReads, CountStarReadsNoField) {
  const std::vector<std::string> scans = {"SELECT count(*) FROM raw_csv",
                                          "SELECT count(*) FROM raw_sparse"};
  for (int threads : {1, 4}) {
    for (const std::string& q : scans) {
      EXPECT_EQ(RawReadsOf(q, ExecMode::kJIT, threads), 0u) << q << " threads=" << threads;
      EXPECT_EQ(RawReadsOf(q, ExecMode::kInterp, threads), 0u) << q << " threads=" << threads;
    }
    const std::string elems = "SELECT count(*) FROM raw_elems t, UNNEST(t.items) e";
    EXPECT_EQ(RawReadsOf(elems, ExecMode::kJIT, threads), 0u) << elems;
  }
}

TEST(LazyRawReads, FiltersReadTheirOtherFieldsForPassingRowsOnly) {
  // reads = scanned (the filter field, once per row or element)
  //       + per_pass × passing (each aggregated field, once per passing row)
  struct Case {
    std::string query;
    uint64_t scanned;
    uint64_t per_pass;
  };
  const std::vector<Case> cases = {
      {"SELECT count(*), sum(x), max(n) FROM raw_csv WHERE id < 10", kRawCsvRows, 2},
      {"SELECT count(*), sum(k), max(y) FROM raw_sparse WHERE id < 20", 48, 2},
      {"SELECT count(*), sum(e.w) FROM raw_elems t, UNNEST(t.items) e WHERE e.f", 50, 1},
  };
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      QueryResult r;
      const uint64_t reads = RawReadsOf(c.query, ExecMode::kJIT, threads, &r);
      ASSERT_EQ(r.rows.size(), 1u) << c.query;
      const auto passing = static_cast<uint64_t>(r.rows[0][0].i());
      EXPECT_GT(passing, 0u) << c.query;
      EXPECT_LT(passing, c.scanned) << c.query;
      EXPECT_EQ(reads, c.scanned + c.per_pass * passing)
          << c.query << " threads=" << threads << " passing=" << passing;
    }
  }
}

TEST(LazyRawReads, OuterRowFieldsReadOncePerRowNotPerMatchOrElement) {
  for (int threads : {1, 4}) {
    // Each k matches about seven rows, so a read per match would cost
    // several times the one read per field per row that bounds this.
    const std::string join =
        "SELECT count(*), max(a.x), max(b.n) FROM raw_csv a JOIN raw_csv b ON a.k = b.k";
    EXPECT_LE(RawReadsOf(join, ExecMode::kJIT, threads), 2u * kRawCsvRows * 2)
        << join << " threads=" << threads;
    // t.id once per object (40), e.f once per element (50), e.w once per
    // passing element (30).
    const std::string unnest =
        "SELECT count(*), max(t.id), sum(e.w) FROM raw_elems t, UNNEST(t.items) e WHERE e.f";
    EXPECT_EQ(RawReadsOf(unnest, ExecMode::kJIT, threads), 40u + 50u + 30u)
        << unnest << " threads=" << threads;
  }
}

/// Runs `run` on the interpreter and on every route; each must match the
/// interpreter cell for cell, and generated routes must not decline.
void ExpectLazyIdentical(const std::string& name, const EngineRun& run) {
  SCOPED_TRACE(name);
  RunInfo oracle = RunRawWith(run, {"interp threads=1", ExecMode::kInterp, 1});
  ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
  ASSERT_FALSE(oracle.result.rows.empty());
  for (const RawRoute& route : RawRoutes()) {
    RunInfo r = RunRawWith(run, route);
    ASSERT_TRUE(r.status.ok()) << route.name << ": " << r.status.ToString();
    ExpectIdentical(oracle.result, r.result, name + " @ " + route.name);
    if (route.mode == ExecMode::kJIT) {
      EXPECT_TRUE(r.telemetry.used_jit) << route.name << ": " << r.telemetry.fallback_reason;
      EXPECT_TRUE(r.telemetry.fallback_reason.empty())
          << route.name << ": " << r.telemetry.fallback_reason;
    }
    if (route.cached) {
      EXPECT_TRUE(r.telemetry.used_cache) << route.name;
    }
  }
}

EngineRun Sql(std::string q) {
  return [q](QueryEngine& engine, const CallOptions& call) { return engine.Execute(q, call); };
}

EngineRun PlanOf(std::function<OpPtr()> make_plan) {
  return [make_plan](QueryEngine& engine, const CallOptions& call) {
    return engine.ExecutePlan(make_plan(), call);
  };
}

TEST(LazyRawReads, FieldsFirstUsedInsideConditionalArms) {
  ExpectLazyIdentical("csv and/or arms",
                      Sql("SELECT count(*), sum(x), max(n) FROM raw_csv "
                          "WHERE id > 3 and x > 2.0 or n < 0"));
  ExpectLazyIdentical("json and/or arms",
                      Sql("SELECT count(*), max(x), max(y) FROM raw_sparse "
                          "WHERE k > 1 and x < -6 or y > -5"));
  // x is read first inside an if arm, then again by a later aggregate.
  ExpectLazyIdentical("if arm", PlanOf([] {
                        ExprPtr arm =
                            Expr::If(Expr::Bin(BinOp::kGt, Proj("c", "id"), Expr::Int(10)),
                                     Proj("c", "x"), Proj("c", "n"));
                        return Operator::Reduce(
                            Operator::Scan("raw_csv", "c"),
                            {{Monoid::kSum, arm, "a"}, {Monoid::kMax, Proj("c", "x"), "mx"}});
                      }));
}

TEST(LazyRawReads, OuterUnnestNullBranchThenElementLoop) {
  ExpectLazyIdentical("outer unnest", PlanOf([] {
                        OpPtr unnest = Operator::Unnest(Operator::Scan("raw_elems", "t"),
                                                        {"t", "items"}, "e", nullptr,
                                                        /*outer=*/true);
                        ExprPtr pred = Expr::Bin(
                            BinOp::kOr, Expr::Bin(BinOp::kGt, Proj("t", "id"), Expr::Int(20)),
                            Expr::Bin(BinOp::kGt, Proj("e", "w"), Expr::Int(5)));
                        ExprPtr row = Expr::Record(
                            {"id", "w", "f"}, {Proj("t", "id"), Proj("e", "w"), Proj("e", "f")});
                        return Operator::Reduce(Operator::Select(unnest, pred),
                                                {{Monoid::kBag, row, "rows"}});
                      }));
}

TEST(LazyRawReads, JoinsReadProbeFieldsOncePerRow) {
  ExpectLazyIdentical("outer-join drain", PlanOf([] {
                        OpPtr join = Operator::Join(
                            Operator::Scan("raw_csv", "a"), Operator::Scan("raw_sparse", "b"),
                            Expr::Bin(BinOp::kEq, Proj("a", "n"), Proj("b", "k")),
                            /*outer=*/true);
                        ExprPtr row = Expr::Record(
                            {"id", "x", "s"}, {Proj("a", "id"), Proj("a", "x"), Proj("b", "s")});
                        return Operator::Reduce(join, {{Monoid::kBag, row, "rows"}});
                      }));
  ExpectLazyIdentical("non-equi join", PlanOf([] {
                        OpPtr join = Operator::Join(
                            Operator::Scan("raw_csv", "a"), Operator::Scan("raw_sparse", "b"),
                            Expr::Bin(BinOp::kLt, Proj("a", "id"), Proj("b", "k")));
                        return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"},
                                                       {Monoid::kSum, Proj("a", "x"), "sx"},
                                                       {Monoid::kMax, Proj("b", "y"), "my"}});
                      }));
  ExpectLazyIdentical("multi-match probe",
                      Sql("SELECT a.id, b.id, b.x, a.s FROM raw_csv a JOIN raw_csv b "
                          "ON a.k = b.k WHERE b.n > 0"));
}

TEST(LazyRawReads, RecordValuedUsesFallBackToTheInterpreter) {
  // A record-valued field or a whole scan variable has no generated read:
  // generated routes decline with a reason and the interpreter answers.
  const std::vector<std::string> queries = {
      "SELECT t.o FROM raw_nested t",
      "SELECT t.id, t.o.p FROM raw_nested t WHERE t.id < 10",
      "SELECT t FROM raw_csv t",
  };
  for (const std::string& q : queries) {
    SCOPED_TRACE(q);
    RunInfo oracle = RunRaw(q, {"interp threads=1", ExecMode::kInterp, 1});
    ASSERT_TRUE(oracle.status.ok()) << oracle.status.ToString();
    ASSERT_FALSE(oracle.result.rows.empty());
    for (const RawRoute& route : RawRoutes()) {
      RunInfo r = RunRaw(q, route);
      ASSERT_TRUE(r.status.ok()) << route.name << ": " << r.status.ToString();
      ExpectIdentical(oracle.result, r.result, q + " @ " + route.name);
      if (route.mode == ExecMode::kJIT) {
        EXPECT_FALSE(r.telemetry.fallback_reason.empty()) << route.name;
      }
    }
  }
}

TEST(LazyRawReads, MidChainNestAndCachedHybridReads) {
  ExpectLazyIdentical("mid-chain nest", PlanOf([] {
                        OpPtr nest = Operator::Nest(Operator::Scan("raw_csv", "c"), Proj("c", "s"),
                                                    "s",
                                                    {{Monoid::kCount, nullptr, "n"},
                                                     {Monoid::kSum, Proj("c", "x"), "sx"},
                                                     {Monoid::kMax, Proj("c", "n"), "mn"}},
                                                    nullptr, "g");
                        ExprPtr row = Expr::Record({"s", "n", "sx", "mn"},
                                                   {Proj("g", "s"), Proj("g", "n"),
                                                    Proj("g", "sx"), Proj("g", "mn")});
                        return Operator::Reduce(
                            Operator::Select(nest, Expr::Bin(BinOp::kGt, Proj("g", "n"),
                                                             Expr::Int(3))),
                            {{Monoid::kBag, row, "rows"}});
                      }));
  // Strings and fields with empty or absent values stay out of the cache
  // block, so the cached routes read them raw through the OID column.
  ExpectLazyIdentical("cached csv hybrid",
                      Sql("SELECT id, s, x FROM raw_csv WHERE n > 0"));
  ExpectLazyIdentical("cached json hybrid",
                      Sql("SELECT id, s, y FROM raw_sparse WHERE k > 1"));
}

// ---------------------------------------------------------------------------
// and/or monoids in a generated Nest fold into GroupTable's bool slots: null
// inputs do not contribute, and a group whose inputs are all null keeps the
// identity (and: true, or: false) — as in the interpreter, on every route.
// ---------------------------------------------------------------------------

TEST(JitBoolNest, AndOrMonoidsCellIdentical) {
  // raw_sparse grouped by s: rows with s = "a\"b" (i % 3 == 0) have no x,
  // so that group's x-based outputs see only nulls; y is null on even rows.
  auto nest = [] {
    return Operator::Nest(
        Operator::Scan("raw_sparse", "r"), Proj("r", "s"), "s",
        {{Monoid::kCount, nullptr, "n"},
         {Monoid::kAnd, Expr::Bin(BinOp::kGt, Proj("r", "x"), Expr::Int(-6)), "and_x"},
         {Monoid::kOr, Expr::Bin(BinOp::kGt, Proj("r", "x"), Expr::Int(-6)), "or_x"},
         {Monoid::kAnd, Expr::Bin(BinOp::kLt, Proj("r", "y"), Expr::Int(0)), "and_y"},
         {Monoid::kOr, Expr::Bin(BinOp::kGt, Proj("r", "y"), Expr::Int(0)), "or_y"}},
        nullptr, "g");
  };
  auto record = [] {
    return Expr::Record({"s", "n", "and_x", "or_x", "and_y", "or_y"},
                        {Proj("g", "s"), Proj("g", "n"), Proj("g", "and_x"), Proj("g", "or_x"),
                         Proj("g", "and_y"), Proj("g", "or_y")});
  };
  const std::vector<std::pair<std::string, std::function<OpPtr()>>> plans = {
      {"root nest", [&] { return Operator::Reduce(nest(), {{Monoid::kBag, record(), "rows"}}); }},
      {"mid-chain nest",
       [&] {
         return Operator::Reduce(
             Operator::Select(nest(), Expr::Bin(BinOp::kGt, Proj("g", "n"), Expr::Int(0))),
             {{Monoid::kBag, record(), "rows"}});
       }},
  };
  const std::vector<RawRoute> routes = {
      {"jit threads=1", ExecMode::kJIT, 1},
      {"jit threads=4", ExecMode::kJIT, 4},
      {"jit shards=2", ExecMode::kJIT, 2, 2},
      {"tiered forced swap", ExecMode::kJIT, 2, 0, false, /*tiered=*/true},
  };
  for (const auto& [name, make_plan] : plans) {
    EngineRun run = [&](QueryEngine& engine, const CallOptions& call) {
      return engine.ExecutePlan(make_plan(), call);
    };
    RunInfo oracle = RunRawWith(run, {"interp", ExecMode::kInterp, 1});
    ASSERT_TRUE(oracle.status.ok()) << name << ": " << oracle.status.ToString();
    ASSERT_EQ(oracle.result.rows.size(), 3u) << name;
    for (const auto& row : oracle.result.rows) {
      if (row[0].s() != "a\"b") continue;
      EXPECT_TRUE(row[2].Equals(Value::Boolean(true))) << name << ": and over only nulls";
      EXPECT_TRUE(row[3].Equals(Value::Boolean(false))) << name << ": or over only nulls";
    }
    for (const RawRoute& route : routes) {
      const std::string what = name + " @ " + route.name;
      RunInfo jit = RunRawWith(run, route);
      ASSERT_TRUE(jit.status.ok()) << what << ": " << jit.status.ToString();
      EXPECT_TRUE(jit.telemetry.used_jit) << what << ": " << jit.telemetry.fallback_reason;
      EXPECT_TRUE(jit.telemetry.fallback_reason.empty()) << what << ": "
                                                         << jit.telemetry.fallback_reason;
      ExpectIdentical(oracle.result, jit.result, what);
    }
  }
}

// ---------------------------------------------------------------------------
// Equi joins on every key type: a string key probes the radix table by
// HashBytes of its bytes, a float on either side makes both sides probe by
// their double value (-0.0 folded), and the match loop's predicate rejects
// the collisions — so the answers are the interpreter's, cell for cell, with
// no fallback, on every route and in both table layouts.
// ---------------------------------------------------------------------------

/// keys_a_<fa> a JOIN keys_b_<fb> b ON a.<ka> = b.<kb> (left outer keeps the
/// unmatched build rows), yielding (a.id, b.id, a.sk) per pair.
struct KeyJoin {
  std::string fa, ka, fb, kb;
  bool outer = false;

  std::string Name() const {
    return "a." + ka + "@" + fa + " = b." + kb + "@" + fb + (outer ? " (outer)" : "");
  }
  OpPtr Plan() const {
    OpPtr join = Operator::Join(
        Operator::Scan("keys_a_" + fa, "a"), Operator::Scan("keys_b_" + fb, "b"),
        Expr::Bin(BinOp::kEq, Expr::Proj(Expr::Var("a"), ka), Expr::Proj(Expr::Var("b"), kb)),
        outer);
    ExprPtr row = Expr::Record({"a", "b", "s"}, {Proj("a", "id"), Proj("b", "id"),
                                                 Proj("a", "sk")});
    return Operator::Reduce(join, {{Monoid::kBag, row, "rows"}});
  }
};

/// Every key-type pairing across formats: string keys (escaped JSON, CSV,
/// binary), float keys, mixed int/float both ways, and ints beyond 2^53.
std::vector<KeyJoin> KeyJoins() {
  const std::vector<KeyJoin> inner = {
      {"json", "sk", "json", "sk"},     {"csv", "sk", "json", "sk"},
      {"bincol", "sk", "csv", "sk"},    {"json", "sk", "bincol", "sk"},
      {"bincol", "fk", "bincol", "fk"}, {"csv", "fk", "bincol", "fk"},
      {"json", "fk", "csv", "fk"},      {"bincol", "ik", "csv", "fk"},
      {"json", "fk", "bincol", "ik"},   {"bincol", "ik", "bincol", "ik"},
  };
  std::vector<KeyJoin> all;
  for (bool outer : {false, true}) {
    for (KeyJoin j : inner) {
      j.outer = outer;
      all.push_back(j);
    }
  }
  return all;
}

/// Each JIT route's answer equals the one-thread interpreter's, cell for
/// cell, and generated code served it.
void ExpectKeyJoinRoutes(const KeyJoin& j, const std::vector<RawRoute>& routes) {
  const EngineRun run = [&](QueryEngine& engine, const CallOptions& call) {
    return engine.ExecutePlan(j.Plan(), call);
  };
  RunInfo oracle = RunRawWith(run, {"interp", ExecMode::kInterp, 1});
  ASSERT_TRUE(oracle.status.ok()) << j.Name() << "\n" << oracle.status.ToString();
  ASSERT_FALSE(oracle.result.rows.empty()) << j.Name();
  for (const RawRoute& route : routes) {
    const std::string what = j.Name() + " @ " + route.name;
    RunInfo jit = RunRawWith(run, route);
    ASSERT_TRUE(jit.status.ok()) << what << "\n" << jit.status.ToString();
    EXPECT_TRUE(jit.telemetry.used_jit) << what << ": " << jit.telemetry.fallback_reason;
    EXPECT_TRUE(jit.telemetry.fallback_reason.empty()) << what << ": "
                                                       << jit.telemetry.fallback_reason;
    ExpectIdentical(oracle.result, jit.result, what);
  }
}

TEST(JitKeyJoins, EveryKeyTypeCellIdenticalInBothLayouts) {
  constexpr auto kShared = JoinStrategyOverride::kForceShared;
  constexpr auto kPartitioned = JoinStrategyOverride::kForcePartitioned;
  const std::vector<RawRoute> routes = {
      {"threads=1", ExecMode::kJIT, 1, 0, false, false, kShared},
      {"threads=2", ExecMode::kJIT, 2, 0, false, false, kShared},
      {"threads=4", ExecMode::kJIT, 4, 0, false, false, kShared},
      {"partitioned threads=1", ExecMode::kJIT, 1, 0, false, false, kPartitioned},
      {"partitioned threads=4", ExecMode::kJIT, 4, 0, false, false, kPartitioned},
  };
  for (const KeyJoin& j : KeyJoins()) ExpectKeyJoinRoutes(j, routes);
}

TEST(JitKeyJoins, EveryRouteCellIdentical) {
  std::vector<RawRoute> routes;
  for (JoinStrategyOverride strat :
       {JoinStrategyOverride::kForceShared, JoinStrategyOverride::kForcePartitioned}) {
    const std::string layout =
        strat == JoinStrategyOverride::kForceShared ? "shared " : "partitioned ";
    routes.push_back({layout + "shards=2", ExecMode::kJIT, 2, 2, false, false, strat});
    routes.push_back({layout + "cached", ExecMode::kJIT, 2, 0, true, false, strat});
    routes.push_back({layout + "tiered forced swap", ExecMode::kJIT, 2, 0, false, true, strat});
  }
  // Raw-text probe sides: several morsels, so the tiered swap lands.
  for (const KeyJoin& j : {KeyJoin{"csv", "sk", "json", "sk"},
                           KeyJoin{"json", "sk", "csv", "sk", /*outer=*/true},
                           KeyJoin{"bincol", "fk", "csv", "fk"},
                           KeyJoin{"bincol", "ik", "json", "fk"}}) {
    ExpectKeyJoinRoutes(j, routes);
  }
}

/// Inner-join match count by brute force over the stored binary columns
/// (null stored as 0 / 0.0 / ""), with Value::Equals as the key rule.
int64_t BruteForceMatches(size_t ka, size_t kb) {
  auto stored = [](const Value& v, size_t col) {
    if (!v.is_null()) return v;
    return col == 1 ? Value::Int(0) : col == 2 ? Value::Float(0.0) : Value::Str("");
  };
  const RowTable a = KeyTable(false);
  const RowTable b = KeyTable(true);
  int64_t n = 0;
  for (const auto& ra : a.rows()) {
    for (const auto& rb : b.rows()) n += stored(ra[ka], ka).Equals(stored(rb[kb], kb)) ? 1 : 0;
  }
  return n;
}

TEST(JitKeyJoins, MatchesFollowValueEquals) {
  // -0.0 meets 0.0 and Int(0), 2 meets 2.0, inf meets inf, NaN meets
  // nothing, and 2^53 + 1 meets the float 2^53 it rounds to: the answer is
  // the brute-force count, in both engines.
  struct Case {
    const char* ka;
    size_t ca;
    const char* kb;
    size_t cb;
  };
  for (const Case& c : {Case{"fk", 2, "fk", 2}, Case{"ik", 1, "fk", 2}, Case{"fk", 2, "ik", 1},
                        Case{"sk", 3, "sk", 3}, Case{"ik", 1, "ik", 1}}) {
    const std::string q = std::string("SELECT count(*) FROM keys_a_bincol a JOIN keys_b_bincol b "
                                      "ON a.") + c.ka + " = b." + c.kb;
    const int64_t want = BruteForceMatches(c.ca, c.cb);
    EXPECT_GT(want, 0) << q;
    for (const RawRoute& route : {RawRoute{"interp", ExecMode::kInterp, 2},
                                  RawRoute{"jit", ExecMode::kJIT, 2}}) {
      RunInfo run = RunRaw(q, route);
      ASSERT_TRUE(run.status.ok()) << q << "\n" << run.status.ToString();
      EXPECT_EQ(run.result.scalar().i(), want) << q << " (" << route.name << ")";
      EXPECT_EQ(run.telemetry.used_jit, route.mode == ExecMode::kJIT)
          << q << ": " << run.telemetry.fallback_reason;
    }
  }
}

}  // namespace
}  // namespace proteus
