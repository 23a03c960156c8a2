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

#include <atomic>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>

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
  auto r = engine.Execute(q);
  EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
  if (used_jit != nullptr) *used_jit = engine.telemetry().used_jit;
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
  auto r = engine.Execute(q);
  RunInfo info;
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  info.telemetry = engine.telemetry();
  return info;
}

RunInfo RunPlanConfig(const std::function<OpPtr()>& make_plan, ExecMode mode, int threads) {
  EngineOptions opts;
  opts.mode = mode;
  opts.num_threads = threads;
  opts.morsel_rows = kDiffMorselRows;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  auto r = engine.ExecutePlan(make_plan());
  RunInfo info;
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  info.telemetry = engine.telemetry();
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
  auto second = cached.Execute(q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(cached.telemetry().used_cache);

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
  auto r = engine.ExecutePlan(make_plan());
  RunInfo info;
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  info.telemetry = engine.telemetry();
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
  auto cold = engine.ExecutePlan(make_plan());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(engine.telemetry().used_jit) << engine.telemetry().fallback_reason;
  EXPECT_FALSE(engine.telemetry().jit_cache_hit);
  auto warm = engine.ExecutePlan(make_plan());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(engine.telemetry().used_jit);
  EXPECT_TRUE(engine.telemetry().jit_cache_hit);
  EXPECT_EQ(engine.telemetry().compile_ms, 0.0);
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
  auto r = engine.ExecutePlan(std::move(plan));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(engine.telemetry().shards_used, 0);
  EXPECT_TRUE(engine.telemetry().used_jit) << engine.telemetry().fallback_reason;
  EXPECT_TRUE(engine.telemetry().jit_parallel);
}

// ---------------------------------------------------------------------------
// Mid-chain Nest as a pipeline breaker: the Nest's input region folds first
// — one morsel, in row order, into a packed group table in generated code
// and a boxed GroupTable in the interpreter — and the region above is driven
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
    auto r = engine.ExecutePlan(make_plan());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(engine.telemetry().shards_used, 0);
    EXPECT_EQ(engine.telemetry().morsels_interpreted, 0u);
    EXPECT_TRUE(engine.telemetry().used_jit) << engine.telemetry().fallback_reason;
    EXPECT_GT(engine.telemetry().morsels, 0u);
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

TEST(JitFallbackTelemetry, FailedCompileAttemptIsRecorded) {
  // A string-keyed equi join has no generated fast path (the packed radix
  // table holds int64 keys only): codegen aborts and the morsel-parallel
  // interpreter serves the plan.
  auto make_plan = [] {
    OpPtr scan_o = Operator::Scan("orders_json", "o");
    OpPtr scan_l = Operator::Scan("lineitem_json", "l");
    ExprPtr pred =
        Expr::Bin(BinOp::kEq, Proj("o", "o_comment"), Proj("l", "l_comment"));
    OpPtr join = Operator::Join(scan_o, scan_l, pred, /*outer=*/false);
    return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"}});
  };
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
  ExpectIdentical(interp.result, jit.result, "string-key fallback");
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
  auto r = engine->Execute(q);
  RunInfo info;
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  info.telemetry = engine->telemetry();
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
    EXPECT_EQ(tiered.telemetry.compile_tier, 1) << "k=" << k;
    EXPECT_TRUE(tiered.telemetry.used_jit);
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
        EXPECT_GT(tiered.telemetry.compile_tier, 0) << q << " shards=" << shards;
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
  EXPECT_EQ(cold.telemetry.compile_tier, 0);
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
  EXPECT_EQ(warm.telemetry.compile_tier, 1);
  EXPECT_TRUE(warm.telemetry.used_jit);
}

TEST(TieredSwap, FailedCompileInterpreterCompletesSilently) {
  // The string-keyed equi join is chunk-decomposable (the tiered controller
  // accepts it) but has no generated fast path: the background compile
  // fails, and the interpreter must simply finish the query — the recorded
  // compile_ms being the only trace of the attempt.
  auto make_plan = [] {
    OpPtr scan_o = Operator::Scan("orders_json", "o");
    OpPtr scan_l = Operator::Scan("lineitem_json", "l");
    ExprPtr pred =
        Expr::Bin(BinOp::kEq, Proj("o", "o_comment"), Proj("l", "l_comment"));
    OpPtr join = Operator::Join(scan_o, scan_l, pred, /*outer=*/false);
    return Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"}});
  };
  RunInfo oracle = RunPlanConfig(make_plan, ExecMode::kInterp, 2);
  ASSERT_TRUE(oracle.status.ok());

  jit::TieredOptions topts;
  // Force the controller to consume the (failed) ticket after one morsel so
  // the failure is observed mid-query, not raced past.
  topts.force_swap_after_morsels = 1;
  auto engine = MakeTieredEngine(topts, /*threads=*/2);
  auto r = engine->ExecutePlan(make_plan());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectIdentical(oracle.result, *r, "tiered, failed compile");
  const QueryTelemetry& t = engine->telemetry();
  EXPECT_EQ(t.morsels_jit, 0u);
  EXPECT_GT(t.morsels_interpreted, 0u);
  EXPECT_EQ(t.compile_tier, 0);
  EXPECT_FALSE(t.used_jit);
  EXPECT_GT(t.compile_ms, 0.0)
      << "the failed background compile cost real time that must be attributed";
  EXPECT_NE(t.fallback_reason.find("compile failed"), std::string::npos)
      << t.fallback_reason;
}

TEST(TieredSwap, HotSignatureEarnsTierTwo) {
  const std::string q =
      "SELECT count(*), max(l_quantity), sum(l_tax) FROM lineitem_bincol WHERE l_orderkey < 30";
  jit::TieredOptions topts;
  topts.tier2_hit_threshold = 2;
  auto engine = MakeTieredEngine(topts, /*threads=*/2);
  ASSERT_NE(engine->tiered_compiler(), nullptr);

  // Cold run compiles tier 1 in the background and publishes it.
  RunInfo cold = RunOn(engine.get(), q);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  engine->tiered_compiler()->Drain();

  // Warm runs accumulate cache hits; crossing the threshold enqueues the
  // aggressive recompile behind the same key.
  RunInfo warm1 = RunOn(engine.get(), q);
  ASSERT_TRUE(warm1.status.ok());
  EXPECT_TRUE(warm1.telemetry.jit_cache_hit);
  EXPECT_EQ(warm1.telemetry.compile_tier, 1);
  RunInfo warm2 = RunOn(engine.get(), q);
  ASSERT_TRUE(warm2.status.ok());
  EXPECT_EQ(warm2.telemetry.compile_tier, 1);
  engine->tiered_compiler()->Drain();

  ASSERT_NE(engine->jit_cache(), nullptr);
  EXPECT_GE(engine->jit_cache()->stats().promotions, 1u)
      << "crossing tier2_hit_threshold must promote the signature";
  RunInfo promoted = RunOn(engine.get(), q);
  ASSERT_TRUE(promoted.status.ok());
  EXPECT_TRUE(promoted.telemetry.jit_cache_hit);
  EXPECT_EQ(promoted.telemetry.compile_tier, 2)
      << "the promoted module must serve behind the same cache key";
  EXPECT_TRUE(promoted.telemetry.used_jit);
  EXPECT_EQ(promoted.telemetry.morsels_interpreted, 0u);
  ExpectIdentical(cold.result, promoted.result, "tier-1 vs tier-2 module");
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
  auto r = engine.Execute(q);
  RunInfo info;
  info.status = r.status();
  if (r.ok()) info.result = std::move(*r);
  info.telemetry = engine.telemetry();
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
  // Two independent blockers in one plan: a string-keyed equi join and a
  // collection-monoid Nest. The fallback reason must list both,
  // semicolon-joined — previously only the first traversal hit surfaced.
  auto make_plan = [] {
    OpPtr scan_o = Operator::Scan("orders_json", "o");
    OpPtr scan_l = Operator::Scan("lineitem_json", "l");
    ExprPtr pred =
        Expr::Bin(BinOp::kEq, Proj("o", "o_comment"), Proj("l", "l_comment"));
    OpPtr join = Operator::Join(scan_o, scan_l, pred, /*outer=*/false);
    OpPtr nest = Operator::Nest(join, Proj("l", "l_linenumber"), "ln",
                                {{Monoid::kBag, Proj("l", "l_quantity"), "qs"}},
                                nullptr, "g");
    return Operator::Reduce(nest, {{Monoid::kCount, nullptr, "n"}});
  };
  RunInfo jit = RunPlanConfig(make_plan, ExecMode::kJIT, 2);
  ASSERT_TRUE(jit.status.ok()) << jit.status.ToString();
  EXPECT_FALSE(jit.telemetry.used_jit);
  EXPECT_NE(jit.telemetry.fallback_reason.find("non-integer join key"), std::string::npos)
      << jit.telemetry.fallback_reason;
  EXPECT_NE(jit.telemetry.fallback_reason.find("collection/boolean monoid"),
            std::string::npos)
      << jit.telemetry.fallback_reason;
  EXPECT_NE(jit.telemetry.fallback_reason.find("; "), std::string::npos)
      << "reasons must be semicolon-joined: " << jit.telemetry.fallback_reason;
}

}  // namespace
}  // namespace proteus
