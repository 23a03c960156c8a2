// End-to-end tests: full pipeline (parse -> calculus -> algebra -> optimize
// -> execute) against brute-force oracles computed from the generator's
// in-memory tables. Both execution modes are covered here; the dedicated
// JIT-vs-interpreter property sweep lives in test_jit_equiv.cpp.
#include <gtest/gtest.h>

#include "tests/engine_test_util.h"

namespace proteus {
namespace {

using testutil::Corpus;

class EngineTest : public ::testing::TestWithParam<ExecMode> {
 protected:
  void SetUp() override {
    EngineOptions opts;
    opts.mode = GetParam();
    engine_ = std::make_unique<QueryEngine>(opts);
    testutil::RegisterAll(engine_.get());
  }

  /// `tel` and `ir`, when given, receive the query's telemetry and IR.
  QueryResult MustRun(const std::string& q, QueryTelemetry* tel = nullptr,
                      std::string* ir = nullptr) {
    auto r = engine_->Execute(q, {.telemetry = tel, .ir = ir});
    EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<QueryEngine> engine_;
};

TEST_P(EngineTest, CountWithPredicate) {
  const Corpus& c = Corpus::Get();
  int64_t expected = 0;
  for (const auto& row : c.lineitem.rows()) {
    if (row[0].i() < 20) ++expected;
  }
  for (const char* ds : {"lineitem_bincol", "lineitem_binrow", "lineitem_csv",
                         "lineitem_json", "lineitem_json_shuffled"}) {
    auto r = MustRun(std::string("SELECT count(*) FROM ") + ds + " WHERE l_orderkey < 20");
    EXPECT_EQ(r.scalar().i(), expected) << ds;
  }
}

TEST_P(EngineTest, MultiAggregate) {
  const Corpus& c = Corpus::Get();
  int64_t cnt = 0;
  double maxq = -1, sumt = 0;
  for (const auto& row : c.lineitem.rows()) {
    if (row[0].i() < 30) {
      ++cnt;
      maxq = std::max(maxq, row[2].f());
      sumt += row[5].f();
    }
  }
  auto r = MustRun(
      "SELECT count(*), max(l_quantity), sum(l_tax) FROM lineitem_json "
      "WHERE l_orderkey < 30");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i(), cnt);
  EXPECT_NEAR(r.rows[0][1].AsFloat(), maxq, 1e-9);
  EXPECT_NEAR(r.rows[0][2].AsFloat(), sumt, 1e-6);
}

TEST_P(EngineTest, MinAggregateAndArithmeticExpr) {
  const Corpus& c = Corpus::Get();
  double expected = 1e300;
  for (const auto& row : c.lineitem.rows()) {
    expected = std::min(expected, row[3].f() * (1.0 - row[4].f()));
  }
  auto r = MustRun(
      "SELECT min(l_extendedprice * (1.0 - l_discount)) FROM lineitem_bincol");
  EXPECT_NEAR(r.scalar().AsFloat(), expected, 1e-6);
}

TEST_P(EngineTest, JoinCountMatchesOracle) {
  const Corpus& c = Corpus::Get();
  // PK-FK join: count lineitems whose order exists (all) with a filter.
  int64_t expected = 0;
  for (const auto& row : c.lineitem.rows()) {
    if (row[0].i() < 25) ++expected;  // every key matches exactly one order
  }
  auto r = MustRun(
      "SELECT count(*) FROM orders_bincol o JOIN lineitem_bincol l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 25");
  EXPECT_EQ(r.scalar().i(), expected);
}

TEST_P(EngineTest, JoinAggregateOverPayload) {
  const Corpus& c = Corpus::Get();
  std::unordered_map<int64_t, double> totalprice;
  for (const auto& row : c.orders.rows()) totalprice[row[0].i()] = row[2].f();
  double expected = 0;
  int64_t cnt = 0;
  for (const auto& row : c.lineitem.rows()) {
    if (row[0].i() < 40) {
      expected = std::max(expected, totalprice[row[0].i()]);
      ++cnt;
    }
  }
  auto r = MustRun(
      "SELECT count(*), max(o.o_totalprice) FROM orders_json o JOIN lineitem_json l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 40");
  EXPECT_EQ(r.rows[0][0].i(), cnt);
  EXPECT_NEAR(r.rows[0][1].AsFloat(), expected, 1e-9);
}

TEST_P(EngineTest, UnnestOverDenormalizedJson) {
  const Corpus& c = Corpus::Get();
  int64_t expected = 0;
  for (const auto& row : c.denorm.rows()) {
    for (const auto& l : row[3].list()) {
      if (l.GetField("l_quantity")->f() > 25.0) ++expected;
    }
  }
  auto r = MustRun(
      "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l "
      "WHERE l.l_quantity > 25.0");
  EXPECT_EQ(r.scalar().i(), expected);
}

TEST_P(EngineTest, GroupByMatchesOracle) {
  const Corpus& c = Corpus::Get();
  std::map<int64_t, std::pair<int64_t, double>> expected;  // line# -> (count, sum price)
  for (const auto& row : c.lineitem.rows()) {
    if (row[0].i() >= 30) continue;
    auto& e = expected[row[1].i()];
    e.first++;
    e.second += row[3].f();
  }
  auto r = MustRun(
      "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_bincol "
      "WHERE l_orderkey < 30 GROUP BY l_linenumber");
  ASSERT_EQ(r.rows.size(), expected.size());
  for (const auto& row : r.rows) {
    auto it = expected.find(row[0].i());
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(row[1].i(), it->second.first);
    EXPECT_NEAR(row[2].AsFloat(), it->second.second, 1e-6);
  }
}

TEST_P(EngineTest, ProjectionQueryReturnsRows) {
  const Corpus& c = Corpus::Get();
  size_t expected = 0;
  for (const auto& row : c.orders.rows()) {
    if (row[0].i() < 10) ++expected;
  }
  auto r = MustRun(
      "SELECT o_orderkey, o_totalprice FROM orders_csv WHERE o_orderkey < 10");
  EXPECT_EQ(r.rows.size(), expected);
  ASSERT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.columns[0], "o_orderkey");
}

TEST_P(EngineTest, ComprehensionWithNestedPathAndRecordYield) {
  const Corpus& c = Corpus::Get();
  int64_t expected = 0;
  for (const auto& row : c.spam.rows()) {
    if (row[6].GetField("country")->s() == "US") ++expected;
  }
  auto r = MustRun(
      "for { s <- spam, s.origin.country = 'US' } "
      "yield bag <id: s.mail_id, c: s.origin.country>");
  EXPECT_EQ(static_cast<int64_t>(r.rows.size()), expected);
}

TEST_P(EngineTest, ComprehensionUnnestWithElementPredicate) {
  const Corpus& c = Corpus::Get();
  int64_t expected = 0;
  for (const auto& row : c.spam.rows()) {
    for (const auto& cls : row[7].list()) {
      if (cls.GetField("label")->i() > 20) ++expected;
    }
  }
  auto r = MustRun(
      "for { s <- spam, k <- s.classes, k.label > 20 } yield count");
  EXPECT_EQ(r.scalar().i(), expected);
}

TEST_P(EngineTest, StringPredicates) {
  const Corpus& c = Corpus::Get();
  int64_t expected = 0;
  for (const auto& row : c.lineitem.rows()) {
    if (row[6].s() == "AIR") ++expected;
  }
  auto r = MustRun("SELECT count(*) FROM lineitem_csv WHERE l_shipmode = 'AIR'");
  EXPECT_EQ(r.scalar().i(), expected);
  auto r2 = MustRun("SELECT count(*) FROM lineitem_json WHERE l_shipmode = 'AIR'");
  EXPECT_EQ(r2.scalar().i(), expected);
}

TEST_P(EngineTest, GroupByStringKey) {
  const Corpus& c = Corpus::Get();
  std::map<std::string, int64_t> expected;
  for (const auto& row : c.lineitem.rows()) expected[row[6].s()]++;
  auto r = MustRun("SELECT l_shipmode, count(*) FROM lineitem_bincol GROUP BY l_shipmode");
  ASSERT_EQ(r.rows.size(), expected.size());
  for (const auto& row : r.rows) {
    EXPECT_EQ(row[1].i(), expected.at(row[0].s()));
  }
}

TEST_P(EngineTest, ThreeWayJoin) {
  // lineitem x orders (bincol) x orders_json: keys all line up on orderkey.
  const Corpus& c = Corpus::Get();
  int64_t expected = 0;
  for (const auto& row : c.lineitem.rows()) {
    if (row[0].i() < 15) ++expected;
  }
  auto r = MustRun(
      "SELECT count(*) FROM lineitem_bincol l "
      "JOIN orders_bincol o ON l.l_orderkey = o.o_orderkey "
      "JOIN orders_json oj ON o.o_orderkey = oj.o_orderkey "
      "WHERE l.l_orderkey < 15");
  EXPECT_EQ(r.scalar().i(), expected);
}

TEST_P(EngineTest, EmptyResultSelections) {
  auto r = MustRun("SELECT count(*) FROM lineitem_bincol WHERE l_orderkey < 0");
  EXPECT_EQ(r.scalar().i(), 0);
  auto r2 = MustRun("SELECT max(l_quantity) FROM lineitem_bincol WHERE l_orderkey < 0");
  // Max over empty input: null (interp) or the monoid zero (jit); both rows exist.
  ASSERT_EQ(r2.rows.size(), 1u);
}

TEST_P(EngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(engine_->Execute("SELECT count(*) FROM nope").ok());
  EXPECT_FALSE(engine_->Execute("SELECT bogus FROM lineitem_bincol").ok());
  EXPECT_FALSE(engine_->Execute("garbage query").ok());
}

TEST_P(EngineTest, TelemetryReportsEngineChoice) {
  QueryTelemetry t;
  std::string ir;
  MustRun("SELECT count(*) FROM lineitem_bincol WHERE l_orderkey < 20", &t, &ir);
  if (GetParam() == ExecMode::kJIT) {
    EXPECT_TRUE(t.used_jit) << t.fallback_reason;
    EXPECT_GT(t.compile_ms, 0.0);
    EXPECT_FALSE(ir.empty());
  } else {
    EXPECT_FALSE(t.used_jit);
  }
  EXPECT_FALSE(t.plan.empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineTest,
                         ::testing::Values(ExecMode::kJIT, ExecMode::kInterp),
                         [](const auto& info) {
                           return info.param == ExecMode::kJIT ? "JIT" : "Interp";
                         });

}  // namespace
}  // namespace proteus
