// Edge-case tests: optimizer corner cases, lexer robustness, calculus
// printing, and telemetry/fallback behaviour.
#include <gtest/gtest.h>

#include "src/parser/lexer.h"
#include "src/parser/parser.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

TEST(Lexer, TokenKinds) {
  auto toks = Lex("for { x <- ds, x.a <= 3.5e2, y <> 'str' } yield count");
  ASSERT_TRUE(toks.ok()) << toks.status().ToString();
  // spot checks
  EXPECT_TRUE((*toks)[0].Is("for"));
  EXPECT_TRUE((*toks)[0].Is("FOR"));  // case-insensitive keyword match
  bool has_arrow = false, has_le = false, has_ne = false, has_float = false;
  for (const auto& t : *toks) {
    has_arrow |= t.kind == TokKind::kArrow;
    has_le |= t.kind == TokKind::kLe;
    has_ne |= t.kind == TokKind::kNe;
    has_float |= t.kind == TokKind::kFloat && t.float_val == 350.0;
  }
  EXPECT_TRUE(has_arrow);
  EXPECT_TRUE(has_le);
  EXPECT_TRUE(has_ne);
  EXPECT_TRUE(has_float);
}

TEST(Lexer, Errors) {
  EXPECT_FALSE(Lex("select 'unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("a # b").ok());
}

TEST(Lexer, NegativeAndScientificNumbers) {
  auto toks = Lex("-5 1e-3 2.5E+4");
  ASSERT_TRUE(toks.ok());
  // "-5" lexes as minus then int (unary minus handled by the parser).
  EXPECT_EQ((*toks)[0].kind, TokKind::kMinus);
  EXPECT_EQ((*toks)[1].int_val, 5);
  EXPECT_DOUBLE_EQ((*toks)[2].float_val, 1e-3);
  EXPECT_DOUBLE_EQ((*toks)[3].float_val, 2.5e4);
}

class EdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<QueryEngine>();
    testutil::RegisterAll(engine_.get());
  }
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(EdgeTest, ConstantFalsePredicateShortCircuits) {
  auto r = engine_->Execute("SELECT count(*) FROM lineitem_bincol WHERE 1 > 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->scalar().i(), 0);
}

TEST_F(EdgeTest, ConstantTruePredicateDropsSelect) {
  QueryTelemetry tel;
  auto r = engine_->Execute(
      "for { l <- lineitem_bincol, 1 < 2 } yield count", {.telemetry = &tel});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scalar().i(),
            static_cast<int64_t>(testutil::Corpus::Get().lineitem.num_rows()));
  // The folded-away predicate leaves a plan with no Select at all.
  EXPECT_EQ(tel.plan.find("Select"), std::string::npos) << tel.plan;
}

TEST_F(EdgeTest, CrossProductWithoutKeysCompilesToNestedLoop) {
  // No equi predicate: the JIT generates a nested loop over the frozen
  // build rows — no interpreter fallback anymore.
  QueryTelemetry tel;
  auto r = engine_->Execute(
      "SELECT count(*) FROM orders_bincol o JOIN orders_json oj ON "
      "o.o_totalprice > oj.o_totalprice WHERE o.o_orderkey < 4 and oj.o_orderkey < 4",
      {.telemetry = &tel});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(tel.used_jit);
  EXPECT_TRUE(tel.fallback_reason.empty()) << tel.fallback_reason;
  // Oracle.
  const auto& orders = testutil::Corpus::Get().orders;
  int64_t expected = 0;
  for (const auto& a : orders.rows()) {
    for (const auto& b : orders.rows()) {
      if (a[0].i() < 4 && b[0].i() < 4 && a[2].f() > b[2].f()) ++expected;
    }
  }
  EXPECT_EQ(r->scalar().i(), expected);
}

TEST_F(EdgeTest, SelfJoinDistinctBindings) {
  auto r = engine_->Execute(
      "SELECT count(*) FROM orders_bincol a JOIN orders_json b ON "
      "a.o_orderkey = b.o_orderkey WHERE a.o_orderkey < 10");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->scalar().i(), 10);
}

TEST_F(EdgeTest, DuplicateBindingRejected) {
  auto r = engine_->Execute(
      "for { x <- lineitem_bincol, x <- orders_bincol } yield count");
  EXPECT_FALSE(r.ok());
}

TEST_F(EdgeTest, GroupByWithPredicateOnAllGroupsGone) {
  auto r = engine_->Execute(
      "SELECT l_linenumber, count(*) FROM lineitem_bincol WHERE l_orderkey < 0 "
      "GROUP BY l_linenumber");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
}

TEST_F(EdgeTest, ExpressionInGroupAggregates) {
  const auto& li = testutil::Corpus::Get().lineitem;
  std::map<int64_t, double> expected;
  for (const auto& row : li.rows()) {
    expected[row[1].i()] += row[3].f() * (1.0 - row[4].f());
  }
  auto r = engine_->Execute(
      "SELECT l_linenumber, sum(l_extendedprice * (1.0 - l_discount)) "
      "FROM lineitem_bincol GROUP BY l_linenumber");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), expected.size());
  for (const auto& row : r->rows) {
    EXPECT_NEAR(row[1].AsFloat(), expected.at(row[0].i()), 1e-6);
  }
}

TEST_F(EdgeTest, ComprehensionToStringRoundTripsThroughParser) {
  auto c1 = ParseComprehension(
      "for { s <- spam, k <- s.classes, k.label > 3 } yield sum k.label");
  ASSERT_TRUE(c1.ok());
  std::string printed = c1->ToString();
  auto c2 = ParseComprehension(printed);
  ASSERT_TRUE(c2.ok()) << printed;
  EXPECT_EQ(c2->ToString(), printed);
}

TEST_F(EdgeTest, TelemetryPlanPrintsStableShape) {
  QueryTelemetry tel;
  auto r = engine_->Execute("SELECT count(*) FROM lineitem_csv WHERE l_orderkey < 5",
                            {.telemetry = &tel});
  ASSERT_TRUE(r.ok());
  const std::string& plan = tel.plan;
  EXPECT_NE(plan.find("Reduce"), std::string::npos);
  EXPECT_NE(plan.find("Scan lineitem_csv"), std::string::npos);
  EXPECT_NE(plan.find("fields=[l_orderkey]"), std::string::npos);
}

TEST_F(EdgeTest, RegisterErrors) {
  QueryEngine e;
  // Empty name.
  EXPECT_FALSE(e.RegisterDataset({.name = "", .format = DataFormat::kCSV,
                                  .path = "/x", .type = datagen::OrdersSchema()})
                   .ok());
  // Non-collection type.
  DatasetInfo bad{.name = "b", .format = DataFormat::kCSV, .path = "/x",
                  .type = Type::Int64()};
  EXPECT_FALSE(e.RegisterDataset(bad).ok());
  // Duplicate.
  ASSERT_TRUE(e.RegisterDataset({.name = "d", .format = DataFormat::kCSV, .path = "/x",
                                 .type = datagen::OrdersSchema()})
                  .ok());
  EXPECT_FALSE(e.RegisterDataset({.name = "d", .format = DataFormat::kCSV, .path = "/x",
                                  .type = datagen::OrdersSchema()})
                   .ok());
}

TEST_F(EdgeTest, MissingFileSurfacesIOError) {
  QueryEngine e;
  ASSERT_TRUE(e.RegisterDataset({.name = "ghost", .format = DataFormat::kCSV,
                                 .path = "/nonexistent/ghost.csv",
                                 .type = datagen::OrdersSchema()})
                  .ok());
  auto r = e.Execute("SELECT count(*) FROM ghost");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace proteus
