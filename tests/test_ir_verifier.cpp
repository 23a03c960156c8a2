// Generated-code contract verifier (src/jit/ir_verifier.h), both directions:
//
//   - Negative: hand-built llvm::Modules seeded with exactly one violation
//     per contract rule — a mutable global, a call outside the proteus_*
//     runtime whitelist, an out-of-bounds constant param-table index, an
//     entry-point signature deviation, a stray external definition — must be
//     rejected with an Internal status naming the offending symbol.
//   - Positive: every module the engine actually generates across the
//     test_jit_equiv plan corpus (selectivity x format x shape sweep, joins,
//     unnest, strings, morsel-parallel and sharded fan-outs) must verify
//     clean with EngineOptions::verify_ir on, and telemetry must report
//     ir_verified for every JIT-served query.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>

#include "src/jit/ir_verifier.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

using jit::VerifyGeneratedModule;

// ---------------------------------------------------------------------------
// Negative: hand-built modules, one seeded violation per contract rule
// ---------------------------------------------------------------------------

/// Owns the LLVMContext + Module a test builds its seeded IR into.
struct TestModule {
  llvm::LLVMContext ctx;
  std::unique_ptr<llvm::Module> mod = std::make_unique<llvm::Module>("t", ctx);

  llvm::Type* i8p() { return llvm::Type::getInt8PtrTy(ctx); }
  llvm::Type* i64() { return llvm::Type::getInt64Ty(ctx); }
  llvm::Type* vd() { return llvm::Type::getVoidTy(ctx); }

  /// Defines `name` with the contract signature for that entry point and an
  /// empty body (ret void), returning the builder parked before the ret.
  llvm::Function* AddEntry(const std::string& name,
                           llvm::IRBuilder<>* out_builder = nullptr) {
    std::vector<llvm::Type*> args;
    if (name == "proteus_pipeline") {
      args = {i8p(), i8p(), i8p(), i64(), i64()};
    } else if (name.rfind("proteus_drain", 0) == 0) {
      args = {i8p(), i8p(), i8p(), i8p()};
    } else {
      args = {i8p(), i8p()};  // proteus_build
    }
    auto* fty = llvm::FunctionType::get(vd(), args, false);
    auto* fn =
        llvm::Function::Create(fty, llvm::Function::ExternalLinkage, name, mod.get());
    llvm::IRBuilder<> b(llvm::BasicBlock::Create(ctx, "entry", fn));
    auto* ret = b.CreateRetVoid();
    if (out_builder != nullptr) {
      out_builder->SetInsertPoint(ret);
    }
    return fn;
  }
};

TEST(IrVerifierNegative, CleanModulePasses) {
  TestModule t;
  t.AddEntry("proteus_build");
  t.AddEntry("proteus_pipeline");
  t.AddEntry("proteus_drain0");
  EXPECT_TRUE(VerifyGeneratedModule(*t.mod, 0).ok());
}

TEST(IrVerifierNegative, MutableGlobalRejected) {
  TestModule t;
  t.AddEntry("proteus_build");
  new llvm::GlobalVariable(*t.mod, t.i64(), /*isConstant=*/false,
                           llvm::GlobalValue::InternalLinkage,
                           llvm::ConstantInt::get(t.i64(), 0), "sneaky_state");
  const Status s = VerifyGeneratedModule(*t.mod, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("mutable global variable: sneaky_state"),
            std::string::npos)
      << s.message();
}

TEST(IrVerifierNegative, ConstantGlobalAllowed) {
  TestModule t;
  t.AddEntry("proteus_build");
  new llvm::GlobalVariable(*t.mod, t.i64(), /*isConstant=*/true,
                           llvm::GlobalValue::PrivateLinkage,
                           llvm::ConstantInt::get(t.i64(), 42), "str_lit");
  EXPECT_TRUE(VerifyGeneratedModule(*t.mod, 0).ok());
}

TEST(IrVerifierNegative, NonWhitelistedExternRejected) {
  TestModule t;
  llvm::IRBuilder<> b(t.ctx);
  t.AddEntry("proteus_build", &b);
  auto evil = t.mod->getOrInsertFunction(
      "system_call_home", llvm::FunctionType::get(t.vd(), {}, false));
  b.CreateCall(evil);
  const Status s = VerifyGeneratedModule(*t.mod, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(
      s.message().find("non-whitelisted external symbol: system_call_home"),
      std::string::npos)
      << s.message();
}

TEST(IrVerifierNegative, WhitelistedRuntimeCallAllowed) {
  TestModule t;
  llvm::IRBuilder<> b(t.ctx);
  llvm::Function* fn = t.AddEntry("proteus_build", &b);
  auto rt = t.mod->getOrInsertFunction(
      "proteus_sink_emit_end", llvm::FunctionType::get(t.vd(), {t.i8p()}, false));
  b.CreateCall(rt, {fn->getArg(0)});
  EXPECT_TRUE(VerifyGeneratedModule(*t.mod, 0).ok());
}

TEST(IrVerifierNegative, ParamIndexOutOfBoundsRejected) {
  TestModule t;
  llvm::IRBuilder<> b(t.ctx);
  llvm::Function* fn = t.AddEntry("proteus_build", &b);
  // ParamI64's exact shape: bitcast the params argument (arg 1 for
  // proteus_build) to i64*, constant GEP, load.
  auto* params = b.CreateBitCast(fn->getArg(1), t.i64()->getPointerTo());
  auto* addr = b.CreateConstInBoundsGEP1_64(t.i64(), params, 7);
  b.CreateLoad(t.i64(), addr);
  const Status s = VerifyGeneratedModule(*t.mod, /*param_table_slots=*/4);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(
                "proteus_build: param-table index 7 out of bounds (table has "
                "4 slot(s))"),
            std::string::npos)
      << s.message();
  // The same module is fine against a table that actually has the slot.
  EXPECT_TRUE(VerifyGeneratedModule(*t.mod, 8).ok());
}

TEST(IrVerifierNegative, PipelineSignatureDeviationRejected) {
  TestModule t;
  // proteus_pipeline defined with the build signature (two pointers instead
  // of three pointers + two i64 range bounds).
  auto* fty = llvm::FunctionType::get(t.vd(), {t.i8p(), t.i8p()}, false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage,
                                    "proteus_pipeline", t.mod.get());
  llvm::IRBuilder<> b(llvm::BasicBlock::Create(t.ctx, "entry", fn));
  b.CreateRetVoid();
  const Status s = VerifyGeneratedModule(*t.mod, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(
                "entry point proteus_pipeline deviates from its contract "
                "signature"),
            std::string::npos)
      << s.message();
}

TEST(IrVerifierNegative, DrainSignatureDeviationRejected) {
  TestModule t;
  auto* fty =
      llvm::FunctionType::get(t.i64(), {t.i8p(), t.i8p(), t.i8p(), t.i8p()}, false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage,
                                    "proteus_drain0", t.mod.get());
  llvm::IRBuilder<> b(llvm::BasicBlock::Create(t.ctx, "entry", fn));
  b.CreateRet(llvm::ConstantInt::get(t.i64(), 0));
  const Status s = VerifyGeneratedModule(*t.mod, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("entry point proteus_drain0 deviates"),
            std::string::npos)
      << s.message();
}

TEST(IrVerifierNegative, StrayExternalDefinitionRejected) {
  TestModule t;
  t.AddEntry("proteus_build");
  auto* fty = llvm::FunctionType::get(t.vd(), {}, false);
  auto* fn = llvm::Function::Create(fty, llvm::Function::ExternalLinkage,
                                    "not_an_entry_point", t.mod.get());
  llvm::IRBuilder<> b(llvm::BasicBlock::Create(t.ctx, "entry", fn));
  b.CreateRetVoid();
  const Status s = VerifyGeneratedModule(*t.mod, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(
      s.message().find("unexpected externally-visible definition: not_an_entry_point"),
      std::string::npos)
      << s.message();
}

TEST(IrVerifierNegative, EveryViolationReported) {
  // Multiple seeded violations must all surface, semicolon-joined.
  TestModule t;
  llvm::IRBuilder<> b(t.ctx);
  t.AddEntry("proteus_build", &b);
  new llvm::GlobalVariable(*t.mod, t.i64(), false, llvm::GlobalValue::InternalLinkage,
                           llvm::ConstantInt::get(t.i64(), 0), "g1");
  auto evil = t.mod->getOrInsertFunction(
      "rogue_fn", llvm::FunctionType::get(t.vd(), {}, false));
  b.CreateCall(evil);
  const Status s = VerifyGeneratedModule(*t.mod, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("g1"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("rogue_fn"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("; "), std::string::npos) << s.message();
}

// ---------------------------------------------------------------------------
// Positive: every module the engine generates for the jit-equiv corpus
// ---------------------------------------------------------------------------

struct VerifyCase {
  std::string name;
  std::string query;
};

/// The test_jit_equiv plan corpus: selectivity x format x shape sweep plus
/// the string/projection/comprehension/join extras — every plan shape the
/// generated fast path accepts.
std::vector<VerifyCase> CorpusCases() {
  std::vector<VerifyCase> cases;
  for (int sel : {6, 12, 30, 60}) {
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

class IrVerifierSweep : public ::testing::TestWithParam<VerifyCase> {};

TEST_P(IrVerifierSweep, GeneratedModuleVerifiesClean) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.verify_ir = true;
  opts.num_threads = 2;
  opts.morsel_rows = 16;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  QueryTelemetry tel;
  CallOptions call;
  call.telemetry = &tel;
  auto r = engine.Execute(GetParam().query, call);
  // Every module codegen produces must pass the verifier — a contract
  // violation would surface here as an Internal error, not a fallback.
  ASSERT_TRUE(r.ok()) << GetParam().query << "\n" << r.status().ToString();
  if (tel.used_jit) {
    EXPECT_TRUE(tel.ir_verified) << GetParam().query;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, IrVerifierSweep, ::testing::ValuesIn(CorpusCases()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Integration: the ir_verified signal across execution paths
// ---------------------------------------------------------------------------

TEST(IrVerifierIntegration, OuterJoinDrainModuleVerifiesClean) {
  // Outer joins generate the proteus_drain<k> entry points. The SQL grammar
  // has no LEFT JOIN, so build the plan directly (as test_jit_equiv's
  // outer-join suite does) and run it through ExecutePlan.
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.verify_ir = true;
  opts.num_threads = 2;
  opts.morsel_rows = 16;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  auto proj = [](const char* var, const char* field) {
    return Expr::Proj(Expr::Var(var), field);
  };
  OpPtr scan_o = Operator::Scan("orders_json", "o");
  OpPtr scan_l = Operator::Scan("lineitem_json", "l");
  ExprPtr pred =
      Expr::Bin(BinOp::kEq, proj("o", "o_orderkey"), proj("l", "l_orderkey"));
  OpPtr join = Operator::Join(scan_o, scan_l, pred, /*outer=*/true);
  OpPtr plan = Operator::Reduce(join, {{Monoid::kCount, nullptr, "n"},
                                       {Monoid::kMax, proj("l", "l_quantity"), "maxq"}});
  QueryTelemetry tel;
  CallOptions call;
  call.telemetry = &tel;
  auto r = engine.ExecutePlan(std::move(plan), call);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(tel.used_jit) << tel.fallback_reason;
  EXPECT_TRUE(tel.ir_verified);
}

TEST(IrVerifierIntegration, VerifiedFlagOffWhenDisabled) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.verify_ir = false;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  QueryTelemetry tel;
  CallOptions call;
  call.telemetry = &tel;
  auto r = engine.Execute("SELECT count(*) FROM lineitem_bincol WHERE l_orderkey < 30",
                          call);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(tel.used_jit);
  EXPECT_FALSE(tel.ir_verified);
}

TEST(IrVerifierIntegration, VerifiedAcrossShards) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.verify_ir = true;
  opts.num_threads = 2;
  opts.num_shards = 2;
  opts.morsel_rows = 16;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  QueryTelemetry tel;
  CallOptions call;
  call.telemetry = &tel;
  // lineitem_json: the JSON plug-in splits on morsel_rows, so the corpus
  // actually fans out across both shards (bincol yields a single morsel).
  auto r = engine.Execute(
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_json WHERE l_orderkey < 30",
      call);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(tel.shards_used, 2);
  EXPECT_TRUE(tel.used_jit);
  EXPECT_TRUE(tel.ir_verified);
}

TEST(IrVerifierIntegration, VerifiedSurvivesCacheHit) {
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.verify_ir = true;
  opts.jit_cache_capacity = 8;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  const std::string q = "SELECT count(*) FROM lineitem_bincol WHERE l_orderkey < 30";
  QueryTelemetry tel;
  CallOptions call;
  call.telemetry = &tel;
  ASSERT_TRUE(engine.Execute(q, call).ok());
  EXPECT_TRUE(tel.ir_verified);
  EXPECT_FALSE(tel.jit_cache_hit);
  // Warm run: the cached module carries its verification state.
  ASSERT_TRUE(engine.Execute(q, call).ok());
  EXPECT_TRUE(tel.jit_cache_hit);
  EXPECT_TRUE(tel.ir_verified);
}

TEST(IrVerifierIntegration, VerifiedCountedInMetrics) {
  obs::MetricsRegistry metrics;
  EngineOptions opts;
  opts.mode = ExecMode::kJIT;
  opts.verify_ir = true;
  opts.metrics = &metrics;
  QueryEngine engine(opts);
  testutil::RegisterAll(&engine);
  ASSERT_TRUE(
      engine.Execute("SELECT count(*) FROM lineitem_bincol WHERE l_orderkey < 30").ok());
  EXPECT_EQ(metrics.GetCounter("proteus_ir_verified_total")->value(), 1u);
}

}  // namespace
}  // namespace proteus
