#include "src/jit/jit_engine.h"
#include <cstdlib>

#include <llvm/ExecutionEngine/Orc/CompileUtils.h>
#include <llvm/ExecutionEngine/Orc/IRTransformLayer.h>
#include <llvm/ExecutionEngine/Orc/JITTargetMachineBuilder.h>
#include <llvm/ExecutionEngine/Orc/LLJIT.h>
#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>
#include <llvm/IR/Verifier.h>
#include <llvm/Passes/PassBuilder.h>
#include <llvm/Support/TargetSelect.h>
#include <llvm/Support/raw_ostream.h>

#include <chrono>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/engine/partial_sink.h"
#include "src/plugins/binary_plugins.h"
#include "src/plugins/csv_plugin.h"
#include "src/plugins/json_plugin.h"
#include "src/jit/ir_verifier.h"
#include "src/jit/query_cache.h"
#include "src/jit/runtime.h"
#include "src/obs/trace.h"

namespace proteus {

namespace {

using jit::MorselCtx;
using jit::QueryRuntime;

void InitLLVMOnce() {
  static bool done = [] {
    llvm::InitializeNativeTarget();
    llvm::InitializeNativeTargetAsmPrinter();
    return true;
  }();
  (void)done;
}

/// A value in a virtual buffer: primitive kinds only; strings carry ptr+len.
struct CgValue {
  TypeKind kind = TypeKind::kInt64;
  llvm::Value* v = nullptr;    // i64 / double / i1; strings: i8* data
  llvm::Value* len = nullptr;  // strings only: i64
  /// SQL-null flag (i1), or nullptr when the value is provably non-null.
  /// Set for outer-join/outer-unnest null bindings (constant true) and for
  /// join-key JSON field reads (a proteus_json_has check), and propagated
  /// through expressions with the interpreter's Eval() semantics: arithmetic
  /// and comparisons yield null if an operand is null, and/or fold null
  /// operands to false, predicates treat null as false, aggregates skip null
  /// inputs. Other field reads stay unflagged — absent JSON fields read 0/""
  /// there, the engine's long-standing generated-code semantics.
  llvm::Value* null = nullptr;
};

struct ScanSource {
  DataFormat format;
  InputPlugin* plugin = nullptr;
  std::shared_ptr<const CacheBlock> cache;  ///< shared: survives eviction
  std::string dataset;    ///< catalog name (raw formats; hybrid cache reads)
  uint64_t cache_id = 0;  ///< kCacheBlock sources
};

/// ParamDesc builders for the two descriptor families (raw-format data
/// constants vs cache-block constants).
jit::ParamDesc DataParam(jit::ParamKind kind, std::string dataset, uint32_t column = 0) {
  jit::ParamDesc d;
  d.kind = kind;
  d.dataset = std::move(dataset);
  d.column = column;
  return d;
}
jit::ParamDesc CacheParam(jit::ParamKind kind, uint64_t cache_id, std::string var = {},
                          FieldPath path = {}) {
  jit::ParamDesc d;
  d.kind = kind;
  d.cache_id = cache_id;
  d.var = std::move(var);
  d.path = std::move(path);
  return d;
}

/// Lists (var, path, kind) of every binding a join's build side provides
/// that the plan needs above the join: those become the packed payload.
struct PayloadField {
  std::string var;
  FieldPath path;
  TypeKind kind;
  uint32_t slot;      // first slot index; strings take two
  int null_bit = -1;  // bit in the payload's null mask, -1 = never null
};

class Codegen {
 public:
  /// Generated code is position-independent: per-execution constants land in
  /// `params` (bound per run) and runtime-table shapes in `layout` (a fresh
  /// QueryRuntime is built from it per run), so one compiled module can be
  /// cached and reused across executions, threads, and shards.
  Codegen(ExecContext ctx, jit::RuntimeLayout* layout, jit::ParamTable* params)
      : ectx_(ctx),
        layout_(layout),
        params_(params),
        llctx_(std::make_unique<llvm::LLVMContext>()),
        module_(std::make_unique<llvm::Module>("proteus_module", *llctx_)),
        b_(*llctx_) {}

  /// Morsel-parameterized compilation (parallel JIT pipelines): emits
  ///   proteus_build(ctx)                       — chain join build sides and a
  ///                                              mid-chain Nest leaf's packed
  ///                                              group-table fold, run once
  ///   proteus_pipeline(ctx, sink, begin, end)  — the driver chain over one
  ///                                              morsel's OID (or group)
  ///                                              range, feeding a per-morsel
  ///                                              JitMorselSink
  /// The pipeline function is pure over [begin, end): all cross-call state is
  /// per-task (MorselCtx) or per-morsel (the sink), so the scheduler can run
  /// it concurrently, once per morsel, and the partials merge through the
  /// same FinalizePlanPartials fold the interpreter uses.
  Status CompileMorsel(const OpPtr& plan, const MorselPipeline& pipe);

  std::unique_ptr<llvm::Module> TakeModule() { return std::move(module_); }
  std::unique_ptr<llvm::LLVMContext> TakeContext() { return std::move(llctx_); }
  std::string DumpIR() const {
    std::string s;
    llvm::raw_string_ostream os(s);
    module_->print(os, nullptr);
    return s;
  }
  const std::vector<std::string>& result_columns() const { return result_columns_; }
  bool row_records() const { return row_records_; }
  /// Join-table ids of the outer chain joins, deepest-first — aligned with
  /// the generated proteus_drain<k> functions.
  const std::vector<uint32_t>& outer_join_tables() const { return outer_join_tables_; }
  /// Group table a mid-chain Nest driver leaf folds into, or -1 for a scan
  /// driver leaf.
  int32_t driver_group() const { return driver_group_; }

 private:
  using Consume = std::function<Status()>;

  // ---- plan preparation ----------------------------------------------------
  Status Prepare(const OpPtr& op);
  Status CheckSupported(const OpPtr& op) const;
  Result<TypePtr> VarType(const std::string& var) const;
  Result<TypeKind> LeafKind(const std::string& var, const FieldPath& path) const;

  // ---- IR emission ---------------------------------------------------------
  Status EmitProduce(const OpPtr& op, const Consume& consume);
  Status EmitScan(const OpPtr& op, const Consume& consume);
  Status EmitCacheScan(const OpPtr& op, const Consume& consume);
  Status EmitUnnest(const OpPtr& op, const Consume& consume);
  Status EmitJoin(const OpPtr& op, const Consume& consume);
  Status EmitJoinBuild(const Operator& op);
  Status EmitJoinProbe(const Operator& op, const Consume& consume);
  /// Body of a generated unmatched-drain pass (drain_join_ set): loops the
  /// outer join's build rows, skips rows marked in the merged matched
  /// bitmap, and runs the surviving rows — probe side bound to SQL null —
  /// through the ops above the join into the drain's trailing sink slot.
  Status EmitJoinDrain(const Operator& op, const Consume& consume);
  /// Rebinds `op`'s build-side virtual buffers from a payload row pointer,
  /// restoring nullable fields' null flags from the trailing mask slot
  /// (shared by the probe loop and the unmatched drain).
  void RebindPayload(const Operator& op, llvm::Value* row_ptr);
  /// Folds a mid-chain Nest's input region into a packed group table — one
  /// whole-relation pass in row order, inside proteus_build — registered in
  /// group_ids_ for the group loops that read it.
  Status EmitNestFold(const Operator& op);
  /// Loops groups [lo, hi) of a folded Nest's table, binding the group
  /// record's fields, and runs `consume` per group.
  Status EmitNestGroups(const Operator& op, llvm::Value* lo, llvm::Value* hi,
                        const Consume& consume);
  Status EmitFilter(const ExprPtr& pred, const Consume& consume);
  Status EmitReduceRoot(const OpPtr& reduce);
  Status EmitBagReduce(const OpPtr& reduce);
  Status EmitScalarReduce(const OpPtr& reduce);
  Status EmitMorselRoot(const OpPtr& reduce, const Operator* nest);
  Status EmitNestMorsel(const Operator& nest);

  Result<CgValue> EmitExpr(const ExprPtr& e);
  Result<CgValue> EmitBinary(const ExprPtr& e);
  llvm::Value* ToDouble(const CgValue& v) {
    if (v.kind == TypeKind::kFloat64) return v.v;
    if (v.kind == TypeKind::kBool) return b_.CreateUIToFP(v.v, b_.getDoubleTy());
    return b_.CreateSIToFP(v.v, b_.getDoubleTy());
  }
  /// Combines two optional null flags (nullptr = non-null).
  llvm::Value* OrNull(llvm::Value* a, llvm::Value* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    return b_.CreateOr(a, b);
  }
  /// Boolean truth value with SQL-null folded to false — what EvalPredicate
  /// (and the null-as-false rule of and/or and if-conditions) computes.
  llvm::Value* Truthy(const CgValue& c) {
    return c.null == nullptr ? c.v : b_.CreateAnd(c.v, b_.CreateNot(c.null));
  }
  /// A statically-null value of `kind` (outer-join drain / outer-unnest
  /// bindings): zero payload, constant-true null flag. Downstream emission
  /// folds the constant, so null rows cost nothing at runtime.
  CgValue NullValue(TypeKind kind) {
    CgValue cv;
    cv.kind = kind;
    cv.null = b_.getInt1(true);
    if (kind == TypeKind::kFloat64) {
      cv.v = llvm::ConstantFP::get(b_.getDoubleTy(), 0.0);
    } else if (kind == TypeKind::kBool) {
      cv.v = b_.getInt1(false);
    } else if (kind == TypeKind::kString) {
      cv.v = GlobalString("");
      cv.len = b_.getInt64(0);
    } else {
      cv.v = b_.getInt64(0);
    }
    return cv;
  }

  // ---- small helpers -------------------------------------------------------
  llvm::Function* Helper(const char* name, llvm::Type* ret,
                         std::vector<llvm::Type*> args);
  /// The i64 parameter-table entry for `desc`: registered in the shared
  /// ParamTable (deduplicated) and loaded once per function, in the entry
  /// block — the replacement for every constant the old codegen baked into
  /// the instruction stream.
  llvm::Value* ParamI64(jit::ParamDesc desc);
  llvm::Value* ParamPtr(jit::ParamDesc desc) {
    return b_.CreateIntToPtr(ParamI64(std::move(desc)), b_.getInt8PtrTy());
  }
  /// Alloca hoisted into the function entry block: SROA only promotes
  /// entry-block allocas to registers, and hoisting keeps loop-body
  /// temporaries from re-allocating per iteration.
  llvm::Value* EntryAlloca(llvm::Type* ty, llvm::Value* array_size = nullptr,
                           const char* name = "");
  /// An i64 alloca zeroed in the function entry block, so its value at any
  /// point is the count of increments that ran before it — wherever in the
  /// emission it is first created.
  llvm::Value* EntryCounter(const char* name);
  /// The current function's MorselCtx* argument (per-task runtime state).
  llvm::Value* CtxPtr() { return ctx_arg_; }
  /// The pipeline or drain function's JitMorselSink* argument.
  llvm::Value* SinkPtr() { return sink_arg_; }
  llvm::Value* GlobalString(const std::string& s) {
    auto it = string_globals_.find(s);
    if (it != string_globals_.end()) return it->second;
    llvm::Value* g = b_.CreateGlobalStringPtr(s);
    string_globals_[s] = g;
    return g;
  }
  llvm::Value* LoadAt(llvm::Type* ty, llvm::Value* addr_i64) {
    return b_.CreateLoad(ty, b_.CreateIntToPtr(addr_i64, ty->getPointerTo()));
  }
  static std::string Key(const std::string& var, const FieldPath& path) {
    return path.empty() ? var : var + "." + DottedPath(path);
  }

  /// Emits a canonical loop over [lo, hi); `body(i)` runs per iteration.
  Status EmitRangeLoop(llvm::Value* lo, llvm::Value* hi,
                       const std::function<Status(llvm::Value*)>& body);
  /// Counted loop [0, n).
  Status EmitCountedLoop(llvm::Value* n, const std::function<Status(llvm::Value*)>& body) {
    return EmitRangeLoop(b_.getInt64(0), n, body);
  }

  /// Opens a new void function `name(args...)` of i8*/i64 params and positions
  /// the builder at its entry block; per-function emission state resets.
  llvm::Function* OpenFunction(const char* name, uint32_t ptr_args, uint32_t int_args);

  ExecContext ectx_;
  jit::RuntimeLayout* layout_;
  jit::ParamTable* params_;
  std::unique_ptr<llvm::LLVMContext> llctx_;
  std::unique_ptr<llvm::Module> module_;
  llvm::IRBuilder<> b_;
  llvm::Function* fn_ = nullptr;
  llvm::Value* ctx_arg_ = nullptr;
  llvm::Value* params_arg_ = nullptr;  // i64* view of the parameter table
  /// entry -> body branch; EntryAlloca and ParamI64 insert before it.
  llvm::Instruction* entry_term_ = nullptr;
  std::unordered_map<uint32_t, llvm::Value*> param_values_;  // slot -> entry load
  llvm::Value* sink_arg_ = nullptr;   // pipeline and drain functions
  llvm::Value* begin_arg_ = nullptr;  // pipeline function only
  llvm::Value* end_arg_ = nullptr;    // pipeline function only

  // The driver leaf loops over [begin, end) instead of the whole relation,
  // and chain joins emit only their probe side (builds run once in
  // proteus_build, as does a Nest driver leaf's fold).
  const Operator* driver_leaf_ = nullptr;
  int32_t driver_group_ = -1;
  std::unordered_set<const Operator*> chain_joins_;
  // Set while emitting an unmatched-drain function: the outer join whose
  // build rows the function iterates (EmitJoinProbe dispatches to
  // EmitJoinDrain there), and the function's merged-bitmap argument.
  const Operator* drain_join_ = nullptr;
  llvm::Value* drain_matched_arg_ = nullptr;
  std::vector<uint32_t> outer_join_tables_;
  // Keys (var.path) read by any join key expression: JSON reads of these
  // carry a proteus_json_has null check so null-key build/probe semantics
  // match the interpreter's (null keys never match).
  std::unordered_set<std::string> key_paths_;

  std::unordered_map<std::string, CgValue> bindings_;       // virtual buffers
  std::unordered_map<std::string, llvm::Value*> oids_;      // var -> current oid (i64)
  std::unordered_map<std::string, ScanSource> sources_;     // var -> data source
  std::unordered_map<std::string, TypePtr> var_types_;      // var -> record type
  std::unordered_map<std::string, std::vector<FieldPath>> needed_;  // var -> used paths
  std::unordered_map<const Operator*, uint32_t> join_ids_;
  std::unordered_map<const Operator*, std::vector<PayloadField>> join_payloads_;
  /// Payload slot holding the row's null-bit mask, or -1 when no payload
  /// field of that join can be null.
  std::unordered_map<const Operator*, int> join_null_slots_;
  std::unordered_map<const Operator*, uint32_t> group_ids_;
  std::unordered_map<const Operator*, uint32_t> unnest_ids_;
  std::unordered_map<std::string, llvm::Value*> string_globals_;
  std::vector<std::string> result_columns_;
  bool row_records_ = false;
};

// ---------------------------------------------------------------------------
// Preparation: validate support, open plugins, register runtime tables
// ---------------------------------------------------------------------------

void CollectExprPaths(const ExprPtr& e,
                      std::unordered_map<std::string, std::vector<FieldPath>>* out) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kProj) {
    FieldPath path;
    const Expr* cur = e.get();
    while (cur->kind() == ExprKind::kProj) {
      path.insert(path.begin(), cur->field());
      cur = cur->child(0).get();
    }
    if (cur->kind() == ExprKind::kVarRef) {
      (*out)[cur->var_name()].push_back(path);
      return;
    }
  }
  if (e->kind() == ExprKind::kVarRef) {
    (*out)[e->var_name()].push_back({});
    return;
  }
  for (const auto& c : e->children()) CollectExprPaths(c, out);
}

/// Collects the (var, path) keys every join key expression in the plan
/// reads. JSON scans of those fields emit a presence check alongside the
/// value read — the null-key join semantics the interpreter gets for free
/// from boxed Values.
void CollectJoinKeyPaths(const OpPtr& op, std::unordered_set<std::string>* out) {
  if (op->kind() == OpKind::kJoin) {
    std::unordered_map<std::string, std::vector<FieldPath>> paths;
    CollectExprPaths(op->left_key(), &paths);
    CollectExprPaths(op->right_key(), &paths);
    for (const auto& [var, ps] : paths) {
      for (const auto& p : ps) {
        out->insert(p.empty() ? var : var + "." + DottedPath(p));
      }
    }
  }
  for (const auto& c : op->children()) CollectJoinKeyPaths(c, out);
}

Status Codegen::CheckSupported(const OpPtr& op) const {
  // Walk the whole plan and collect *every* unsupported construct, not just
  // the first: fallback telemetry reports the semicolon-joined list, so a
  // plan with several blockers shows its complete burn-down list at once.
  std::vector<std::string> reasons;
  auto add = [&](std::string r) {
    if (std::find(reasons.begin(), reasons.end(), r) == reasons.end()) {
      reasons.push_back(std::move(r));
    }
  };
  std::function<void(const OpPtr&)> walk = [&](const OpPtr& o) {
    switch (o->kind()) {
      case OpKind::kJoin:
        // Non-equi joins generate a nested loop over the frozen build rows
        // (EmitJoinProbe); equi joins with non-integer keys stay on the
        // interpreter — the packed radix table holds int64 keys only.
        if (o->left_key() != nullptr && o->left_key()->type() != nullptr) {
          TypeKind k = o->left_key()->type()->kind();
          if (k == TypeKind::kFloat64 || k == TypeKind::kString) {
            add("jit: non-integer join key");
          }
        }
        // Outer joins generate per-morsel matched-build bitmaps plus a
        // one-shot drain function — infrastructure only the main pipeline
        // chain has. Outer joins inside build subtrees or a mid-chain Nest's
        // input region still fall back.
        if (o->outer() && chain_joins_.count(o.get()) == 0) {
          add("jit: outer join outside the morsel pipeline chain");
        }
        break;
      case OpKind::kUnnest:
        break;  // outer unnest generates a null-element emission branch
      case OpKind::kNest:
        for (const auto& out : o->outputs()) {
          if (IsCollectionMonoid(out.monoid) || out.monoid == Monoid::kAnd ||
              out.monoid == Monoid::kOr) {
            add("jit: nest with collection/boolean monoid");
            break;
          }
        }
        break;
      default:
        break;
    }
    for (const auto& c : o->children()) walk(c);
  };
  walk(op);
  if (reasons.empty()) return Status::OK();
  std::string joined;
  for (const auto& r : reasons) {
    if (!joined.empty()) joined += "; ";
    joined += r;
  }
  return Status::Unimplemented(joined);
}

/// Kind of a Nest output's slot in the packed group table (and of the
/// group-record field it binds): count and integer aggregates are int64,
/// float-typed aggregates double.
Result<TypeKind> NestSlotKind(const AggOutput& o) {
  if (o.monoid == Monoid::kCount) return TypeKind::kInt64;
  if (!o.expr->type()) return Status::Internal("jit: un-typechecked nest output");
  return o.expr->type()->kind() == TypeKind::kFloat64 ? TypeKind::kFloat64 : TypeKind::kInt64;
}

Result<TypePtr> Codegen::VarType(const std::string& var) const {
  auto it = var_types_.find(var);
  if (it == var_types_.end()) return Status::Unimplemented("jit: unknown variable " + var);
  return it->second;
}

Result<TypeKind> Codegen::LeafKind(const std::string& var, const FieldPath& path) const {
  PROTEUS_ASSIGN_OR_RETURN(TypePtr t, VarType(var));
  for (const auto& f : path) {
    if (t->kind() != TypeKind::kRecord) return Status::Unimplemented("jit: path into non-record");
    PROTEUS_ASSIGN_OR_RETURN(t, t->FieldType(f));
  }
  if (!t->is_primitive()) return Status::Unimplemented("jit: non-primitive leaf " + Key(var, path));
  return t->kind() == TypeKind::kDate ? TypeKind::kInt64 : t->kind();
}

Status Codegen::Prepare(const OpPtr& op) {
  // Gather expression paths used anywhere.
  CollectExprPaths(op->pred(), &needed_);
  CollectExprPaths(op->group_by(), &needed_);
  CollectExprPaths(op->left_key(), &needed_);
  CollectExprPaths(op->right_key(), &needed_);
  for (const auto& o : op->outputs()) CollectExprPaths(o.expr, &needed_);

  switch (op->kind()) {
    case OpKind::kScan: {
      PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, ectx_.catalog->Get(op->dataset()));
      PROTEUS_ASSIGN_OR_RETURN(InputPlugin * plugin,
                               ectx_.plugins->GetOrOpen(*info, ectx_.stats));
      sources_[op->binding()] = {info->format, plugin, nullptr, op->dataset(), 0};
      var_types_[op->binding()] = info->type->elem();
      break;
    }
    case OpKind::kCacheScan: {
      if (ectx_.caches == nullptr) return Status::Internal("jit: cache scan w/o manager");
      auto blk = ectx_.caches->FindById(op->cache_id());
      if (blk == nullptr) return Status::NotFound("jit: cache block evicted");
      ScanSource src{DataFormat::kCacheBlock, nullptr, std::move(blk), op->dataset(),
                     op->cache_id()};
      if (!op->dataset().empty()) {
        PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, ectx_.catalog->Get(op->dataset()));
        PROTEUS_ASSIGN_OR_RETURN(src.plugin, ectx_.plugins->GetOrOpen(*info, ectx_.stats));
        var_types_[op->binding()] = info->type->elem();
      }
      sources_[op->binding()] = src;
      break;
    }
    case OpKind::kUnnest: {
      PROTEUS_RETURN_NOT_OK(Prepare(op->child(0)));
      const FieldPath& p = op->unnest_path();
      PROTEUS_ASSIGN_OR_RETURN(TypePtr src_t, VarType(p[0]));
      TypePtr t = src_t;
      for (size_t i = 1; i < p.size(); ++i) {
        PROTEUS_ASSIGN_OR_RETURN(t, t->FieldType(p[i]));
      }
      if (t->kind() != TypeKind::kCollection) {
        return Status::TypeError("jit: unnest path is not a collection");
      }
      var_types_[op->binding()] = t->elem();
      unnest_ids_[op.get()] = layout_->AddUnnest();
      return Status::OK();
    }
    case OpKind::kJoin: {
      PROTEUS_RETURN_NOT_OK(Prepare(op->child(0)));
      PROTEUS_RETURN_NOT_OK(Prepare(op->child(1)));
      // Join table registered in EmitJoin once payload width is known.
      return Status::OK();
    }
    case OpKind::kNest: {
      PROTEUS_RETURN_NOT_OK(Prepare(op->child(0)));
      // The group record's shape — key plus one field per output, in the
      // kinds the group table holds — so join payloads and outer-join drains
      // above a Nest can type its fields.
      if (!op->group_by()->type()) return Status::Internal("jit: un-typechecked group key");
      std::vector<Field> fields{{op->group_name(), op->group_by()->type()}};
      for (const auto& o : op->outputs()) {
        PROTEUS_ASSIGN_OR_RETURN(TypeKind k, NestSlotKind(o));
        fields.push_back({o.name, k == TypeKind::kFloat64 ? Type::Float64() : Type::Int64()});
      }
      var_types_[NestBinding(*op)] = Type::Record(std::move(fields));
      return Status::OK();
    }
    default:
      for (const auto& c : op->children()) PROTEUS_RETURN_NOT_OK(Prepare(c));
      return Status::OK();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Helper function declarations
// ---------------------------------------------------------------------------

llvm::Function* Codegen::Helper(const char* name, llvm::Type* ret,
                                std::vector<llvm::Type*> args) {
  if (auto* f = module_->getFunction(name)) return f;
  auto* fty = llvm::FunctionType::get(ret, args, false);
  return llvm::Function::Create(fty, llvm::Function::ExternalLinkage, name, module_.get());
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<CgValue> Codegen::EmitExpr(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kLiteral: {
      const Value& v = e->literal();
      if (v.is_int()) return CgValue{TypeKind::kInt64, b_.getInt64(v.i())};
      if (v.is_float())
        return CgValue{TypeKind::kFloat64, llvm::ConstantFP::get(b_.getDoubleTy(), v.f())};
      if (v.is_bool()) return CgValue{TypeKind::kBool, b_.getInt1(v.b())};
      if (v.is_string()) {
        return CgValue{TypeKind::kString, GlobalString(v.s()),
                       b_.getInt64(static_cast<int64_t>(v.s().size()))};
      }
      return Status::Unimplemented("jit: literal " + v.ToString());
    }
    case ExprKind::kVarRef:
    case ExprKind::kProj: {
      FieldPath path;
      const Expr* cur = e.get();
      while (cur->kind() == ExprKind::kProj) {
        path.insert(path.begin(), cur->field());
        cur = cur->child(0).get();
      }
      if (cur->kind() != ExprKind::kVarRef) {
        return Status::Unimplemented("jit: projection over computed record");
      }
      auto it = bindings_.find(Key(cur->var_name(), path));
      if (it == bindings_.end()) {
        return Status::Unimplemented("jit: no virtual buffer for " +
                                     Key(cur->var_name(), path));
      }
      return it->second;
    }
    case ExprKind::kBinary:
      return EmitBinary(e);
    case ExprKind::kUnary: {
      PROTEUS_ASSIGN_OR_RETURN(CgValue c, EmitExpr(e->child(0)));
      CgValue out;
      out.null = c.null;  // Eval: unary ops propagate null
      if (e->un_op() == UnOp::kNot) {
        out.kind = TypeKind::kBool;
        out.v = b_.CreateNot(c.v);
      } else if (c.kind == TypeKind::kFloat64) {
        out.kind = c.kind;
        out.v = b_.CreateFNeg(c.v);
      } else {
        out.kind = c.kind;
        out.v = b_.CreateNeg(c.v);
      }
      return out;
    }
    case ExprKind::kIf: {
      PROTEUS_ASSIGN_OR_RETURN(CgValue c, EmitExpr(e->child(0)));
      PROTEUS_ASSIGN_OR_RETURN(CgValue t, EmitExpr(e->child(1)));
      PROTEUS_ASSIGN_OR_RETURN(CgValue f, EmitExpr(e->child(2)));
      if (t.kind != f.kind) {
        // Widen int/float branch mismatches to double the way the
        // arithmetic path does. Other mixes (bool vs numeric, string vs
        // anything) are rejected by the type checker before either engine
        // runs, so bailing here keeps the JIT exactly as reachable as the
        // interpreter — widening them would diverge from Eval(), which
        // returns the raw branch cell.
        auto numeric = [](TypeKind k) {
          return k == TypeKind::kInt64 || k == TypeKind::kFloat64;
        };
        if (!numeric(t.kind) || !numeric(f.kind)) {
          return Status::Unimplemented("jit: if branches of mixed kinds");
        }
        t = CgValue{TypeKind::kFloat64, ToDouble(t), nullptr, t.null};
        f = CgValue{TypeKind::kFloat64, ToDouble(f), nullptr, f.null};
      }
      llvm::Value* cond = Truthy(c);  // Eval: a null condition picks else
      CgValue out{t.kind, b_.CreateSelect(cond, t.v, f.v)};
      if (t.kind == TypeKind::kString) out.len = b_.CreateSelect(cond, t.len, f.len);
      if (t.null != nullptr || f.null != nullptr) {
        llvm::Value* tn = t.null != nullptr ? t.null : b_.getInt1(false);
        llvm::Value* fn = f.null != nullptr ? f.null : b_.getInt1(false);
        out.null = b_.CreateSelect(cond, tn, fn);
      }
      return out;
    }
    case ExprKind::kCast: {
      PROTEUS_ASSIGN_OR_RETURN(CgValue c, EmitExpr(e->child(0)));
      if (e->cast_to()->kind() == TypeKind::kFloat64) {
        return CgValue{TypeKind::kFloat64, ToDouble(c), nullptr, c.null};
      }
      if (c.kind == TypeKind::kFloat64) {
        return CgValue{TypeKind::kInt64, b_.CreateFPToSI(c.v, b_.getInt64Ty()), nullptr,
                       c.null};
      }
      return c;
    }
    case ExprKind::kRecordCons:
      return Status::Unimplemented("jit: record construction outside result emit");
  }
  return Status::Internal("jit: unreachable expr kind");
}

Result<CgValue> Codegen::EmitBinary(const ExprPtr& e) {
  BinOp op = e->bin_op();
  PROTEUS_ASSIGN_OR_RETURN(CgValue l, EmitExpr(e->child(0)));
  PROTEUS_ASSIGN_OR_RETURN(CgValue r, EmitExpr(e->child(1)));
  // Eval(): arithmetic / comparison with a null operand is null; and/or fold
  // null operands to false and always yield a non-null bool.
  llvm::Value* nul = OrNull(l.null, r.null);

  if (op == BinOp::kAnd) return CgValue{TypeKind::kBool, b_.CreateAnd(Truthy(l), Truthy(r))};
  if (op == BinOp::kOr) return CgValue{TypeKind::kBool, b_.CreateOr(Truthy(l), Truthy(r))};

  // String comparisons via runtime helpers.
  if (l.kind == TypeKind::kString || r.kind == TypeKind::kString) {
    if (l.kind != r.kind) return Status::TypeError("jit: string vs non-string comparison");
    auto* i8p = b_.getInt8PtrTy();
    auto* eqf = Helper("proteus_str_eq", b_.getInt32Ty(),
                       {i8p, b_.getInt64Ty(), i8p, b_.getInt64Ty()});
    auto* ltf = Helper("proteus_str_lt", b_.getInt32Ty(),
                       {i8p, b_.getInt64Ty(), i8p, b_.getInt64Ty()});
    auto call = [&](llvm::Function* f, llvm::Value* a, llvm::Value* alen, llvm::Value* c,
                    llvm::Value* clen) {
      return b_.CreateICmpNE(b_.CreateCall(f, {a, alen, c, clen}), b_.getInt32(0));
    };
    switch (op) {
      case BinOp::kEq:
        return CgValue{TypeKind::kBool, call(eqf, l.v, l.len, r.v, r.len), nullptr, nul};
      case BinOp::kNe:
        return CgValue{TypeKind::kBool, b_.CreateNot(call(eqf, l.v, l.len, r.v, r.len)),
                       nullptr, nul};
      case BinOp::kLt:
        return CgValue{TypeKind::kBool, call(ltf, l.v, l.len, r.v, r.len), nullptr, nul};
      case BinOp::kGt:
        return CgValue{TypeKind::kBool, call(ltf, r.v, r.len, l.v, l.len), nullptr, nul};
      case BinOp::kLe:
        return CgValue{TypeKind::kBool, b_.CreateNot(call(ltf, r.v, r.len, l.v, l.len)),
                       nullptr, nul};
      case BinOp::kGe:
        return CgValue{TypeKind::kBool, b_.CreateNot(call(ltf, l.v, l.len, r.v, r.len)),
                       nullptr, nul};
      default:
        return Status::TypeError("jit: arithmetic on strings");
    }
  }

  bool bools = l.kind == TypeKind::kBool && r.kind == TypeKind::kBool;
  bool floats = l.kind == TypeKind::kFloat64 || r.kind == TypeKind::kFloat64;
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul: {
      if (floats) {
        llvm::Value* a = ToDouble(l);
        llvm::Value* c = ToDouble(r);
        llvm::Value* v = op == BinOp::kAdd   ? b_.CreateFAdd(a, c)
                         : op == BinOp::kSub ? b_.CreateFSub(a, c)
                                             : b_.CreateFMul(a, c);
        return CgValue{TypeKind::kFloat64, v, nullptr, nul};
      }
      llvm::Value* v = op == BinOp::kAdd   ? b_.CreateAdd(l.v, r.v)
                       : op == BinOp::kSub ? b_.CreateSub(l.v, r.v)
                                           : b_.CreateMul(l.v, r.v);
      return CgValue{TypeKind::kInt64, v, nullptr, nul};
    }
    case BinOp::kDiv:
      return CgValue{TypeKind::kFloat64, b_.CreateFDiv(ToDouble(l), ToDouble(r)), nullptr,
                     nul};
    case BinOp::kMod: {
      // A null denominator's placeholder payload is 0; srem by 0 traps, so
      // divide by 1 there — the result is discarded behind the null flag.
      llvm::Value* den = r.v;
      if (r.null != nullptr) den = b_.CreateSelect(r.null, b_.getInt64(1), r.v);
      return CgValue{TypeKind::kInt64, b_.CreateSRem(l.v, den), nullptr, nul};
    }
    default:
      break;
  }
  // Comparisons.
  llvm::Value* cmp;
  if (floats) {
    llvm::Value* a = ToDouble(l);
    llvm::Value* c = ToDouble(r);
    switch (op) {
      case BinOp::kLt: cmp = b_.CreateFCmpOLT(a, c); break;
      case BinOp::kLe: cmp = b_.CreateFCmpOLE(a, c); break;
      case BinOp::kGt: cmp = b_.CreateFCmpOGT(a, c); break;
      case BinOp::kGe: cmp = b_.CreateFCmpOGE(a, c); break;
      case BinOp::kEq: cmp = b_.CreateFCmpOEQ(a, c); break;
      default: cmp = b_.CreateFCmpONE(a, c); break;
    }
  } else if (bools) {
    cmp = op == BinOp::kEq ? b_.CreateICmpEQ(l.v, r.v) : b_.CreateICmpNE(l.v, r.v);
  } else {
    switch (op) {
      case BinOp::kLt: cmp = b_.CreateICmpSLT(l.v, r.v); break;
      case BinOp::kLe: cmp = b_.CreateICmpSLE(l.v, r.v); break;
      case BinOp::kGt: cmp = b_.CreateICmpSGT(l.v, r.v); break;
      case BinOp::kGe: cmp = b_.CreateICmpSGE(l.v, r.v); break;
      case BinOp::kEq: cmp = b_.CreateICmpEQ(l.v, r.v); break;
      default: cmp = b_.CreateICmpNE(l.v, r.v); break;
    }
  }
  return CgValue{TypeKind::kBool, cmp, nullptr, nul};
}

// ---------------------------------------------------------------------------
// Control-flow scaffolding
// ---------------------------------------------------------------------------

Status Codegen::EmitRangeLoop(llvm::Value* lo, llvm::Value* hi,
                              const std::function<Status(llvm::Value*)>& body) {
  llvm::Value* idx_ptr = EntryAlloca(b_.getInt64Ty(), nullptr, "idx");
  b_.CreateStore(lo, idx_ptr);
  auto* cond_bb = llvm::BasicBlock::Create(*llctx_, "loop.cond", fn_);
  auto* body_bb = llvm::BasicBlock::Create(*llctx_, "loop.body", fn_);
  auto* exit_bb = llvm::BasicBlock::Create(*llctx_, "loop.exit", fn_);
  b_.CreateBr(cond_bb);
  b_.SetInsertPoint(cond_bb);
  llvm::Value* idx = b_.CreateLoad(b_.getInt64Ty(), idx_ptr);
  b_.CreateCondBr(b_.CreateICmpULT(idx, hi), body_bb, exit_bb);
  b_.SetInsertPoint(body_bb);
  PROTEUS_RETURN_NOT_OK(body(idx));
  // Whatever block the body ended in continues to the increment.
  llvm::Value* next = b_.CreateAdd(b_.CreateLoad(b_.getInt64Ty(), idx_ptr), b_.getInt64(1));
  b_.CreateStore(next, idx_ptr);
  b_.CreateBr(cond_bb);
  b_.SetInsertPoint(exit_bb);
  return Status::OK();
}

Status Codegen::EmitFilter(const ExprPtr& pred, const Consume& consume) {
  if (!pred) return consume();
  PROTEUS_ASSIGN_OR_RETURN(CgValue c, EmitExpr(pred));
  auto* pass_bb = llvm::BasicBlock::Create(*llctx_, "sel.pass", fn_);
  auto* merge_bb = llvm::BasicBlock::Create(*llctx_, "sel.merge", fn_);
  b_.CreateCondBr(Truthy(c), pass_bb, merge_bb);
  b_.SetInsertPoint(pass_bb);
  PROTEUS_RETURN_NOT_OK(consume());
  b_.CreateBr(merge_bb);
  b_.SetInsertPoint(merge_bb);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

Status Codegen::EmitScan(const OpPtr& op, const Consume& consume) {
  const std::string& var = op->binding();
  const ScanSource& src = sources_.at(var);
  std::vector<FieldPath> fields = op->scan_fields();
  if (fields.empty()) {
    for (const auto& f : var_types_.at(var)->fields()) {
      if (f.type->is_primitive()) fields.push_back({f.name});
    }
  }
  // The driver leaf of the pipeline function scans only its (begin, end)
  // arguments' OID range; every other scan (build sides, a Nest's input)
  // runs the whole relation, whose record count is a bound parameter —
  // never an immediate — so cached modules survive data growth between
  // executions.
  llvm::Value* lo;
  llvm::Value* hi;
  if (op.get() == driver_leaf_) {
    lo = begin_arg_;
    hi = end_arg_;
  } else {
    lo = b_.getInt64(0);
    hi = ParamI64(DataParam(jit::ParamKind::kNumRecords, src.dataset));
  }
  return EmitRangeLoop(lo, hi, [&](llvm::Value* oid) -> Status {
    oids_[var] = oid;
    for (const auto& p : fields) {
      auto lk = LeafKind(var, p);
      if (!lk.ok()) continue;  // collections (unnest paths) are read lazily
      TypeKind kind = *lk;
      CgValue cv;
      cv.kind = kind;
      switch (src.format) {
        case DataFormat::kBinaryColumn: {
          auto* plugin = static_cast<BinColPlugin*>(src.plugin);
          const BinColReader* r = plugin->reader();
          int ci = r->ColumnIndex(p[0]);
          if (ci < 0) return Status::Internal("jit: missing bincol column " + p[0]);
          auto col = static_cast<uint32_t>(ci);
          if (kind == TypeKind::kInt64) {
            llvm::Value* base =
                ParamI64(DataParam(jit::ParamKind::kBinColIntBase, src.dataset, col));
            cv.v = LoadAt(b_.getInt64Ty(),
                          b_.CreateAdd(base, b_.CreateMul(oid, b_.getInt64(8))));
          } else if (kind == TypeKind::kFloat64) {
            llvm::Value* base =
                ParamI64(DataParam(jit::ParamKind::kBinColFloatBase, src.dataset, col));
            cv.v = LoadAt(b_.getDoubleTy(),
                          b_.CreateAdd(base, b_.CreateMul(oid, b_.getInt64(8))));
          } else if (kind == TypeKind::kBool) {
            llvm::Value* base =
                ParamI64(DataParam(jit::ParamKind::kBinColBoolBase, src.dataset, col));
            llvm::Value* byte = LoadAt(b_.getInt8Ty(), b_.CreateAdd(base, oid));
            cv.v = b_.CreateICmpNE(byte, b_.getInt8(0));
          } else {  // string: offsets + data
            llvm::Value* offs =
                ParamI64(DataParam(jit::ParamKind::kBinColStrOffsets, src.dataset, col));
            llvm::Value* data =
                ParamI64(DataParam(jit::ParamKind::kBinColStrData, src.dataset, col));
            llvm::Value* o1 = LoadAt(b_.getInt64Ty(),
                                     b_.CreateAdd(offs, b_.CreateMul(oid, b_.getInt64(8))));
            llvm::Value* o2 = LoadAt(
                b_.getInt64Ty(),
                b_.CreateAdd(offs, b_.CreateMul(b_.CreateAdd(oid, b_.getInt64(1)),
                                                b_.getInt64(8))));
            cv.v = b_.CreateIntToPtr(b_.CreateAdd(data, o1), b_.getInt8PtrTy());
            cv.len = b_.CreateSub(o2, o1);
          }
          break;
        }
        case DataFormat::kBinaryRow: {
          auto* plugin = static_cast<BinRowPlugin*>(src.plugin);
          const BinRowReader* r = plugin->reader();
          int ci = r->ColumnIndex(p[0]);
          if (ci < 0) return Status::Internal("jit: missing binrow column " + p[0]);
          llvm::Value* base = ParamI64(DataParam(jit::ParamKind::kBinRowRowsBase, src.dataset));
          llvm::Value* addr = b_.CreateAdd(
              base, b_.CreateAdd(b_.CreateMul(oid, b_.getInt64(r->row_width())),
                                 b_.getInt64(8 * static_cast<uint64_t>(ci))));
          if (kind == TypeKind::kInt64) {
            cv.v = LoadAt(b_.getInt64Ty(), addr);
          } else if (kind == TypeKind::kFloat64) {
            cv.v = LoadAt(b_.getDoubleTy(), addr);
          } else if (kind == TypeKind::kBool) {
            cv.v = b_.CreateICmpNE(LoadAt(b_.getInt64Ty(), addr), b_.getInt64(0));
          } else {  // packed (u32 off, u32 len) into the heap
            llvm::Value* off = b_.CreateZExt(LoadAt(b_.getInt32Ty(), addr), b_.getInt64Ty());
            llvm::Value* len = b_.CreateZExt(
                LoadAt(b_.getInt32Ty(), b_.CreateAdd(addr, b_.getInt64(4))), b_.getInt64Ty());
            llvm::Value* heap =
                ParamI64(DataParam(jit::ParamKind::kBinRowHeapBase, src.dataset));
            cv.v = b_.CreateIntToPtr(b_.CreateAdd(heap, off), b_.getInt8PtrTy());
            cv.len = len;
          }
          break;
        }
        case DataFormat::kCSV: {
          auto* plugin = static_cast<CsvPlugin*>(src.plugin);
          int ci = plugin->ColumnIndex(p[0]);
          if (ci < 0) return Status::Internal("jit: missing csv column " + p[0]);
          llvm::Value* pp = ParamPtr(DataParam(jit::ParamKind::kPluginPtr, src.dataset));
          llvm::Value* col = b_.getInt32(static_cast<uint32_t>(ci));
          auto* i8p = b_.getInt8PtrTy();
          if (kind == TypeKind::kInt64) {
            cv.v = b_.CreateCall(Helper("proteus_csv_int", b_.getInt64Ty(),
                                        {i8p, b_.getInt64Ty(), b_.getInt32Ty()}),
                                 {pp, oid, col});
          } else if (kind == TypeKind::kFloat64) {
            cv.v = b_.CreateCall(Helper("proteus_csv_double", b_.getDoubleTy(),
                                        {i8p, b_.getInt64Ty(), b_.getInt32Ty()}),
                                 {pp, oid, col});
          } else if (kind == TypeKind::kBool) {
            llvm::Value* i = b_.CreateCall(Helper("proteus_csv_int", b_.getInt64Ty(),
                                                  {i8p, b_.getInt64Ty(), b_.getInt32Ty()}),
                                           {pp, oid, col});
            cv.v = b_.CreateICmpNE(i, b_.getInt64(0));
          } else {
            llvm::Value* len_ptr = EntryAlloca(b_.getInt64Ty());
            cv.v = b_.CreateCall(
                Helper("proteus_csv_str", i8p,
                       {i8p, b_.getInt64Ty(), b_.getInt32Ty(), b_.getInt64Ty()->getPointerTo()}),
                {pp, oid, col, len_ptr});
            cv.len = b_.CreateLoad(b_.getInt64Ty(), len_ptr);
          }
          break;
        }
        case DataFormat::kJSON: {
          llvm::Value* pp = ParamPtr(DataParam(jit::ParamKind::kPluginPtr, src.dataset));
          llvm::Value* h = b_.getInt64(HashString(DottedPath(p)));
          auto* i8p = b_.getInt8PtrTy();
          const bool keyed = key_paths_.count(Key(var, p)) != 0;
          if (kind == TypeKind::kInt64 && keyed) {
            // Join-key int fields fuse presence + read into one structural
            // index lookup (absent = SQL null; null keys never match).
            llvm::Value* out_ptr = EntryAlloca(b_.getInt64Ty());
            llvm::Value* has = b_.CreateCall(
                Helper("proteus_json_int_opt", b_.getInt32Ty(),
                       {i8p, b_.getInt64Ty(), b_.getInt64Ty(),
                        b_.getInt64Ty()->getPointerTo()}),
                {pp, oid, h, out_ptr});
            cv.v = b_.CreateLoad(b_.getInt64Ty(), out_ptr);
            cv.null = b_.CreateICmpEQ(has, b_.getInt32(0));
          } else if (kind == TypeKind::kInt64) {
            cv.v = b_.CreateCall(Helper("proteus_json_int", b_.getInt64Ty(),
                                        {i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                                 {pp, oid, h});
          } else if (kind == TypeKind::kFloat64) {
            cv.v = b_.CreateCall(Helper("proteus_json_double", b_.getDoubleTy(),
                                        {i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                                 {pp, oid, h});
          } else if (kind == TypeKind::kBool) {
            llvm::Value* i = b_.CreateCall(Helper("proteus_json_bool", b_.getInt64Ty(),
                                                  {i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                                           {pp, oid, h});
            cv.v = b_.CreateICmpNE(i, b_.getInt64(0));
          } else {
            llvm::Value* len_ptr = EntryAlloca(b_.getInt64Ty());
            cv.v = b_.CreateCall(
                Helper("proteus_json_str", i8p,
                       {i8p, b_.getInt64Ty(), b_.getInt64Ty(), b_.getInt64Ty()->getPointerTo()}),
                {pp, oid, h, len_ptr});
            cv.len = b_.CreateLoad(b_.getInt64Ty(), len_ptr);
          }
          if (keyed && cv.null == nullptr) {
            // Non-int join-key fields: absent JSON fields must behave as
            // SQL null (null keys never match), not as the reader's 0/""
            // default.
            cv.null = b_.CreateICmpEQ(
                b_.CreateCall(Helper("proteus_json_has", b_.getInt32Ty(),
                                     {i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                              {pp, oid, h}),
                b_.getInt32(0));
          }
          break;
        }
        case DataFormat::kCacheBlock:
          return Status::Internal("jit: cache scans take the EmitCacheScan path");
      }
      bindings_[Key(var, p)] = cv;
    }
    return consume();
  });
}

Status Codegen::EmitCacheScan(const OpPtr& op, const Consume& consume) {
  const std::string& var = op->binding();
  const ScanSource& src = sources_.at(var);
  const CacheBlock* blk = src.cache.get();

  std::vector<FieldPath> fields = op->scan_fields();
  if (fields.empty()) {
    for (const auto& c : blk->cols) {
      if (c.path != FieldPath{"$oid"}) fields.push_back(c.path);
    }
  }
  const CacheColumn* oid_col = blk->Find(var, {"$oid"});

  llvm::Value* lo;
  llvm::Value* hi;
  if (op.get() == driver_leaf_) {
    lo = begin_arg_;
    hi = end_arg_;
  } else {
    lo = b_.getInt64(0);
    hi = ParamI64(CacheParam(jit::ParamKind::kCacheNumRows, src.cache_id));
  }
  return EmitRangeLoop(lo, hi, [&](llvm::Value* row) -> Status {
        if (oid_col != nullptr) {
          // Expose the raw OID: the Unnest operator and hybrid string reads
          // address the original file through it.
          llvm::Value* oid_base = ParamI64(
              CacheParam(jit::ParamKind::kCacheColIntBase, src.cache_id, var, {"$oid"}));
          oids_[var] = LoadAt(b_.getInt64Ty(),
                              b_.CreateAdd(oid_base, b_.CreateMul(row, b_.getInt64(8))));
        }
        for (const auto& p : fields) {
          const CacheColumn* c = blk->Find(var, p);
          CgValue cv;
          if (c != nullptr && c->type != TypeKind::kString) {
            if (c->type == TypeKind::kFloat64) {
              llvm::Value* base = ParamI64(
                  CacheParam(jit::ParamKind::kCacheColFloatBase, src.cache_id, var, p));
              cv.kind = TypeKind::kFloat64;
              cv.v = LoadAt(b_.getDoubleTy(),
                            b_.CreateAdd(base, b_.CreateMul(row, b_.getInt64(8))));
            } else {
              llvm::Value* base = ParamI64(
                  CacheParam(jit::ParamKind::kCacheColIntBase, src.cache_id, var, p));
              llvm::Value* raw = LoadAt(b_.getInt64Ty(),
                                        b_.CreateAdd(base, b_.CreateMul(row, b_.getInt64(8))));
              if (c->type == TypeKind::kBool) {
                cv.kind = TypeKind::kBool;
                cv.v = b_.CreateICmpNE(raw, b_.getInt64(0));
              } else {
                cv.kind = TypeKind::kInt64;
                cv.v = raw;
              }
            }
          } else if (src.plugin != nullptr && oid_col != nullptr) {
            // Hybrid raw access by OID (e.g. uncached string field).
            auto lk = LeafKind(var, p);
            if (!lk.ok()) continue;  // collection field: unnest reads it lazily
            TypeKind kind = *lk;
            llvm::Value* oid_base = ParamI64(
                CacheParam(jit::ParamKind::kCacheColIntBase, src.cache_id, var, {"$oid"}));
            llvm::Value* oid = LoadAt(b_.getInt64Ty(),
                                      b_.CreateAdd(oid_base, b_.CreateMul(row, b_.getInt64(8))));
            llvm::Value* pp = ParamPtr(DataParam(jit::ParamKind::kPluginPtr, src.dataset));
            auto* i8p = b_.getInt8PtrTy();
            const DatasetInfo& info = src.plugin->info();
            if (info.format == DataFormat::kJSON) {
              llvm::Value* h = b_.getInt64(HashString(DottedPath(p)));
              if (kind == TypeKind::kString) {
                llvm::Value* len_ptr = EntryAlloca(b_.getInt64Ty());
                cv.kind = TypeKind::kString;
                cv.v = b_.CreateCall(Helper("proteus_json_str", i8p,
                                            {i8p, b_.getInt64Ty(), b_.getInt64Ty(),
                                             b_.getInt64Ty()->getPointerTo()}),
                                     {pp, oid, h, len_ptr});
                cv.len = b_.CreateLoad(b_.getInt64Ty(), len_ptr);
              } else if (kind == TypeKind::kFloat64) {
                cv.kind = kind;
                cv.v = b_.CreateCall(Helper("proteus_json_double", b_.getDoubleTy(),
                                            {i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                                     {pp, oid, b_.getInt64(HashString(DottedPath(p)))});
              } else {
                cv.kind = TypeKind::kInt64;
                cv.v = b_.CreateCall(Helper("proteus_json_int", b_.getInt64Ty(),
                                            {i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                                     {pp, oid, h});
              }
            } else if (info.format == DataFormat::kCSV) {
              auto* csv = static_cast<CsvPlugin*>(src.plugin);
              int ci = csv->ColumnIndex(p[0]);
              if (ci < 0) return Status::Internal("jit: missing csv column " + p[0]);
              llvm::Value* col = b_.getInt32(static_cast<uint32_t>(ci));
              if (kind == TypeKind::kString) {
                llvm::Value* len_ptr = EntryAlloca(b_.getInt64Ty());
                cv.kind = TypeKind::kString;
                cv.v = b_.CreateCall(Helper("proteus_csv_str", i8p,
                                            {i8p, b_.getInt64Ty(), b_.getInt32Ty(),
                                             b_.getInt64Ty()->getPointerTo()}),
                                     {pp, oid, col, len_ptr});
                cv.len = b_.CreateLoad(b_.getInt64Ty(), len_ptr);
              } else if (kind == TypeKind::kFloat64) {
                cv.kind = kind;
                cv.v = b_.CreateCall(Helper("proteus_csv_double", b_.getDoubleTy(),
                                            {i8p, b_.getInt64Ty(), b_.getInt32Ty()}),
                                     {pp, oid, col});
              } else {
                cv.kind = TypeKind::kInt64;
                cv.v = b_.CreateCall(Helper("proteus_csv_int", b_.getInt64Ty(),
                                            {i8p, b_.getInt64Ty(), b_.getInt32Ty()}),
                                     {pp, oid, col});
              }
            } else {
              return Status::Unimplemented("jit: hybrid cache read from binary source");
            }
          } else {
            return Status::Unimplemented("jit: cache miss for field " + Key(var, p));
          }
          bindings_[Key(var, p)] = cv;
        }
        return consume();
      });
}

// ---------------------------------------------------------------------------
// Unnest
// ---------------------------------------------------------------------------

Status Codegen::EmitUnnest(const OpPtr& op, const Consume& consume) {
  const FieldPath& p = op->unnest_path();
  const std::string& src_var = p[0];
  const std::string& elem_var = op->binding();
  uint32_t slot = unnest_ids_.at(op.get());

  return EmitProduce(op->child(0), [&]() -> Status {
    // The source may be a raw JSON scan or a cache scan over a JSON dataset
    // (the cached OID addresses the original file's structural index).
    auto src_it = sources_.find(src_var);
    if (src_it == sources_.end() || src_it->second.plugin == nullptr ||
        src_it->second.plugin->info().format != DataFormat::kJSON) {
      return Status::Unimplemented("jit: unnest source must be a JSON scan");
    }
    auto oid_it = oids_.find(src_var);
    if (oid_it == oids_.end()) return Status::Unimplemented("jit: unnest without OID");
    llvm::Value* pp = ParamPtr(DataParam(jit::ParamKind::kPluginPtr, src_it->second.dataset));
    llvm::Value* oid = oid_it->second;
    FieldPath rel(p.begin() + 1, p.end());
    llvm::Value* h = b_.getInt64(HashString(DottedPath(rel)));
    auto* i8p = b_.getInt8PtrTy();
    auto* voidty = b_.getVoidTy();
    llvm::Value* slot_v = b_.getInt32(slot);

    b_.CreateCall(Helper("proteus_unnest_init", voidty,
                         {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                  {CtxPtr(), slot_v, pp, oid, h});

    // Element paths read above this op, with their primitive kinds (shared
    // by the loop body and the outer null-element branch).
    TypePtr elem_t = var_types_.at(elem_var);
    auto needed_it = needed_.find(elem_var);
    std::vector<FieldPath> paths =
        needed_it == needed_.end() ? std::vector<FieldPath>{} : needed_it->second;
    std::vector<TypeKind> path_kinds;
    for (const auto& ep : paths) {
      if (ep.size() > 1) return Status::Unimplemented("jit: deep path inside array element");
      if (ep.empty()) {
        if (!elem_t->is_primitive()) {
          return Status::Unimplemented("jit: whole-record element use");
        }
        path_kinds.push_back(elem_t->kind() == TypeKind::kDate ? TypeKind::kInt64
                                                               : elem_t->kind());
      } else {
        PROTEUS_ASSIGN_OR_RETURN(TypeKind k, LeafKind(elem_var, ep));
        path_kinds.push_back(k);
      }
    }

    auto* cond_bb = llvm::BasicBlock::Create(*llctx_, "unnest.cond", fn_);
    auto* body_bb = llvm::BasicBlock::Create(*llctx_, "unnest.body", fn_);
    auto* exit_bb = llvm::BasicBlock::Create(*llctx_, "unnest.exit", fn_);

    if (op->outer()) {
      // Empty (or absent) collection: emit the outer row once with a null
      // element, bypassing the unnest predicate — the interpreter's
      // pending-outer-emit rule.
      auto* none_bb = llvm::BasicBlock::Create(*llctx_, "unnest.none", fn_);
      auto* enter_bb = llvm::BasicBlock::Create(*llctx_, "unnest.enter", fn_);
      llvm::Value* has0 = b_.CreateCall(
          Helper("proteus_unnest_has_next", b_.getInt32Ty(), {i8p, b_.getInt32Ty()}),
          {CtxPtr(), slot_v});
      b_.CreateCondBr(b_.CreateICmpNE(has0, b_.getInt32(0)), enter_bb, none_bb);
      b_.SetInsertPoint(none_bb);
      for (size_t i = 0; i < paths.size(); ++i) {
        bindings_[Key(elem_var, paths[i])] = NullValue(path_kinds[i]);
      }
      PROTEUS_RETURN_NOT_OK(consume());
      b_.CreateBr(exit_bb);
      b_.SetInsertPoint(enter_bb);
    }

    b_.CreateBr(cond_bb);
    b_.SetInsertPoint(cond_bb);
    llvm::Value* has =
        b_.CreateCall(Helper("proteus_unnest_has_next", b_.getInt32Ty(), {i8p, b_.getInt32Ty()}),
                      {CtxPtr(), slot_v});
    b_.CreateCondBr(b_.CreateICmpNE(has, b_.getInt32(0)), body_bb, exit_bb);
    b_.SetInsertPoint(body_bb);

    // Bind the element fields used above.
    for (size_t pi = 0; pi < paths.size(); ++pi) {
      const FieldPath& ep = paths[pi];
      CgValue cv;
      TypeKind kind = path_kinds[pi];
      llvm::Value* name;
      llvm::Value* name_len;
      if (ep.empty()) {
        name = GlobalString("");
        name_len = b_.getInt64(0);
      } else {
        name = GlobalString(ep[0]);
        name_len = b_.getInt64(static_cast<int64_t>(ep[0].size()));
      }
      cv.kind = kind;
      if (kind == TypeKind::kInt64) {
        cv.v = b_.CreateCall(Helper("proteus_unnest_elem_int", b_.getInt64Ty(),
                                    {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty()}),
                             {CtxPtr(), slot_v, name, name_len});
      } else if (kind == TypeKind::kFloat64) {
        cv.v = b_.CreateCall(Helper("proteus_unnest_elem_double", b_.getDoubleTy(),
                                    {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty()}),
                             {CtxPtr(), slot_v, name, name_len});
      } else if (kind == TypeKind::kBool) {
        llvm::Value* i = b_.CreateCall(Helper("proteus_unnest_elem_int", b_.getInt64Ty(),
                                              {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty()}),
                                       {CtxPtr(), slot_v, name, name_len});
        cv.v = b_.CreateICmpNE(i, b_.getInt64(0));
      } else {
        llvm::Value* len_ptr = EntryAlloca(b_.getInt64Ty());
        cv.v = b_.CreateCall(Helper("proteus_unnest_elem_str", i8p,
                                    {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty(),
                                     b_.getInt64Ty()->getPointerTo()}),
                             {CtxPtr(), slot_v, name, name_len, len_ptr});
        cv.len = b_.CreateLoad(b_.getInt64Ty(), len_ptr);
      }
      bindings_[Key(elem_var, ep)] = cv;
    }

    PROTEUS_RETURN_NOT_OK(EmitFilter(op->pred(), consume));

    b_.CreateCall(Helper("proteus_unnest_advance", voidty, {i8p, b_.getInt32Ty()}),
                  {CtxPtr(), slot_v});
    b_.CreateBr(cond_bb);
    b_.SetInsertPoint(exit_bb);
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

Status Codegen::EmitJoin(const OpPtr& op, const Consume& consume) {
  PROTEUS_RETURN_NOT_OK(EmitJoinBuild(*op));
  return EmitJoinProbe(*op, consume);
}

Status Codegen::EmitJoinBuild(const Operator& op) {
  // Determine the build-side payload: all needed paths of build-side vars.
  std::vector<std::string> build_vars;
  CollectBoundVars(op.child(0), &build_vars);
  // Vars whose bindings can carry a SQL-null flag at build time: outer
  // unnest elements, and JSON join-key reads (has-checked). The predicate is
  // static per (var, path), so nested joins inside the build subtree predict
  // their rebinds' nullability consistently.
  std::unordered_set<std::string> outer_unnest_vars;
  {
    std::function<void(const OpPtr&)> walk = [&](const OpPtr& o) {
      if (o->kind() == OpKind::kUnnest && o->outer()) outer_unnest_vars.insert(o->binding());
      for (const auto& c : o->children()) walk(c);
    };
    walk(op.child(0));
  }
  auto field_nullable = [&](const std::string& var, const FieldPath& path) {
    if (outer_unnest_vars.count(var) != 0) return true;
    auto it = sources_.find(var);
    return it != sources_.end() && it->second.format == DataFormat::kJSON &&
           key_paths_.count(Key(var, path)) != 0;
  };
  std::vector<PayloadField> payload;
  uint32_t slots = 0;
  int null_bits = 0;
  for (const auto& var : build_vars) {
    auto it = needed_.find(var);
    if (it == needed_.end()) continue;
    // Dedup paths.
    std::vector<FieldPath> uniq = it->second;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (const auto& path : uniq) {
      if (path.empty()) return Status::Unimplemented("jit: whole-record join payload");
      PROTEUS_ASSIGN_OR_RETURN(TypeKind kind, LeafKind(var, path));
      payload.push_back({var, path, kind, slots});
      if (field_nullable(var, path)) payload.back().null_bit = null_bits++;
      slots += (kind == TypeKind::kString) ? 2 : 1;
    }
  }
  if (null_bits > 64) return Status::Unimplemented("jit: > 64 nullable join payload fields");
  // Nullable fields round-trip their null flag through one extra mask slot,
  // so a drained (or probed) row rebinds SQL nulls exactly where the
  // interpreter's boxed row holds them.
  int null_slot = -1;
  if (null_bits > 0) null_slot = static_cast<int>(slots++);
  if (slots == 0) slots = 1;  // keep payload pointers distinguishable from null
  // The optimizer's strategy annotation picks the table's bucket layout
  // (shared vs radix-partitioned); the flag is baked into the module's
  // RuntimeLayout, which is why the strategy is part of the cache key.
  uint32_t table =
      layout_->AddJoin(slots, op.join_strategy() == JoinStrategy::kPartitioned);
  join_ids_[&op] = table;
  join_payloads_[&op] = payload;
  join_null_slots_[&op] = null_slot;
  auto* i8p = b_.getInt8PtrTy();
  auto* i64p = b_.getInt64Ty()->getPointerTo();
  llvm::Value* table_v = b_.getInt32(table);

  llvm::Value* pay_buf = EntryAlloca(b_.getInt64Ty(), b_.getInt32(slots), "payload");
  PROTEUS_RETURN_NOT_OK(EmitProduce(op.child(0), [&]() -> Status {
    CgValue key;
    if (op.left_key() != nullptr) {
      PROTEUS_ASSIGN_OR_RETURN(key, EmitExpr(op.left_key()));
      if (key.kind == TypeKind::kFloat64 || key.kind == TypeKind::kString) {
        return Status::Unimplemented("jit: non-integer join key");
      }
    }
    // Payload slots hold the raw 8-byte values; nullable fields fold their
    // null flag into the trailing mask slot so rebinds restore it.
    llvm::Value* mask = null_slot >= 0 ? b_.getInt64(0) : nullptr;
    for (const auto& f : payload) {
      const CgValue& cv = bindings_.at(Key(f.var, f.path));
      if (cv.null != nullptr && f.null_bit < 0) {
        return Status::Internal("jit: unpredicted nullable join payload field " +
                                Key(f.var, f.path));
      }
      if (f.null_bit >= 0 && cv.null != nullptr) {
        mask = b_.CreateOr(
            mask, b_.CreateShl(b_.CreateZExt(cv.null, b_.getInt64Ty()),
                               b_.getInt64(static_cast<uint64_t>(f.null_bit))));
      }
      llvm::Value* slot_ptr = b_.CreateGEP(b_.getInt64Ty(), pay_buf, b_.getInt32(f.slot));
      if (f.kind == TypeKind::kFloat64) {
        b_.CreateStore(b_.CreateBitCast(cv.v, b_.getInt64Ty()), slot_ptr);
      } else if (f.kind == TypeKind::kString) {
        b_.CreateStore(b_.CreatePtrToInt(cv.v, b_.getInt64Ty()), slot_ptr);
        llvm::Value* slot2 = b_.CreateGEP(b_.getInt64Ty(), pay_buf, b_.getInt32(f.slot + 1));
        b_.CreateStore(cv.len, slot2);
      } else if (f.kind == TypeKind::kBool) {
        b_.CreateStore(b_.CreateZExt(cv.v, b_.getInt64Ty()), slot_ptr);
      } else {
        b_.CreateStore(cv.v, slot_ptr);
      }
    }
    if (null_slot >= 0) {
      b_.CreateStore(mask, b_.CreateGEP(b_.getInt64Ty(), pay_buf, b_.getInt32(null_slot)));
    }
    if (op.left_key() == nullptr) {
      // Non-equi join: no key, no radix entries. Every build row lands in
      // the frozen payload vector (the insert_null path keeps payload
      // without a hash entry); the probe side enumerates all of them — the
      // interpreter's nested loop — applying op.pred() per pair.
      b_.CreateCall(Helper("proteus_join_insert_null", b_.getVoidTy(),
                           {i8p, b_.getInt32Ty(), i64p}),
                    {CtxPtr(), table_v, pay_buf});
      return Status::OK();
    }
    auto insert = [&]() {
      b_.CreateCall(Helper("proteus_join_insert", b_.getVoidTy(),
                           {i8p, b_.getInt32Ty(), b_.getInt64Ty(), i64p}),
                    {CtxPtr(), table_v, key.v, pay_buf});
    };
    if (key.null == nullptr) {
      insert();
      return Status::OK();
    }
    // Null build keys never enter the radix table (they can't match). An
    // outer join still keeps the row so the unmatched drain emits it — the
    // interpreter's exact rule at its build phase.
    auto* ins_bb = llvm::BasicBlock::Create(*llctx_, "build.ins", fn_);
    auto* nullk_bb = llvm::BasicBlock::Create(*llctx_, "build.nullkey", fn_);
    auto* merge_bb = llvm::BasicBlock::Create(*llctx_, "build.merge", fn_);
    b_.CreateCondBr(key.null, nullk_bb, ins_bb);
    b_.SetInsertPoint(ins_bb);
    insert();
    b_.CreateBr(merge_bb);
    b_.SetInsertPoint(nullk_bb);
    if (op.outer()) {
      b_.CreateCall(Helper("proteus_join_insert_null", b_.getVoidTy(),
                           {i8p, b_.getInt32Ty(), i64p}),
                    {CtxPtr(), table_v, pay_buf});
    }
    b_.CreateBr(merge_bb);
    b_.SetInsertPoint(merge_bb);
    return Status::OK();
  }));

  if (op.left_key() != nullptr) {
    b_.CreateCall(Helper("proteus_join_build", b_.getVoidTy(), {i8p, b_.getInt32Ty()}),
                  {CtxPtr(), table_v});
  }
  return Status::OK();
}

void Codegen::RebindPayload(const Operator& op, llvm::Value* row_ptr) {
  const std::vector<PayloadField>& payload = join_payloads_.at(&op);
  const int null_slot = join_null_slots_.at(&op);
  auto* i8p = b_.getInt8PtrTy();
  llvm::Value* mask = nullptr;
  if (null_slot >= 0) {
    mask = b_.CreateLoad(b_.getInt64Ty(),
                         b_.CreateGEP(b_.getInt64Ty(), row_ptr, b_.getInt32(null_slot)));
  }
  for (const auto& f : payload) {
    CgValue cv;
    cv.kind = f.kind;
    llvm::Value* slot_ptr = b_.CreateGEP(b_.getInt64Ty(), row_ptr, b_.getInt32(f.slot));
    llvm::Value* raw = b_.CreateLoad(b_.getInt64Ty(), slot_ptr);
    if (f.kind == TypeKind::kFloat64) {
      cv.v = b_.CreateBitCast(raw, b_.getDoubleTy());
    } else if (f.kind == TypeKind::kString) {
      cv.v = b_.CreateIntToPtr(raw, i8p);
      llvm::Value* slot2 = b_.CreateGEP(b_.getInt64Ty(), row_ptr, b_.getInt32(f.slot + 1));
      cv.len = b_.CreateLoad(b_.getInt64Ty(), slot2);
    } else if (f.kind == TypeKind::kBool) {
      cv.v = b_.CreateICmpNE(raw, b_.getInt64(0));
    } else {
      cv.v = raw;
    }
    if (f.null_bit >= 0) {
      cv.null = b_.CreateICmpNE(
          b_.CreateAnd(b_.CreateLShr(mask, b_.getInt64(static_cast<uint64_t>(f.null_bit))),
                       b_.getInt64(1)),
          b_.getInt64(0));
    }
    bindings_[Key(f.var, f.path)] = cv;
  }
}

Status Codegen::EmitJoinProbe(const Operator& op, const Consume& consume) {
  if (&op == drain_join_) return EmitJoinDrain(op, consume);
  uint32_t table = join_ids_.at(&op);
  auto* i8p = b_.getInt8PtrTy();
  auto* i64p = b_.getInt64Ty()->getPointerTo();
  llvm::Value* table_v = b_.getInt32(table);

  return EmitProduce(op.child(1), [&]() -> Status {
    if (op.left_key() == nullptr) {
      // Non-equi join: nested loop over the frozen build rows, in build
      // order — exactly the interpreter's FindJoinMatches without a key
      // (matches = 0..n-1), with the full join predicate as the filter.
      llvm::Value* n = b_.CreateCall(
          Helper("proteus_join_rows", b_.getInt64Ty(), {i8p, b_.getInt32Ty()}),
          {CtxPtr(), table_v});
      return EmitCountedLoop(n, [&](llvm::Value* row) -> Status {
        llvm::Value* row_ptr = b_.CreateCall(
            Helper("proteus_join_payload_at", i64p, {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
            {CtxPtr(), table_v, row});
        RebindPayload(op, row_ptr);
        return EmitFilter(op.pred(), [&]() -> Status {
          if (op.outer()) {
            b_.CreateCall(Helper("proteus_sink_join_matched", b_.getVoidTy(),
                                 {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
                          {SinkPtr(), table_v, row});
          }
          return consume();
        });
      });
    }
    PROTEUS_ASSIGN_OR_RETURN(CgValue key, EmitExpr(op.right_key()));
    llvm::Value* match_ptr = EntryAlloca(i64p, nullptr, "match");
    auto probe_first = [&]() {
      return b_.CreateCall(
          Helper("proteus_join_probe_first", i64p, {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
          {CtxPtr(), table_v, key.v});
    };
    if (key.null == nullptr) {
      b_.CreateStore(probe_first(), match_ptr);
    } else {
      // Null probe keys match nothing (interpreter: FindJoinMatches returns
      // the empty set) — skip the probe call entirely.
      b_.CreateStore(llvm::ConstantPointerNull::get(i64p), match_ptr);
      auto* probe_bb = llvm::BasicBlock::Create(*llctx_, "probe.key", fn_);
      auto* start_bb = llvm::BasicBlock::Create(*llctx_, "probe.start", fn_);
      b_.CreateCondBr(key.null, start_bb, probe_bb);
      b_.SetInsertPoint(probe_bb);
      b_.CreateStore(probe_first(), match_ptr);
      b_.CreateBr(start_bb);
      b_.SetInsertPoint(start_bb);
    }
    auto* cond_bb = llvm::BasicBlock::Create(*llctx_, "probe.cond", fn_);
    auto* body_bb = llvm::BasicBlock::Create(*llctx_, "probe.body", fn_);
    auto* exit_bb = llvm::BasicBlock::Create(*llctx_, "probe.exit", fn_);
    b_.CreateBr(cond_bb);
    b_.SetInsertPoint(cond_bb);
    llvm::Value* cur = b_.CreateLoad(i64p, match_ptr);
    b_.CreateCondBr(b_.CreateIsNotNull(cur), body_bb, exit_bb);
    b_.SetInsertPoint(body_bb);

    RebindPayload(op, cur);

    // Residual predicate (the equi-conjunct re-evaluates to true); outer
    // joins then record the matched build row in this partial's bitmap —
    // after the predicate, before downstream ops, like the interpreter.
    PROTEUS_RETURN_NOT_OK(EmitFilter(op.pred(), [&]() -> Status {
      if (op.outer()) {
        llvm::Value* row = b_.CreateCall(
            Helper("proteus_join_probe_row", b_.getInt64Ty(), {i8p, b_.getInt32Ty()}),
            {CtxPtr(), table_v});
        b_.CreateCall(Helper("proteus_sink_join_matched", b_.getVoidTy(),
                             {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
                      {SinkPtr(), table_v, row});
      }
      return consume();
    }));

    llvm::Value* next =
        b_.CreateCall(Helper("proteus_join_probe_next", i64p, {i8p, b_.getInt32Ty()}),
                      {CtxPtr(), table_v});
    b_.CreateStore(next, match_ptr);
    b_.CreateBr(cond_bb);
    b_.SetInsertPoint(exit_bb);
    return Status::OK();
  });
}

Status Codegen::EmitJoinDrain(const Operator& op, const Consume& consume) {
  uint32_t table = join_ids_.at(&op);
  auto* i8p = b_.getInt8PtrTy();
  auto* i64p = b_.getInt64Ty()->getPointerTo();
  llvm::Value* table_v = b_.getInt32(table);

  llvm::Value* n = b_.CreateCall(
      Helper("proteus_join_rows", b_.getInt64Ty(), {i8p, b_.getInt32Ty()}),
      {CtxPtr(), table_v});
  return EmitCountedLoop(n, [&](llvm::Value* row) -> Status {
    llvm::Value* byte = b_.CreateLoad(
        b_.getInt8Ty(), b_.CreateGEP(b_.getInt8Ty(), drain_matched_arg_, row));
    auto* unmatched_bb = llvm::BasicBlock::Create(*llctx_, "drain.row", fn_);
    auto* merge_bb = llvm::BasicBlock::Create(*llctx_, "drain.merge", fn_);
    b_.CreateCondBr(b_.CreateICmpEQ(byte, b_.getInt8(0)), unmatched_bb, merge_bb);
    b_.SetInsertPoint(unmatched_bb);

    llvm::Value* row_ptr = b_.CreateCall(
        Helper("proteus_join_payload_at", i64p, {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
        {CtxPtr(), table_v, row});
    RebindPayload(op, row_ptr);

    // The probe side is absent: bind every field the plan reads from it to
    // SQL null (the interpreter nulls the probe-side vars of drained rows).
    std::vector<std::string> right_vars;
    CollectBoundVars(op.child(1), &right_vars);
    for (const auto& var : right_vars) {
      auto it = needed_.find(var);
      if (it == needed_.end()) continue;
      for (const auto& path : it->second) {
        auto lk = LeafKind(var, path);
        if (!lk.ok()) continue;  // collection paths: ops needing them bail elsewhere
        bindings_[Key(var, path)] = NullValue(*lk);
      }
    }

    // Drained rows bypass the join predicate (they matched nothing), but
    // every op above the join still applies — `consume` is that chain.
    PROTEUS_RETURN_NOT_OK(consume());
    b_.CreateBr(merge_bb);
    b_.SetInsertPoint(merge_bb);
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Nest
// ---------------------------------------------------------------------------

Status Codegen::EmitNestFold(const Operator& op) {
  // Agg slot layout + init values.
  std::vector<TypeKind> slot_kinds;
  std::vector<int64_t> init;
  for (const auto& o : op.outputs()) {
    PROTEUS_ASSIGN_OR_RETURN(TypeKind k, NestSlotKind(o));
    slot_kinds.push_back(k);
    int64_t zero = 0;
    if (o.monoid == Monoid::kMax) {
      if (k == TypeKind::kFloat64) {
        double d = -std::numeric_limits<double>::infinity();
        std::memcpy(&zero, &d, 8);
      } else {
        zero = std::numeric_limits<int64_t>::min();
      }
    } else if (o.monoid == Monoid::kMin) {
      if (k == TypeKind::kFloat64) {
        double d = std::numeric_limits<double>::infinity();
        std::memcpy(&zero, &d, 8);
      } else {
        zero = std::numeric_limits<int64_t>::max();
      }
    }
    init.push_back(zero);
  }

  if (!op.group_by()->type()) return Status::Internal("jit: un-typechecked group key");
  const bool string_keys = op.group_by()->type()->kind() == TypeKind::kString;
  uint32_t table = layout_->AddGroup(string_keys, init);
  group_ids_[&op] = table;
  auto* i8p = b_.getInt8PtrTy();
  auto* i64p = b_.getInt64Ty()->getPointerTo();
  llvm::Value* table_v = b_.getInt32(table);
  // Rows folded so far: the cancel flag is polled every kDefaultMorselRows
  // of them (the fold is one morsel, so it has no boundary of its own).
  llvm::Value* folded = EntryCounter("folded");

  Consume update = [&]() -> Status {
    llvm::Value* n = b_.CreateLoad(b_.getInt64Ty(), folded);
    b_.CreateStore(b_.CreateAdd(n, b_.getInt64(1)), folded);
    auto* poll_bb = llvm::BasicBlock::Create(*llctx_, "fold.poll", fn_);
    auto* cancel_bb = llvm::BasicBlock::Create(*llctx_, "fold.cancel", fn_);
    auto* row_bb = llvm::BasicBlock::Create(*llctx_, "fold.row", fn_);
    b_.CreateCondBr(
        b_.CreateICmpEQ(b_.CreateURem(n, b_.getInt64(kDefaultMorselRows)), b_.getInt64(0)),
        poll_bb, row_bb);
    b_.SetInsertPoint(poll_bb);
    llvm::Value* cancelled = b_.CreateCall(
        Helper("proteus_cancel_requested", b_.getInt32Ty(), {i8p}), {CtxPtr()});
    b_.CreateCondBr(b_.CreateICmpNE(cancelled, b_.getInt32(0)), cancel_bb, row_bb);
    // A cancelled fold abandons the whole function; the host reports the
    // cancellation before reading any table.
    b_.SetInsertPoint(cancel_bb);
    b_.CreateRetVoid();
    b_.SetInsertPoint(row_bb);

    PROTEUS_ASSIGN_OR_RETURN(CgValue key, EmitExpr(op.group_by()));
    if (key.null != nullptr) {
      // The packed int64/string group table cannot represent a null key;
      // only nests directly under the root (boxed-Value group tables) can.
      return Status::Unimplemented("jit: nullable group key in a mid-chain nest");
    }
    llvm::Value* slots;
    if (string_keys) {
      slots = b_.CreateCall(Helper("proteus_group_upsert_str", i64p,
                                   {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty()}),
                            {CtxPtr(), table_v, key.v, key.len});
    } else {
      // Float keys round-trip through the int64 key slot as their raw bit
      // pattern — grouping on bit equality, which the group loop bitcasts
      // back to a double binding.
      llvm::Value* k64;
      if (key.kind == TypeKind::kBool) {
        k64 = b_.CreateZExt(key.v, b_.getInt64Ty());
      } else if (key.kind == TypeKind::kFloat64) {
        k64 = b_.CreateBitCast(key.v, b_.getInt64Ty());
      } else {
        k64 = key.v;
      }
      slots = b_.CreateCall(Helper("proteus_group_upsert", i64p,
                                   {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
                            {CtxPtr(), table_v, k64});
    }
    for (size_t i = 0; i < op.outputs().size(); ++i) {
      const AggOutput& o = op.outputs()[i];
      llvm::Value* slot_ptr = b_.CreateGEP(b_.getInt64Ty(), slots, b_.getInt32((uint32_t)i));
      llvm::Value* raw = b_.CreateLoad(b_.getInt64Ty(), slot_ptr);
      llvm::Value* updated;
      if (o.monoid == Monoid::kCount) {
        updated = b_.CreateAdd(raw, b_.getInt64(1));
      } else {
        PROTEUS_ASSIGN_OR_RETURN(CgValue v, EmitExpr(o.expr));
        if (slot_kinds[i] == TypeKind::kFloat64) {
          llvm::Value* acc = b_.CreateBitCast(raw, b_.getDoubleTy());
          llvm::Value* x = ToDouble(v);
          llvm::Value* res;
          if (o.monoid == Monoid::kSum) {
            res = b_.CreateFAdd(acc, x);
          } else if (o.monoid == Monoid::kMax) {
            res = b_.CreateSelect(b_.CreateFCmpOGT(x, acc), x, acc);
          } else {
            res = b_.CreateSelect(b_.CreateFCmpOLT(x, acc), x, acc);
          }
          updated = b_.CreateBitCast(res, b_.getInt64Ty());
        } else {
          llvm::Value* x = v.kind == TypeKind::kBool ? b_.CreateZExt(v.v, b_.getInt64Ty())
                                                     : v.v;
          if (o.monoid == Monoid::kSum) {
            updated = b_.CreateAdd(raw, x);
          } else if (o.monoid == Monoid::kMax) {
            updated = b_.CreateSelect(b_.CreateICmpSGT(x, raw), x, raw);
          } else {
            updated = b_.CreateSelect(b_.CreateICmpSLT(x, raw), x, raw);
          }
        }
        if (v.null != nullptr) {
          // Null inputs do not contribute to aggregates (Eval semantics).
          updated = b_.CreateSelect(v.null, raw, updated);
        }
      }
      b_.CreateStore(updated, slot_ptr);
    }
    return Status::OK();
  };
  return EmitProduce(op.child(0), [&]() { return EmitFilter(op.pred(), update); });
}

Status Codegen::EmitNestGroups(const Operator& op, llvm::Value* lo, llvm::Value* hi,
                               const Consume& consume) {
  const TypeKind key_kind = op.group_by()->type()->kind();
  auto* i8p = b_.getInt8PtrTy();
  auto* i64p = b_.getInt64Ty()->getPointerTo();
  llvm::Value* table_v = b_.getInt32(group_ids_.at(&op));
  const std::string& gvar = NestBinding(op);
  // Only fields some expression reads are bound: a group-key or slot read
  // is a runtime call the optimizer cannot drop.
  auto needed = [&](const std::string& field) {
    auto it = needed_.find(gvar);
    return it != needed_.end() &&
           std::find(it->second.begin(), it->second.end(), FieldPath{field}) != it->second.end();
  };
  bool any_output = false;
  for (const auto& o : op.outputs()) any_output = any_output || needed(o.name);
  return EmitRangeLoop(lo, hi, [&](llvm::Value* g) -> Status {
    if (needed(op.group_name())) {
      CgValue keyv;
      if (key_kind == TypeKind::kString) {
        llvm::Value* len_ptr = EntryAlloca(b_.getInt64Ty());
        keyv.kind = TypeKind::kString;
        keyv.v = b_.CreateCall(Helper("proteus_group_key_str", i8p,
                                      {i8p, b_.getInt32Ty(), b_.getInt64Ty(),
                                       b_.getInt64Ty()->getPointerTo()}),
                               {CtxPtr(), table_v, g, len_ptr});
        keyv.len = b_.CreateLoad(b_.getInt64Ty(), len_ptr);
      } else {
        llvm::Value* raw = b_.CreateCall(Helper("proteus_group_key", b_.getInt64Ty(),
                                                {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
                                         {CtxPtr(), table_v, g});
        if (key_kind == TypeKind::kBool) {
          keyv.kind = TypeKind::kBool;
          keyv.v = b_.CreateICmpNE(raw, b_.getInt64(0));
        } else if (key_kind == TypeKind::kFloat64) {
          keyv.kind = TypeKind::kFloat64;
          keyv.v = b_.CreateBitCast(raw, b_.getDoubleTy());
        } else {
          keyv.kind = TypeKind::kInt64;
          keyv.v = raw;
        }
      }
      bindings_[Key(gvar, {op.group_name()})] = keyv;
    }
    if (any_output) {
      llvm::Value* slots = b_.CreateCall(
          Helper("proteus_group_slots", i64p, {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
          {CtxPtr(), table_v, g});
      for (size_t i = 0; i < op.outputs().size(); ++i) {
        const AggOutput& o = op.outputs()[i];
        PROTEUS_ASSIGN_OR_RETURN(TypeKind k, NestSlotKind(o));
        llvm::Value* raw = b_.CreateLoad(
            b_.getInt64Ty(), b_.CreateGEP(b_.getInt64Ty(), slots, b_.getInt32((uint32_t)i)));
        CgValue cv;
        cv.kind = k;
        cv.v = k == TypeKind::kFloat64 ? b_.CreateBitCast(raw, b_.getDoubleTy()) : raw;
        bindings_[Key(gvar, {o.name})] = cv;
      }
    }
    return consume();
  });
}

// ---------------------------------------------------------------------------
// Dispatch + root
// ---------------------------------------------------------------------------

Status Codegen::EmitProduce(const OpPtr& op, const Consume& consume) {
  switch (op->kind()) {
    case OpKind::kScan:
      return EmitScan(op, consume);
    case OpKind::kCacheScan:
      return EmitCacheScan(op, consume);
    case OpKind::kSelect:
      return EmitProduce(op->child(0), [&]() { return EmitFilter(op->pred(), consume); });
    case OpKind::kUnnest:
      return EmitUnnest(op, consume);
    case OpKind::kJoin:
      // Chain joins built their tables once in proteus_build; the pipeline
      // function only probes them.
      if (chain_joins_.count(op.get()) != 0) return EmitJoinProbe(*op, consume);
      return EmitJoin(op, consume);
    case OpKind::kNest: {
      // A Nest driver leaf folded once in proteus_build; the pipeline
      // function loops its morsel's groups. Nests in build subtrees fold and
      // loop in place.
      if (op.get() == driver_leaf_) return EmitNestGroups(*op, begin_arg_, end_arg_, consume);
      PROTEUS_RETURN_NOT_OK(EmitNestFold(*op));
      llvm::Value* count = b_.CreateCall(
          Helper("proteus_group_count", b_.getInt64Ty(), {b_.getInt8PtrTy(), b_.getInt32Ty()}),
          {CtxPtr(), b_.getInt32(group_ids_.at(op.get()))});
      return EmitNestGroups(*op, b_.getInt64(0), count, consume);
    }
    case OpKind::kReduce:
      return Status::Internal("jit: nested Reduce");
  }
  return Status::Internal("jit: unknown operator");
}

/// Dispatches the Reduce root to its bag or scalar emitter — the one home of
/// the collection-root eligibility rule.
Status Codegen::EmitReduceRoot(const OpPtr& reduce) {
  const auto& outputs = reduce->outputs();
  bool is_bag = outputs.size() == 1 && IsCollectionMonoid(outputs[0].monoid);
  // Set roots ride the collection emitter: per-morsel sinks feed a kSet
  // Aggregator whose hash-indexed InsertSetItem dedups within the morsel,
  // and FinalizePlanPartials merges the partials in global morsel order —
  // the interpreter's exact fold, so first-appearance row order matches it
  // cell for cell.
  if (is_bag) return EmitBagReduce(reduce);
  return EmitScalarReduce(reduce);
}

/// Collection-monoid root: every emitted row is staged cell by cell and
/// boxed into the morsel's JitMorselSink accumulator.
Status Codegen::EmitBagReduce(const OpPtr& reduce) {
  const auto& outputs = reduce->outputs();
  auto* i8p = b_.getInt8PtrTy();
  const ExprPtr& head = outputs[0].expr;
  std::vector<ExprPtr> cols;
  if (head->kind() == ExprKind::kRecordCons) {
    result_columns_ = head->record_names();
    row_records_ = true;
    cols = head->children();
  } else {
    result_columns_ = {outputs[0].name};
    cols = {head};
  }
  llvm::Value* dst = SinkPtr();
  auto emit_row = [&]() -> Status {
    for (const auto& c : cols) {
      PROTEUS_ASSIGN_OR_RETURN(CgValue v, EmitExpr(c));
      llvm::BasicBlock* merge_bb = nullptr;
      if (v.null != nullptr) {
        // Null cells (outer-join drain / outer-unnest rows) box as
        // Value::Null, the cell the interpreter emits for them.
        auto* typed_bb = llvm::BasicBlock::Create(*llctx_, "emit.typed", fn_);
        auto* null_bb = llvm::BasicBlock::Create(*llctx_, "emit.null", fn_);
        merge_bb = llvm::BasicBlock::Create(*llctx_, "emit.merge", fn_);
        b_.CreateCondBr(v.null, null_bb, typed_bb);
        b_.SetInsertPoint(null_bb);
        b_.CreateCall(Helper("proteus_sink_emit_null", b_.getVoidTy(), {i8p}), {dst});
        b_.CreateBr(merge_bb);
        b_.SetInsertPoint(typed_bb);
      }
      if (v.kind == TypeKind::kInt64) {
        b_.CreateCall(Helper("proteus_sink_emit_int", b_.getVoidTy(), {i8p, b_.getInt64Ty()}),
                      {dst, v.v});
      } else if (v.kind == TypeKind::kFloat64) {
        b_.CreateCall(
            Helper("proteus_sink_emit_double", b_.getVoidTy(), {i8p, b_.getDoubleTy()}),
            {dst, v.v});
      } else if (v.kind == TypeKind::kBool) {
        b_.CreateCall(Helper("proteus_sink_emit_bool", b_.getVoidTy(), {i8p, b_.getInt32Ty()}),
                      {dst, b_.CreateZExt(v.v, b_.getInt32Ty())});
      } else {
        b_.CreateCall(
            Helper("proteus_sink_emit_str", b_.getVoidTy(), {i8p, i8p, b_.getInt64Ty()}),
            {dst, v.v, v.len});
      }
      if (merge_bb != nullptr) {
        b_.CreateBr(merge_bb);
        b_.SetInsertPoint(merge_bb);
      }
    }
    // No set-specific end: a set root's kSet Aggregator dedups on Add.
    b_.CreateCall(Helper("proteus_sink_emit_end", b_.getVoidTy(), {i8p}), {dst});
    return Status::OK();
  };
  return EmitProduce(reduce->child(0),
                     [&]() { return EmitFilter(reduce->pred(), emit_row); });
}

/// Scalar-aggregate root. Accumulators live in allocas (promoted to
/// registers); after the loop each register flushes into this morsel's
/// Aggregator partial with its contributing row count, so an accumulator
/// that saw no rows stays in the same empty state an interpreter partial
/// has — and finalizes to the same cell (null for max/min).
Status Codegen::EmitScalarReduce(const OpPtr& reduce) {
  const auto& outputs = reduce->outputs();
  auto* i8p = b_.getInt8PtrTy();
  struct Acc {
    llvm::Value* ptr;
    TypeKind kind;
    Monoid monoid;
  };
  std::vector<Acc> accs;
  for (const auto& o : outputs) {
    if (IsCollectionMonoid(o.monoid)) {
      return Status::Unimplemented("jit: mixed collection/aggregate outputs");
    }
    TypeKind k = TypeKind::kInt64;
    if (o.monoid != Monoid::kCount) {
      if (!o.expr->type()) return Status::Internal("jit: un-typechecked reduce output");
      TypeKind ek = o.expr->type()->kind();
      if (o.monoid == Monoid::kAnd || o.monoid == Monoid::kOr) {
        k = TypeKind::kBool;
      } else {
        k = ek == TypeKind::kFloat64 ? TypeKind::kFloat64 : TypeKind::kInt64;
      }
    }
    llvm::Type* ty = k == TypeKind::kFloat64 ? (llvm::Type*)b_.getDoubleTy()
                     : k == TypeKind::kBool  ? (llvm::Type*)b_.getInt1Ty()
                                             : (llvm::Type*)b_.getInt64Ty();
    llvm::Value* ptr = EntryAlloca(ty, nullptr, "acc");
    llvm::Value* zero;
    if (k == TypeKind::kFloat64) {
      double d = 0;
      if (o.monoid == Monoid::kMax) d = -std::numeric_limits<double>::infinity();
      if (o.monoid == Monoid::kMin) d = std::numeric_limits<double>::infinity();
      zero = llvm::ConstantFP::get(b_.getDoubleTy(), d);
    } else if (k == TypeKind::kBool) {
      zero = b_.getInt1(o.monoid == Monoid::kAnd);
    } else {
      int64_t z = 0;
      if (o.monoid == Monoid::kMax) z = std::numeric_limits<int64_t>::min();
      if (o.monoid == Monoid::kMin) z = std::numeric_limits<int64_t>::max();
      zero = b_.getInt64(z);
    }
    b_.CreateStore(zero, ptr);
    accs.push_back({ptr, k, o.monoid});
    result_columns_.push_back(o.name);
  }
  // Contributing-row counts for the flush: an accumulator that saw no
  // (non-null) input must stay in its empty state — the empty state, not a
  // zero value, is what merges as the identity, exactly like an interpreter
  // partial whose Add() calls were all skipped. Every row reaching the root
  // counts once in `rows`. Null inputs (outer-join drain rows, outer-unnest
  // rows) contribute to count but not to value monoids, so an output whose
  // input can be null also counts its skipped nulls — in a counter created
  // the first time such an input is emitted (no null was skipped before).
  llvm::Value* rows_ptr = EntryCounter("rows");
  std::vector<llvm::Value*> nulls_ptrs(outputs.size(), nullptr);

  auto update = [&]() -> Status {
    b_.CreateStore(b_.CreateAdd(b_.CreateLoad(b_.getInt64Ty(), rows_ptr), b_.getInt64(1)),
                   rows_ptr);
    for (size_t i = 0; i < outputs.size(); ++i) {
      const AggOutput& o = outputs[i];
      const Acc& a = accs[i];
      llvm::Type* ty = a.kind == TypeKind::kFloat64 ? (llvm::Type*)b_.getDoubleTy()
                       : a.kind == TypeKind::kBool  ? (llvm::Type*)b_.getInt1Ty()
                                                    : (llvm::Type*)b_.getInt64Ty();
      llvm::Value* cur = b_.CreateLoad(ty, a.ptr);
      llvm::Value* updated;
      if (o.monoid == Monoid::kCount) {
        updated = b_.CreateAdd(cur, b_.getInt64(1));
      } else {
        PROTEUS_ASSIGN_OR_RETURN(CgValue v, EmitExpr(o.expr));
        if (a.kind == TypeKind::kFloat64) {
          llvm::Value* x = ToDouble(v);
          if (o.monoid == Monoid::kSum) {
            updated = b_.CreateFAdd(cur, x);
          } else if (o.monoid == Monoid::kMax) {
            updated = b_.CreateSelect(b_.CreateFCmpOGT(x, cur), x, cur);
          } else {
            updated = b_.CreateSelect(b_.CreateFCmpOLT(x, cur), x, cur);
          }
        } else if (a.kind == TypeKind::kBool) {
          updated = o.monoid == Monoid::kAnd ? b_.CreateAnd(cur, v.v) : b_.CreateOr(cur, v.v);
        } else {
          if (o.monoid == Monoid::kSum) {
            updated = b_.CreateAdd(cur, v.v);
          } else if (o.monoid == Monoid::kMax) {
            updated = b_.CreateSelect(b_.CreateICmpSGT(v.v, cur), v.v, cur);
          } else {
            updated = b_.CreateSelect(b_.CreateICmpSLT(v.v, cur), v.v, cur);
          }
        }
        if (v.null != nullptr) {
          // Null inputs do not contribute (Aggregator::Add(null) is a no-op).
          updated = b_.CreateSelect(v.null, cur, updated);
          if (nulls_ptrs[i] == nullptr) nulls_ptrs[i] = EntryCounter("nulls");
          b_.CreateStore(b_.CreateAdd(b_.CreateLoad(b_.getInt64Ty(), nulls_ptrs[i]),
                                      b_.CreateZExt(v.null, b_.getInt64Ty())),
                         nulls_ptrs[i]);
        }
      }
      b_.CreateStore(updated, a.ptr);
    }
    return Status::OK();
  };

  PROTEUS_RETURN_NOT_OK(EmitProduce(reduce->child(0),
                                    [&]() { return EmitFilter(reduce->pred(), update); }));

  // Flush each register accumulator into this morsel's Aggregator partial.
  llvm::Value* all_rows = b_.CreateLoad(b_.getInt64Ty(), rows_ptr);
  for (size_t i = 0; i < accs.size(); ++i) {
    const Acc& a = accs[i];
    llvm::Value* idx = b_.getInt32(static_cast<uint32_t>(i));
    llvm::Value* rows =
        nulls_ptrs[i] == nullptr
            ? all_rows
            : b_.CreateSub(all_rows, b_.CreateLoad(b_.getInt64Ty(), nulls_ptrs[i]));
    if (a.kind == TypeKind::kFloat64) {
      llvm::Value* v = b_.CreateLoad(b_.getDoubleTy(), a.ptr);
      b_.CreateCall(Helper("proteus_sink_agg_flush_double", b_.getVoidTy(),
                           {i8p, b_.getInt32Ty(), b_.getDoubleTy(), b_.getInt64Ty()}),
                    {SinkPtr(), idx, v, rows});
    } else if (a.kind == TypeKind::kBool) {
      llvm::Value* v = b_.CreateLoad(b_.getInt1Ty(), a.ptr);
      b_.CreateCall(Helper("proteus_sink_agg_flush_bool", b_.getVoidTy(),
                           {i8p, b_.getInt32Ty(), b_.getInt32Ty(), b_.getInt64Ty()}),
                    {SinkPtr(), idx, b_.CreateZExt(v, b_.getInt32Ty()), rows});
    } else {
      llvm::Value* v = b_.CreateLoad(b_.getInt64Ty(), a.ptr);
      b_.CreateCall(Helper("proteus_sink_agg_flush_int", b_.getVoidTy(),
                           {i8p, b_.getInt32Ty(), b_.getInt64Ty(), b_.getInt64Ty()}),
                    {SinkPtr(), idx, v, rows});
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Morsel-mode roots
// ---------------------------------------------------------------------------

Status Codegen::EmitMorselRoot(const OpPtr& reduce, const Operator* nest) {
  if (nest != nullptr) return EmitNestMorsel(*nest);
  return EmitReduceRoot(reduce);
}

/// Nest directly under the root: per-row group upsert into this morsel's
/// GroupTable partial through the sink entry points. The merged groups
/// stream through the Reduce root in FinalizePlanPartials — the same code
/// the interpreter's parallel path runs — so group order and aggregate bits
/// match it exactly.
Status Codegen::EmitNestMorsel(const Operator& op) {
  auto* i8p = b_.getInt8PtrTy();
  if (!op.group_by()->type()) return Status::Internal("jit: un-typechecked group key");
  for (const auto& o : op.outputs()) {
    if (o.monoid != Monoid::kCount && !o.expr->type()) {
      return Status::Internal("jit: un-typechecked nest output");
    }
  }

  Consume update = [&]() -> Status {
    PROTEUS_ASSIGN_OR_RETURN(CgValue key, EmitExpr(op.group_by()));
    auto begin_typed = [&]() {
      if (key.kind == TypeKind::kString) {
        b_.CreateCall(Helper("proteus_sink_group_begin_str", b_.getVoidTy(),
                             {i8p, i8p, b_.getInt64Ty()}),
                      {SinkPtr(), key.v, key.len});
      } else if (key.kind == TypeKind::kBool) {
        b_.CreateCall(Helper("proteus_sink_group_begin_bool", b_.getVoidTy(),
                             {i8p, b_.getInt32Ty()}),
                      {SinkPtr(), b_.CreateZExt(key.v, b_.getInt32Ty())});
      } else if (key.kind == TypeKind::kFloat64) {
        // Float keys box through Value::Float — the interpreter's exact
        // group key, so hashing/equality/order cannot diverge from it.
        b_.CreateCall(Helper("proteus_sink_group_begin_double", b_.getVoidTy(),
                             {i8p, b_.getDoubleTy()}),
                      {SinkPtr(), key.v});
      } else {
        b_.CreateCall(Helper("proteus_sink_group_begin_int", b_.getVoidTy(),
                             {i8p, b_.getInt64Ty()}),
                      {SinkPtr(), key.v});
      }
    };
    if (key.null == nullptr) {
      begin_typed();
    } else {
      // The boxed group table holds Value::Null keys the same way the
      // interpreter's does (drain rows grouping on a probe-side field).
      auto* typed_bb = llvm::BasicBlock::Create(*llctx_, "group.key", fn_);
      auto* null_bb = llvm::BasicBlock::Create(*llctx_, "group.nullkey", fn_);
      auto* merge_bb = llvm::BasicBlock::Create(*llctx_, "group.merge", fn_);
      b_.CreateCondBr(key.null, null_bb, typed_bb);
      b_.SetInsertPoint(typed_bb);
      begin_typed();
      b_.CreateBr(merge_bb);
      b_.SetInsertPoint(null_bb);
      b_.CreateCall(Helper("proteus_sink_group_begin_null", b_.getVoidTy(), {i8p}),
                    {SinkPtr()});
      b_.CreateBr(merge_bb);
      b_.SetInsertPoint(merge_bb);
    }
    for (size_t i = 0; i < op.outputs().size(); ++i) {
      const AggOutput& o = op.outputs()[i];
      llvm::Value* idx = b_.getInt32(static_cast<uint32_t>(i));
      if (o.monoid == Monoid::kCount) {
        b_.CreateCall(Helper("proteus_sink_group_agg_count", b_.getVoidTy(),
                             {i8p, b_.getInt32Ty()}),
                      {SinkPtr(), idx});
        continue;
      }
      PROTEUS_ASSIGN_OR_RETURN(CgValue v, EmitExpr(o.expr));
      // Dispatch on the emitted kind so the boxed value the sink Add()s has
      // the same Value kind the interpreter's Eval() would produce. Null
      // inputs skip the call — Aggregator::Add(null) is a no-op anyway.
      llvm::BasicBlock* agg_merge = nullptr;
      if (v.null != nullptr) {
        auto* agg_bb = llvm::BasicBlock::Create(*llctx_, "group.agg", fn_);
        agg_merge = llvm::BasicBlock::Create(*llctx_, "group.agg.merge", fn_);
        b_.CreateCondBr(v.null, agg_merge, agg_bb);
        b_.SetInsertPoint(agg_bb);
      }
      if (v.kind == TypeKind::kFloat64) {
        b_.CreateCall(Helper("proteus_sink_group_agg_double", b_.getVoidTy(),
                             {i8p, b_.getInt32Ty(), b_.getDoubleTy()}),
                      {SinkPtr(), idx, v.v});
      } else if (v.kind == TypeKind::kBool) {
        b_.CreateCall(Helper("proteus_sink_group_agg_bool", b_.getVoidTy(),
                             {i8p, b_.getInt32Ty(), b_.getInt32Ty()}),
                      {SinkPtr(), idx, b_.CreateZExt(v.v, b_.getInt32Ty())});
      } else if (v.kind == TypeKind::kString) {
        b_.CreateCall(Helper("proteus_sink_group_agg_str", b_.getVoidTy(),
                             {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty()}),
                      {SinkPtr(), idx, v.v, v.len});
      } else {
        b_.CreateCall(Helper("proteus_sink_group_agg_int", b_.getVoidTy(),
                             {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
                      {SinkPtr(), idx, v.v});
      }
      if (agg_merge != nullptr) {
        b_.CreateBr(agg_merge);
        b_.SetInsertPoint(agg_merge);
      }
    }
    return Status::OK();
  };
  return EmitProduce(op.child(0), [&]() { return EmitFilter(op.pred(), update); });
}

// ---------------------------------------------------------------------------
// Compilation entry points
// ---------------------------------------------------------------------------

llvm::Function* Codegen::OpenFunction(const char* name, uint32_t ptr_args, uint32_t int_args) {
  std::vector<llvm::Type*> params;
  for (uint32_t i = 0; i < ptr_args; ++i) params.push_back(b_.getInt8PtrTy());
  for (uint32_t i = 0; i < int_args; ++i) params.push_back(b_.getInt64Ty());
  auto* fty = llvm::FunctionType::get(b_.getVoidTy(), params, false);
  fn_ = llvm::Function::Create(fty, llvm::Function::ExternalLinkage, name, module_.get());
  ctx_arg_ = fn_->getArg(0);
  // Every generated function takes the parameter table as its last pointer
  // argument. The entry block holds its i64* view plus the lazily inserted
  // param loads and allocas (before entry_term_, so they dominate the body).
  auto* entry = llvm::BasicBlock::Create(*llctx_, "entry", fn_);
  auto* body = llvm::BasicBlock::Create(*llctx_, "body", fn_);
  b_.SetInsertPoint(entry);
  params_arg_ = b_.CreateBitCast(fn_->getArg(ptr_args - 1),
                                 b_.getInt64Ty()->getPointerTo(), "params");
  entry_term_ = b_.CreateBr(body);
  b_.SetInsertPoint(body);
  // Per-function emission state: virtual buffers never cross functions, and
  // function-specific arguments must be re-set by the caller.
  bindings_.clear();
  oids_.clear();
  param_values_.clear();
  sink_arg_ = nullptr;
  begin_arg_ = nullptr;
  end_arg_ = nullptr;
  drain_matched_arg_ = nullptr;
  return fn_;
}

llvm::Value* Codegen::ParamI64(jit::ParamDesc desc) {
  uint32_t slot = params_->Slot(std::move(desc));
  auto it = param_values_.find(slot);
  if (it != param_values_.end()) return it->second;
  auto* saved_bb = b_.GetInsertBlock();
  auto saved_pt = b_.GetInsertPoint();
  b_.SetInsertPoint(entry_term_);
  llvm::Value* addr = b_.CreateConstInBoundsGEP1_64(b_.getInt64Ty(), params_arg_, slot);
  llvm::Value* v = b_.CreateLoad(b_.getInt64Ty(), addr);
  b_.SetInsertPoint(saved_bb, saved_pt);
  param_values_[slot] = v;
  return v;
}

llvm::Value* Codegen::EntryAlloca(llvm::Type* ty, llvm::Value* array_size, const char* name) {
  auto* saved_bb = b_.GetInsertBlock();
  auto saved_pt = b_.GetInsertPoint();
  b_.SetInsertPoint(entry_term_);
  llvm::Value* a = b_.CreateAlloca(ty, array_size, name);
  b_.SetInsertPoint(saved_bb, saved_pt);
  return a;
}

llvm::Value* Codegen::EntryCounter(const char* name) {
  llvm::Value* counter = EntryAlloca(b_.getInt64Ty(), nullptr, name);
  auto* saved_bb = b_.GetInsertBlock();
  auto saved_pt = b_.GetInsertPoint();
  b_.SetInsertPoint(entry_term_);
  b_.CreateStore(b_.getInt64(0), counter);
  b_.SetInsertPoint(saved_bb, saved_pt);
  return counter;
}

Status Codegen::CompileMorsel(const OpPtr& plan, const MorselPipeline& pipe) {
  if (plan->kind() != OpKind::kReduce) {
    return Status::InvalidArgument("jit: plan root must be Reduce");
  }
  // Chain context first: CheckSupported accepts outer joins only on the
  // main pipeline chain (their bitmaps + drain functions live there).
  driver_leaf_ = pipe.leaf;
  chain_joins_.insert(pipe.joins.begin(), pipe.joins.end());
  PROTEUS_RETURN_NOT_OK(CheckSupported(plan));
  CollectJoinKeyPaths(plan, &key_paths_);
  PROTEUS_RETURN_NOT_OK(Prepare(plan));

  const Operator* nest = RootNest(plan);

  // proteus_build(ctx, params): chain join build sides, each a
  // whole-relation pipeline run exactly once before the morsel fan-out, then
  // a Nest driver leaf's fold — serial, in row order, into the packed group
  // table whose groups the pipeline function's morsels then range over.
  // Build subtrees and the Nest's input may themselves contain joins or
  // nests — they emit fully in here.
  OpenFunction("proteus_build", /*ptr_args=*/2, /*int_args=*/0);
  for (const Operator* j : pipe.joins) {
    PROTEUS_RETURN_NOT_OK(EmitJoinBuild(*j));
  }
  if (pipe.leaf->kind() == OpKind::kNest) {
    PROTEUS_RETURN_NOT_OK(EmitNestFold(*pipe.leaf));
    driver_group_ = static_cast<int32_t>(group_ids_.at(pipe.leaf));
  }
  b_.CreateRetVoid();

  // proteus_pipeline(ctx, sink, params, begin, end): the driver chain over
  // one morsel's range (OIDs, cache rows, or groups), feeding the morsel's
  // partial sink.
  OpenFunction("proteus_pipeline", /*ptr_args=*/3, /*int_args=*/2);
  sink_arg_ = fn_->getArg(1);
  begin_arg_ = fn_->getArg(3);
  end_arg_ = fn_->getArg(4);
  PROTEUS_RETURN_NOT_OK(EmitMorselRoot(plan, nest));
  b_.CreateRetVoid();

  // proteus_drain<k>(ctx, sink, matched, params): one one-shot unmatched
  // drain per outer chain join, deepest-first — run after all probe morsels
  // reported their matched-build bitmaps, with `matched` their host-side OR.
  // Each iterates its join's build rows (EmitJoinProbe dispatches to
  // EmitJoinDrain at drain_join_) and runs the unmatched ones through the
  // ops above the join into a trailing partial slot — the same slot frame
  // the interpreter's DrainOuterJoins fills.
  const std::vector<const Operator*> outer = OuterChainJoins(pipe);
  for (size_t k = 0; k < outer.size(); ++k) {
    std::string name = "proteus_drain" + std::to_string(k);
    OpenFunction(name.c_str(), /*ptr_args=*/4, /*int_args=*/0);
    sink_arg_ = fn_->getArg(1);
    drain_matched_arg_ = fn_->getArg(2);
    drain_join_ = outer[k];
    PROTEUS_RETURN_NOT_OK(EmitMorselRoot(plan, nest));
    b_.CreateRetVoid();
    outer_join_tables_.push_back(join_ids_.at(outer[k]));
  }
  drain_join_ = nullptr;

  std::string err;
  llvm::raw_string_ostream os(err);
  if (llvm::verifyModule(*module_, &os)) {
    return Status::Internal("jit: invalid IR generated: " + os.str() +
                            (std::getenv("PROTEUS_DUMP_BAD_IR") ? "\n" + DumpIR() : ""));
  }
  return Status::OK();
}

/// Runs the standard pass pipeline at `level` over `m` (mem2reg/SROA
/// promotes the virtual buffers to registers, the rest fuses the pipeline
/// into tight loops).
void RunPassPipeline(llvm::Module& m, llvm::OptimizationLevel level) {
  llvm::PassBuilder pb;
  llvm::LoopAnalysisManager lam;
  llvm::FunctionAnalysisManager fam;
  llvm::CGSCCAnalysisManager cam;
  llvm::ModuleAnalysisManager mam;
  pb.registerModuleAnalyses(mam);
  pb.registerCGSCCAnalyses(cam);
  pb.registerFunctionAnalyses(fam);
  pb.registerLoopAnalyses(lam);
  pb.crossRegisterProxies(lam, fam, cam, mam);
  auto mpm = pb.buildPerModuleDefaultPipeline(level);
  mpm.run(m, mam);
}

/// Generates, optimizes, and links `plan` — whose main chain is `pipe` —
/// into a position-independent jit::CompiledModule (parameter table +
/// runtime layout instead of baked constants) that the CompiledQueryCache
/// can reuse across executions, threads, and shards.
///
/// `tier` selects the compile pipeline. Tier 1 — every foreground path —
/// optimizes inline at O2 and links through a default LLJIT. Tier 2 — the
/// background recompile of a proven-hot signature — builds its LLJIT around
/// an ORC ConcurrentIRCompiler whose target machine codegens at
/// CodeGenOpt::Aggressive, and defers IR optimization to an O3
/// IRTransformLayer transform on the materialization path. Entry points and
/// results are identical across tiers; only the machine code differs.
Result<std::shared_ptr<const jit::CompiledModule>> CompileAndLink(const ExecContext& ctx,
                                                                  const OpPtr& plan,
                                                                  const MorselPipeline& pipe,
                                                                  int tier = 1) {
  InitLLVMOnce();
  OBS_SPAN(ctx.trace, "jit_compile", "tier", tier);
  auto out = std::make_shared<jit::CompiledModule>();
  out->tier = tier;
  jit::ParamTable param_table;
  Codegen cg(ctx, &out->layout, &param_table);
  {
    OBS_SPAN(ctx.trace, "ir_gen");
    PROTEUS_RETURN_NOT_OK(cg.CompileMorsel(plan, pipe));
  }
  out->ir = cg.DumpIR();
  out->columns = cg.result_columns();
  out->row_records = cg.row_records();
  out->params = param_table.Take();

  auto module = cg.TakeModule();
  auto llctx = cg.TakeContext();

  // Contract verification runs on the raw codegen output (before the pass
  // pipeline rewrites it): the param-table GEPs and runtime-call shapes the
  // verifier reasons about are exactly what Codegen emitted.
  if (ctx.verify_ir) {
    OBS_SPAN(ctx.trace, "ir_verify");
    PROTEUS_RETURN_NOT_OK(
        jit::VerifyGeneratedModule(*module, out->params.size()));
    out->ir_verified = true;
  }

  if (tier < 2) RunPassPipeline(*module, llvm::OptimizationLevel::O2);

  llvm::orc::LLJITBuilder builder;
  if (tier >= 2) {
    builder.setCompileFunctionCreator(
        [](llvm::orc::JITTargetMachineBuilder jtmb)
            -> llvm::Expected<std::unique_ptr<llvm::orc::IRCompileLayer::IRCompiler>> {
          jtmb.setCodeGenOptLevel(llvm::CodeGenOpt::Aggressive);
          return std::make_unique<llvm::orc::ConcurrentIRCompiler>(std::move(jtmb));
        });
  }
  auto jit_or = builder.create();
  if (!jit_or) {
    return Status::Internal("jit: LLJIT creation failed: " +
                            llvm::toString(jit_or.takeError()));
  }
  out->jit = std::move(*jit_or);
  if (tier >= 2) {
    out->jit->getIRTransformLayer().setTransform(
        [](llvm::orc::ThreadSafeModule tsm, const llvm::orc::MaterializationResponsibility&)
            -> llvm::Expected<llvm::orc::ThreadSafeModule> {
          tsm.withModuleDo(
              [](llvm::Module& m) { RunPassPipeline(m, llvm::OptimizationLevel::O3); });
          return std::move(tsm);
        });
  }

  llvm::orc::SymbolMap symbols;
  for (const auto& [name, addr] : jit::RuntimeSymbols()) {
    symbols[out->jit->mangleAndIntern(name)] = llvm::JITEvaluatedSymbol(
        llvm::pointerToJITTargetAddress(addr),
        llvm::JITSymbolFlags::Exported | llvm::JITSymbolFlags::Callable);
  }
  if (auto err = out->jit->getMainJITDylib().define(llvm::orc::absoluteSymbols(symbols))) {
    return Status::Internal("jit: symbol registration failed: " +
                            llvm::toString(std::move(err)));
  }
  if (auto err = out->jit->addIRModule(
          llvm::orc::ThreadSafeModule(std::move(module), std::move(llctx)))) {
    return Status::Internal("jit: addIRModule failed: " + llvm::toString(std::move(err)));
  }
  auto lookup = [&](const char* name) -> Result<void*> {
    auto sym = out->jit->lookup(name);
    if (!sym) {
      return Status::Internal("jit: lookup failed: " + llvm::toString(sym.takeError()));
    }
    return reinterpret_cast<void*>(sym->getAddress());
  };
  PROTEUS_ASSIGN_OR_RETURN(void* b, lookup("proteus_build"));
  PROTEUS_ASSIGN_OR_RETURN(void* p, lookup("proteus_pipeline"));
  out->build_fn = reinterpret_cast<jit::CompiledModule::BuildFn>(b);
  out->pipeline_fn = reinterpret_cast<jit::CompiledModule::PipelineFn>(p);
  out->driver_group = cg.driver_group();
  out->outer_join_tables = cg.outer_join_tables();
  for (size_t k = 0; k < out->outer_join_tables.size(); ++k) {
    PROTEUS_ASSIGN_OR_RETURN(void* d, lookup(("proteus_drain" + std::to_string(k)).c_str()));
    out->drain_fns.push_back(reinterpret_cast<jit::CompiledModule::DrainFn>(d));
  }
  return std::shared_ptr<const jit::CompiledModule>(std::move(out));
}

}  // namespace

// ---------------------------------------------------------------------------
// Public compile entry points (tiered controller)
// ---------------------------------------------------------------------------

namespace jit {

QueryCacheKey MakeQueryCacheKey(const ExecContext& ctx, const OpPtr& plan) {
  QueryCacheKey key;
  key.signature = plan->Signature();
  // Join strategies are not part of Signature() (the logical plan is the
  // same either way) but the compiled module bakes each table's bucket
  // layout into its RuntimeLayout — two strategy assignments must never
  // share a cache entry.
  std::function<void(const Operator&)> walk = [&](const Operator& op) {
    if (op.kind() == OpKind::kJoin && op.left_key() != nullptr) {
      if (!key.join_strategies.empty()) key.join_strategies.push_back(',');
      key.join_strategies.append(JoinStrategyName(op.join_strategy()));
    }
    for (const auto& c : op.children()) walk(*c);
  };
  walk(*plan);
  key.catalog_epoch = ctx.catalog != nullptr ? ctx.catalog->epoch() : 0;
  key.cache_epoch = ctx.caches != nullptr ? ctx.caches->epoch() : 0;
  return key;
}

Result<std::shared_ptr<const CompiledModule>> CompilePlan(const ExecContext& ctx,
                                                          const OpPtr& plan, int tier) {
  if (plan == nullptr || plan->kind() != OpKind::kReduce) {
    return Status::InvalidArgument("jit: plan root must be Reduce");
  }
  MorselPipeline pipe;
  if (!CollectPlanPipeline(plan, &pipe)) {
    return Status::InvalidArgument("jit: plan has no pipeline chain under its Reduce root");
  }
  return CompileAndLink(ctx, plan, pipe, tier);
}

}  // namespace jit

// ---------------------------------------------------------------------------
// JitExecutor
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const jit::CompiledModule>> JitExecutor::GetOrCompileModule(
    const OpPtr& plan, const MorselPipeline& pipe) {
  last_cache_hit_ = false;
  last_compile_ms_ = 0;
  auto compile = [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
    auto t0 = std::chrono::steady_clock::now();
    auto r = CompileAndLink(ctx_, plan, pipe);
    // Recorded on failure too: an aborted codegen attempt (e.g. an
    // Unimplemented feature discovered mid-emission) costs real wall time
    // that fallback telemetry must attribute to compile_ms, not execute_ms.
    last_compile_ms_ = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    return r;
  };
  if (ctx_.jit_cache == nullptr || ctx_.catalog == nullptr) return compile();
  const jit::QueryCacheKey key = jit::MakeQueryCacheKey(ctx_, plan);
  // On a hit (or a single-flight wait on another thread's compile)
  // last_compile_ms_ stays 0: this execution generated no IR at all.
  // The probe span covers the whole lookup — a miss nests the jit_compile
  // span inside it, so the probe-only cost is the difference.
  obs::TraceSpan probe(ctx_.trace, "cache_probe");
  auto r = ctx_.jit_cache->GetOrCompile(key, compile, &last_cache_hit_, ctx_.trace);
  probe.set_arg0("hit", last_cache_hit_ ? 1 : 0);
  return r;
}

const std::string& JitExecutor::last_ir() const {
  static const std::string kEmpty;
  return last_module_ != nullptr ? last_module_->ir : kEmpty;
}

Result<PlanPartials> JitExecutor::RunMorselPipelines(
    const OpPtr& plan, uint64_t morsel_begin, uint64_t morsel_end, bool whole_plan,
    InterpExecutor::ExecStats* stats, std::shared_ptr<const jit::CompiledModule> premodule) {
  if (plan->kind() != OpKind::kReduce) {
    return Status::InvalidArgument("jit: plan root must be Reduce");
  }
  if (ctx_.scheduler == nullptr) {
    return Status::InvalidArgument("JitExecutor requires a TaskScheduler");
  }
  const Operator* nest = RootNest(plan);
  MorselPipeline pipe;
  if (!CollectPlanPipeline(plan, &pipe)) {
    return Status::InvalidArgument("jit: plan has no pipeline chain under its Reduce root");
  }
  const std::vector<const Operator*> outer = OuterChainJoins(pipe);
  if (!whole_plan && !outer.empty()) {
    // Mirror of InterpExecutor::ExecutePartials: a shard sees only its
    // morsel slice, but the unmatched-build drain needs every probe morsel's
    // bitmap — a global view.
    return Status::InvalidArgument(
        "outer joins cannot run in morsel chunks: the unmatched-build drain is global");
  }

  std::shared_ptr<const jit::CompiledModule> cq;
  if (premodule != nullptr) {
    // Tiered swap path: the background thread compiled (and cached) the
    // module already — this thread only binds parameters and runs.
    last_cache_hit_ = false;
    last_compile_ms_ = 0;
    cq = std::move(premodule);
  } else {
    PROTEUS_ASSIGN_OR_RETURN(cq, GetOrCompileModule(plan, pipe));
  }
  last_module_ = cq;

  // Fresh per-execution state: runtime tables from the recorded layout, data
  // constants re-bound from the live catalog/plug-ins/caches. The machine
  // code itself is shared — possibly concurrently with other shard threads
  // executing the same cached module.
  jit::QueryRuntime rt;
  jit::InitRuntimeFromLayout(cq->layout, &rt);
  rt.scheduler = ctx_.scheduler;
  rt.cancel = ctx_.cancel;
  std::vector<std::shared_ptr<const CacheBlock>> pinned_blocks;
  PROTEUS_ASSIGN_OR_RETURN(std::vector<int64_t> params,
                           jit::BindParams(ctx_, cq->params, &pinned_blocks));

  // Shared join builds and a Nest driver leaf's fold run once (radix tables
  // build through the parallel RadixTable::Build path via rt.scheduler),
  // then freeze.
  {
    OBS_SPAN(ctx_.trace, "join_build");
    jit::MorselCtx build_ctx(&rt);
    cq->build_fn(&build_ctx, params.data());
  }
  PROTEUS_RETURN_NOT_OK(CheckCancelled(ctx_));
  if (rt.failed) return Status::Internal("jit runtime: " + rt.error);

  // The global morsel decomposition — the exact frame the interpreter (and,
  // for scan leaves, the shard coordinator) uses, so every engine agrees on
  // partial boundaries. A Nest leaf's morsels split its folded groups.
  std::vector<ScanRange> all;
  if (cq->driver_group >= 0) {
    all = SplitRowMorsels(ctx_, rt.groups[static_cast<size_t>(cq->driver_group)]->size());
  } else {
    PROTEUS_ASSIGN_OR_RETURN(all, SplitLeafMorsels(ctx_, *pipe.leaf));
  }
  if (whole_plan) {
    morsel_begin = 0;
    morsel_end = all.size();
  }
  PROTEUS_ASSIGN_OR_RETURN(const std::vector<ScanRange> morsels,
                           MorselSlice(all, morsel_begin, morsel_end));
  const size_t n = morsels.size();

  // One partial sink per morsel plus one trailing slot per outer-join drain
  // (the shared PlanPartialSlots frame); workers write disjoint slots, so
  // the fan-out needs no locking and the merge below is deterministic in
  // morsel order.
  const size_t slots = whole_plan ? PlanPartialSlots(pipe, n) : n;
  PlanPartials partials;
  partials.nest = nest != nullptr;
  std::vector<JitMorselSink> sinks(slots);
  if (nest != nullptr) {
    partials.group_morsels.resize(slots);
    for (size_t m = 0; m < slots; ++m) {
      partials.group_morsels[m].count_bytes = false;
      sinks[m].groups = &partials.group_morsels[m];
      sinks[m].nest = nest;
    }
  } else {
    partials.agg_morsels.reserve(slots);
    for (size_t m = 0; m < slots; ++m) partials.agg_morsels.push_back(MakeReduceAggs(*plan));
    for (size_t m = 0; m < slots; ++m) {
      sinks[m].aggs = &partials.agg_morsels[m];
      sinks[m].columns = &cq->columns;  // module outlives the run (shared_ptr held)
      sinks[m].row_records = cq->row_records;
    }
  }

  // One reusable ctx per worker, not per morsel: unnest cursors and probe
  // iterators are (re)initialized by the generated code before every use,
  // so reuse is race-free and skips 2 vector allocations per morsel.
  const int workers = ctx_.scheduler->num_threads();
  std::vector<jit::MorselCtx> ctxs(static_cast<size_t>(workers), jit::MorselCtx(&rt));

  // Matched-build bitmaps for the outer chain joins, one set per *worker*
  // (marking is an idempotent 0→1 write and the merge below ORs, so which
  // worker marked a row cannot matter) plus one per drain pass — a drain's
  // rows can match outer joins above its own, and later drains OR those in,
  // exactly the interpreter's bitmap pool. Memory and merge cost are thus
  // bounded by thread count, not morsel count. Build rows are frozen
  // (proteus_build already ran), so the sizes are final.
  std::vector<std::vector<std::vector<uint8_t>>> matched;
  if (!outer.empty()) {
    matched.resize(static_cast<size_t>(workers) + outer.size());
    for (auto& per_table : matched) {
      per_table.resize(rt.joins.size());
      for (uint32_t table : cq->outer_join_tables) {
        per_table[table].assign(rt.joins[table]->keys.size(), 0);
      }
    }
    for (size_t k = 0; k < outer.size(); ++k) {
      sinks[n + k].matched = &matched[static_cast<size_t>(workers) + k];
    }
  }

  auto run_one = [&](uint64_t m, int worker) -> Status {
    // Morsel boundary: the cooperative cancellation point of the generated
    // engine — generated code never checks mid-morsel.
    PROTEUS_RETURN_NOT_OK(CheckCancelled(ctx_));
    if (ctx_.morsel_hook != nullptr) (*ctx_.morsel_hook)(morsel_begin + m);
    // Trace the dispatch boundary with the *global* morsel index, so a
    // sharded or tiered trace reads in the one decomposition every engine
    // shares.
    OBS_SPAN(ctx_.trace, "jit_morsel", "morsel", static_cast<int64_t>(morsel_begin + m));
    if (!matched.empty()) sinks[m].matched = &matched[worker];
    cq->pipeline_fn(&ctxs[worker], &sinks[m], params.data(), morsels[m].begin,
                    morsels[m].end);
    return Status::OK();
  };
  PROTEUS_RETURN_NOT_OK(ctx_.scheduler->ParallelFor(n, run_one));
  if (rt.failed) return Status::Internal("jit runtime: " + rt.error);

  // Outer-join unmatched drains: serially, deepest join first, once all
  // probe morsels reported. Each drain k ORs every earlier bitmap (all
  // worker bitmaps + drains 0..k-1) and feeds trailing slot n + k — the
  // slot order FinalizePlanPartials folds, so the emitted row order
  // reproduces the interpreter's exactly.
  if (!outer.empty()) {
    OBS_SPAN(ctx_.trace, "outer_drain");
    jit::MorselCtx drain_ctx(&rt);
    for (size_t k = 0; k < cq->drain_fns.size(); ++k) {
      const uint32_t table = cq->outer_join_tables[k];
      const size_t rows = rt.joins[table]->keys.size();
      std::vector<uint8_t> merged(std::max<size_t>(rows, 1), 0);
      for (size_t s = 0; s < static_cast<size_t>(workers) + k; ++s) {
        const std::vector<uint8_t>& bm = matched[s][table];
        for (size_t i = 0; i < rows; ++i) merged[i] |= bm[i];
      }
      cq->drain_fns[k](&drain_ctx, &sinks[n + k], merged.data(), params.data());
    }
    if (rt.failed) return Status::Internal("jit runtime: " + rt.error);
  }

  if (stats != nullptr) {
    stats->morsels = n;
    stats->threads_used = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(workers), std::max<size_t>(n, 1)));
  }
  return partials;
}

Result<QueryResult> JitExecutor::Execute(const OpPtr& plan, InterpExecutor::ExecStats* stats) {
  PROTEUS_ASSIGN_OR_RETURN(PlanPartials partials,
                           RunMorselPipelines(plan, 0, 0, /*whole_plan=*/true, stats, nullptr));
  return FinalizePlanPartials(*plan, RootNest(plan), std::move(partials), ctx_.trace);
}

Result<PlanPartials> JitExecutor::ExecutePartials(const OpPtr& plan, uint64_t morsel_begin,
                                                  uint64_t morsel_end) {
  return RunMorselPipelines(plan, morsel_begin, morsel_end, /*whole_plan=*/false, nullptr,
                            nullptr);
}

Result<PlanPartials> JitExecutor::ExecutePartialsPrecompiled(
    const OpPtr& plan, std::shared_ptr<const jit::CompiledModule> module,
    uint64_t morsel_begin, uint64_t morsel_end) {
  if (module == nullptr) {
    return Status::InvalidArgument("jit: precompiled module is null");
  }
  return RunMorselPipelines(plan, morsel_begin, morsel_end, /*whole_plan=*/false, nullptr,
                            std::move(module));
}

}  // namespace proteus
