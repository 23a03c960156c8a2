#include "src/jit/jit_engine.h"
#include <cstdlib>

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/MDBuilder.h>
#include <llvm/IR/Module.h>
#include <llvm/IR/Verifier.h>
#include <llvm/Passes/PassBuilder.h>
#include <llvm/Support/raw_ostream.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/engine/partial_sink.h"
#include "src/jit/access.h"
#include "src/jit/ir_verifier.h"
#include "src/jit/query_cache.h"
#include "src/jit/runtime.h"
#include "src/jit/session.h"
#include "src/jit/tiered_compiler.h"
#include "src/obs/trace.h"

namespace proteus {

namespace {

using jit::MorselCtx;
using jit::QueryRuntime;

using jit::CacheParam;
using jit::CgValue;
using jit::DataParam;
using jit::ScanSource;

jit::ParamDesc LiteralParam(jit::ParamKind kind, uint32_t literal) {
  jit::ParamDesc d;
  d.kind = kind;
  d.literal = literal;
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

class Codegen : public jit::EmitEnv {
 public:
  /// Generated code is position-independent: per-execution constants land in
  /// `params` (bound per run) and runtime-table shapes in `layout` (a fresh
  /// QueryRuntime is built from it per run), so one compiled module can be
  /// cached and reused across executions, threads, and shards. `literals`
  /// is the compiled plan's PlanShape::literals: each literal loads from the
  /// parameter slot of its shape position, so the module serves every plan
  /// of the same shape, whatever its literal values.
  Codegen(ExecContext ctx, jit::RuntimeLayout* layout, jit::ParamTable* params,
          const std::vector<const Expr*>& literals)
      : ectx_(ctx),
        layout_(layout),
        params_(params),
        llctx_(std::make_unique<llvm::LLVMContext>()),
        module_(std::make_unique<llvm::Module>("proteus_module", *llctx_)),
        b_(*llctx_) {
    for (size_t i = 0; i < literals.size(); ++i) {
      literal_index_.emplace(literals[i], static_cast<uint32_t>(i));
    }
  }

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
  /// Scans (raw or cache block): loop the driver's range or the whole
  /// relation, binding each row's fields pending through the source's
  /// AccessEmitter.
  Status EmitScan(const OpPtr& op, const Consume& consume);
  /// Runs `consume` for the current row `row` of `var` with its fields
  /// pending on `access`: nothing is read until an operator materializes
  /// the fields it references.
  Status ConsumeRow(const std::string& var, jit::AccessEmitter* access, llvm::Value* row,
                    const Consume& consume);
  /// Lazy binding: reads the pending fields `exprs` reference — one emitter
  /// call per variable — and binds them. Every operator calls it at the top
  /// of its block, before evaluating its expressions, so a read never lands
  /// inside an and/or/if arm where it would not dominate later uses.
  Status Materialize(const std::vector<ExprPtr>& exprs);
  /// Reads every pending field some operator of the plan references: run
  /// before an unnest's element loop and a join probe's match loop, so an
  /// outer row's fields are read once per row, not once per element or
  /// match.
  Status MaterializePending();
  /// Reads the unbound `paths` of pending `var` in one emitter call.
  Status MaterializeVar(const std::string& var, const std::vector<FieldPath>& paths);
  /// A variable's current row (or element) whose fields are not read yet.
  struct PendingRow {
    jit::AccessEmitter* access;
    llvm::Value* row;
  };
  /// The binding state a sibling consume() branch starts from, and restores
  /// after it: values a branch reads do not dominate its siblings.
  struct BindingState {
    std::unordered_map<std::string, CgValue> bindings;
    std::unordered_map<std::string, PendingRow> pending;
  };
  BindingState SaveBindings() const { return {bindings_, pending_}; }
  void RestoreBindings(BindingState state) {
    bindings_ = std::move(state.bindings);
    pending_ = std::move(state.pending);
  }
  /// True when `var` is bound by a scan whose records (or uncached fields)
  /// come from a plug-in of `format`.
  bool SourceFormat(const std::string& var, DataFormat format) const {
    auto it = sources_.find(var);
    return it != sources_.end() && it->second.plugin != nullptr &&
           it->second.plugin->info().format == format;
  }
  Status EmitUnnest(const OpPtr& op, const Consume& consume);
  Status EmitJoin(const OpPtr& op, const Consume& consume);
  Status EmitJoinBuild(const Operator& op);
  Status EmitJoinProbe(const Operator& op, const Consume& consume);
  /// The i64 word equi-join key `key` of `op` becomes in the radix table:
  /// int, bool and date keys as themselves, strings as HashBytes of their
  /// bytes, and — when either side of `op` is a float — both sides as the
  /// bits of their double value with -0.0 folded into 0.0, which the table
  /// mixes into GroupTable's NumericHash, so 0.0/-0.0 and 2/2.0 meet. Keys
  /// Value::Equals calls equal get equal words; distinct keys may share one,
  /// and the probe's match loop re-evaluates op.pred() — which keeps the
  /// equi conjunct — to reject them.
  Result<llvm::Value*> JoinKeyWord(const Operator& op, const CgValue& key);
  /// Body of a generated unmatched-drain pass (drain_join_ set): loops the
  /// outer join's build rows, skips rows marked in the merged matched
  /// bitmap, and runs the surviving rows — probe side bound to SQL null —
  /// through the ops above the join into the drain's trailing sink slot.
  Status EmitJoinDrain(const Operator& op, const Consume& consume);
  /// Rebinds `op`'s build-side virtual buffers from a payload row pointer,
  /// restoring nullable fields' null flags from the trailing mask slot
  /// (shared by the probe loop and the unmatched drain).
  void RebindPayload(const Operator& op, llvm::Value* row_ptr);
  /// A value as the (tag, bits, str, len) arguments of the group-table
  /// helpers: its GroupKeyTag (kNull when its null flag is set), int/bool
  /// value or double bits, and string bytes.
  struct TaggedValue {
    llvm::Value* tag;
    llvm::Value* bits;
    llvm::Value* str;
    llvm::Value* len;
  };
  TaggedValue Tagged(const CgValue& v);
  /// proteus_group_upsert of `key` into `table`: the group's slot row.
  llvm::Value* EmitGroupUpsert(llvm::Value* table, const CgValue& key);
  /// Folds the current row's outputs of Nest `op` into slot row `row` of
  /// `table` — the GroupTable fold, inline: slots and seen bytes updated in
  /// place, Aggregator-column outputs through proteus_group_agg.
  Status EmitGroupUpdate(const Operator& op, const GroupLayout& layout, llvm::Value* table,
                         llvm::Value* row);
  /// Folds a mid-chain Nest's input region into its GroupTable — one
  /// whole-relation pass in row order, inside proteus_build — registered in
  /// group_ids_ for the group loops that read it.
  Status EmitNestFold(const Operator& op);
  /// Loops groups [lo, hi) of a folded Nest's table (hi = null: all of
  /// them), binding the group record's fields, and runs `consume` per group.
  Status EmitNestGroups(const Operator& op, llvm::Value* lo, llvm::Value* hi,
                        const Consume& consume);
  Status EmitFilter(const ExprPtr& pred, const Consume& consume);
  Status EmitReduceRoot(const OpPtr& reduce);
  Status EmitBagReduce(const OpPtr& reduce);
  Status EmitScalarReduce(const OpPtr& reduce);
  Status EmitMorselRoot(const OpPtr& reduce, const Operator* nest);
  Status EmitNestMorsel(const Operator& nest);

  Result<CgValue> EmitExpr(const ExprPtr& e);
  Result<CgValue> EmitLiteral(const Expr& e);
  Result<CgValue> EmitBinary(const ExprPtr& e);
  /// and/or: evaluates the right operand only when the left one does not
  /// decide the result, as Eval() does (it may raise, e.g. `x / 0`). Null
  /// operands count as false; the result is a non-null bool.
  Result<CgValue> EmitShortCircuit(const ExprPtr& e);
  /// if-then-else: evaluates only the chosen branch, as Eval() does.
  Result<CgValue> EmitIf(const ExprPtr& e);
  /// Emits `if (cond && !null) proteus_runtime_error(ctx, code)`. The query
  /// fails at the next morsel boundary; the code after the check still runs,
  /// so the caller makes it harmless (srem never sees a zero divisor).
  void RaiseIf(llvm::Value* cond, llvm::Value* null, jit::RuntimeError code);
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

  // ---- small helpers (the EmitEnv the access emitters build with) ---------
  llvm::IRBuilder<>& builder() override { return b_; }
  llvm::Function* Helper(const char* name, llvm::Type* ret,
                         std::vector<llvm::Type*> args) override;
  /// The i64 parameter-table entry for `desc`: registered in the shared
  /// ParamTable (deduplicated) and loaded once per function, in the entry
  /// block — the replacement for every constant the old codegen baked into
  /// the instruction stream.
  llvm::Value* ParamI64(jit::ParamDesc desc) override;
  llvm::Value* ParamPtr(jit::ParamDesc desc) {
    return b_.CreateIntToPtr(ParamI64(std::move(desc)), b_.getInt8PtrTy());
  }
  /// Alloca hoisted into the function entry block: SROA only promotes
  /// entry-block allocas to registers, and hoisting keeps loop-body
  /// temporaries from re-allocating per iteration.
  llvm::Value* EntryAlloca(llvm::Type* ty, llvm::Value* array_size = nullptr,
                           const char* name = "") override;
  /// An i64 alloca zeroed in the function entry block, so its value at any
  /// point is the count of increments that ran before it — wherever in the
  /// emission it is first created.
  llvm::Value* EntryCounter(const char* name);
  /// The current function's MorselCtx* argument (per-task runtime state).
  llvm::Value* CtxPtr() override { return ctx_arg_; }
  /// The pipeline or drain function's JitMorselSink* argument.
  llvm::Value* SinkPtr() { return sink_arg_; }
  llvm::Value* GlobalString(const std::string& s) override {
    auto it = string_globals_.find(s);
    if (it != string_globals_.end()) return it->second;
    llvm::Value* g = b_.CreateGlobalStringPtr(s);
    string_globals_[s] = g;
    return g;
  }
  llvm::Value* ConstI64Array(const std::vector<int64_t>& values) override;
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

  std::unordered_map<std::string, CgValue> bindings_;       // virtual buffers
  std::unordered_map<std::string, PendingRow> pending_;     // var -> unread row
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
  /// Folded Nests some of whose keys can be SQL null.
  std::unordered_set<const Operator*> nullable_group_keys_;
  std::unordered_map<const Operator*, uint32_t> unnest_ids_;
  std::unordered_map<std::string, llvm::Value*> string_globals_;
  std::unordered_map<const Expr*, uint32_t> literal_index_;  // node -> shape position
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

/// The expressions a Nest evaluates per input row: its key and outputs.
std::vector<ExprPtr> NestExprs(const Operator& op) {
  std::vector<ExprPtr> exprs{op.group_by()};
  for (const auto& o : op.outputs()) exprs.push_back(o.expr);
  return exprs;
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
        // Equi joins of every key type probe the radix table by key word
        // (JoinKeyWord); non-equi joins generate a nested loop over the
        // frozen build rows (EmitJoinProbe). Outer joins generate per-morsel
        // matched-build bitmaps plus a one-shot drain function —
        // infrastructure only the main pipeline chain has. Outer joins
        // inside build subtrees or a mid-chain Nest's input region still
        // fall back.
        if (o->outer() && chain_joins_.count(o.get()) == 0) {
          add("jit: outer join outside the morsel pipeline chain");
        }
        break;
      case OpKind::kUnnest:
        break;  // outer unnest generates a null-element emission branch
      case OpKind::kNest:
        // Scalar monoids — and/or included — fold into GroupTable slots
        // (EmitGroupUpdate); collection monoids still fall back.
        for (const auto& out : o->outputs()) {
          if (IsCollectionMonoid(out.monoid)) {
            add("jit: nest with collection monoid");
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

/// Type of a Nest output's field in the group record generated code binds:
/// the kind of its GroupTable slot, or — for a string max/min held in the
/// Aggregator column — the string it folds.
Result<TypePtr> GroupFieldType(const AggOutput& o, GroupSlot slot) {
  switch (slot) {
    case GroupSlot::kInt: return Type::Int64();
    case GroupSlot::kFloat: return Type::Float64();
    case GroupSlot::kBool: return Type::Bool();
    case GroupSlot::kAggregator:
      if ((o.monoid == Monoid::kMax || o.monoid == Monoid::kMin) && o.expr->type() != nullptr &&
          o.expr->type()->kind() == TypeKind::kString) {
        return Type::String();
      }
      break;
  }
  return Status::Unimplemented("jit: nest output '" + o.name + "' has no generated slot");
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
      sources_[op->binding()] = {plugin, nullptr, op->dataset(), 0};
      var_types_[op->binding()] = info->type->elem();
      break;
    }
    case OpKind::kCacheScan: {
      if (ectx_.caches == nullptr) return Status::Internal("jit: cache scan w/o manager");
      auto blk = ectx_.caches->FindById(op->cache_id());
      if (blk == nullptr) return Status::NotFound("jit: cache block evicted");
      ScanSource src{nullptr, std::move(blk), op->dataset(), op->cache_id()};
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
      const GroupLayout layout = GroupLayout::ForNest(*op);
      for (size_t i = 0; i < op->outputs().size(); ++i) {
        PROTEUS_ASSIGN_OR_RETURN(TypePtr t,
                                 GroupFieldType(op->outputs()[i], layout.outputs[i].slot));
        fields.push_back({op->outputs()[i].name, std::move(t)});
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
    case ExprKind::kLiteral:
      return EmitLiteral(*e);
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
      // A pending primitive leaf is one materialization should have read;
      // records, collections and whole variables have no virtual buffer.
      if (it == bindings_.end() && pending_.count(cur->var_name()) != 0 &&
          LeafKind(cur->var_name(), path).ok()) {
        return Status::Internal("jit: " + Key(cur->var_name(), path) +
                                " read outside a materialization point");
      }
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
    case ExprKind::kIf:
      return EmitIf(e);
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

Result<CgValue> Codegen::EmitLiteral(const Expr& e) {
  const Value& v = e.literal();
  if (!v.is_int() && !v.is_float() && !v.is_bool() && !v.is_string()) {
    return Status::Unimplemented("jit: literal " + v.ToString());
  }
  // Never an immediate: the value binds per run from the running plan's
  // literal at the same shape position (query_cache.h).
  auto it = literal_index_.find(&e);
  if (it == literal_index_.end()) {
    return Status::Internal("jit: literal " + v.ToString() + " outside the plan's shape walk");
  }
  auto slot = [&](jit::ParamKind kind) { return ParamI64(LiteralParam(kind, it->second)); };
  if (v.is_int()) return CgValue{TypeKind::kInt64, slot(jit::ParamKind::kLiteralInt)};
  if (v.is_float()) {
    return CgValue{TypeKind::kFloat64,
                   b_.CreateBitCast(slot(jit::ParamKind::kLiteralFloat), b_.getDoubleTy())};
  }
  if (v.is_bool()) {
    return CgValue{TypeKind::kBool,
                   b_.CreateICmpNE(slot(jit::ParamKind::kLiteralBool), b_.getInt64(0))};
  }
  return CgValue{TypeKind::kString,
                 b_.CreateIntToPtr(slot(jit::ParamKind::kLiteralStr), b_.getInt8PtrTy()),
                 slot(jit::ParamKind::kLiteralStrLen)};
}

Result<CgValue> Codegen::EmitShortCircuit(const ExprPtr& e) {
  const bool is_and = e->bin_op() == BinOp::kAnd;
  PROTEUS_ASSIGN_OR_RETURN(CgValue l, EmitExpr(e->child(0)));
  llvm::Value* lb = Truthy(l);
  llvm::BasicBlock* decided_bb = b_.GetInsertBlock();
  auto* rhs_bb = llvm::BasicBlock::Create(*llctx_, is_and ? "and.rhs" : "or.rhs", fn_);
  auto* merge_bb = llvm::BasicBlock::Create(*llctx_, is_and ? "and.merge" : "or.merge", fn_);
  if (is_and) {
    b_.CreateCondBr(lb, rhs_bb, merge_bb);
  } else {
    b_.CreateCondBr(lb, merge_bb, rhs_bb);
  }
  b_.SetInsertPoint(rhs_bb);
  PROTEUS_ASSIGN_OR_RETURN(CgValue r, EmitExpr(e->child(1)));
  llvm::Value* rb = Truthy(r);
  llvm::BasicBlock* rhs_end = b_.GetInsertBlock();
  b_.CreateBr(merge_bb);
  b_.SetInsertPoint(merge_bb);
  llvm::PHINode* out = b_.CreatePHI(b_.getInt1Ty(), 2);
  out->addIncoming(b_.getInt1(!is_and), decided_bb);
  out->addIncoming(rb, rhs_end);
  return CgValue{TypeKind::kBool, out};
}

Result<CgValue> Codegen::EmitIf(const ExprPtr& e) {
  PROTEUS_ASSIGN_OR_RETURN(CgValue c, EmitExpr(e->child(0)));
  llvm::Value* cond = Truthy(c);  // Eval: a null condition picks else
  auto* then_bb = llvm::BasicBlock::Create(*llctx_, "if.then", fn_);
  auto* else_bb = llvm::BasicBlock::Create(*llctx_, "if.else", fn_);
  auto* merge_bb = llvm::BasicBlock::Create(*llctx_, "if.merge", fn_);
  b_.CreateCondBr(cond, then_bb, else_bb);
  CgValue arm[2];
  llvm::BasicBlock* arm_end[2];
  llvm::BasicBlock* arm_begin[2] = {then_bb, else_bb};
  for (int i = 0; i < 2; ++i) {
    b_.SetInsertPoint(arm_begin[i]);
    PROTEUS_ASSIGN_OR_RETURN(arm[i], EmitExpr(e->child(static_cast<size_t>(i) + 1)));
    arm_end[i] = b_.GetInsertBlock();
    b_.CreateBr(merge_bb);
  }
  if (arm[0].kind != arm[1].kind) {
    // Widen int/float branch mismatches to double the way the arithmetic
    // path does. Other mixes (bool vs numeric, string vs anything) are
    // rejected by the type checker before either engine runs, so bailing
    // here keeps the JIT exactly as reachable as the interpreter — widening
    // them would diverge from Eval(), which returns the raw branch cell.
    auto numeric = [](TypeKind k) { return k == TypeKind::kInt64 || k == TypeKind::kFloat64; };
    if (!numeric(arm[0].kind) || !numeric(arm[1].kind)) {
      return Status::Unimplemented("jit: if branches of mixed kinds");
    }
    for (int i = 0; i < 2; ++i) {
      b_.SetInsertPoint(arm_end[i]->getTerminator());
      arm[i] = CgValue{TypeKind::kFloat64, ToDouble(arm[i]), nullptr, arm[i].null};
    }
  }
  b_.SetInsertPoint(merge_bb);
  auto phi = [&](llvm::Value* t, llvm::Value* f) {
    llvm::PHINode* p = b_.CreatePHI(t->getType(), 2);
    p->addIncoming(t, arm_end[0]);
    p->addIncoming(f, arm_end[1]);
    return p;
  };
  CgValue out{arm[0].kind, phi(arm[0].v, arm[1].v)};
  if (out.kind == TypeKind::kString) out.len = phi(arm[0].len, arm[1].len);
  if (arm[0].null != nullptr || arm[1].null != nullptr) {
    out.null = phi(arm[0].null != nullptr ? arm[0].null : b_.getInt1(false),
                   arm[1].null != nullptr ? arm[1].null : b_.getInt1(false));
  }
  return out;
}

void Codegen::RaiseIf(llvm::Value* cond, llvm::Value* null, jit::RuntimeError code) {
  if (null != nullptr) cond = b_.CreateAnd(cond, b_.CreateNot(null));
  auto* raise_bb = llvm::BasicBlock::Create(*llctx_, "raise", fn_);
  auto* cont_bb = llvm::BasicBlock::Create(*llctx_, "raise.cont", fn_);
  b_.CreateCondBr(cond, raise_bb, cont_bb,
                  llvm::MDBuilder(*llctx_).createBranchWeights(1, 1u << 20));
  b_.SetInsertPoint(raise_bb);
  b_.CreateCall(Helper("proteus_runtime_error", b_.getVoidTy(),
                       {b_.getInt8PtrTy(), b_.getInt32Ty()}),
                {CtxPtr(), b_.getInt32(static_cast<int32_t>(code))});
  b_.CreateBr(cont_bb);
  b_.SetInsertPoint(cont_bb);
}

Result<CgValue> Codegen::EmitBinary(const ExprPtr& e) {
  BinOp op = e->bin_op();
  if (op == BinOp::kAnd || op == BinOp::kOr) return EmitShortCircuit(e);
  PROTEUS_ASSIGN_OR_RETURN(CgValue l, EmitExpr(e->child(0)));
  PROTEUS_ASSIGN_OR_RETURN(CgValue r, EmitExpr(e->child(1)));
  // Eval(): arithmetic / comparison with a null operand is null.
  llvm::Value* nul = OrNull(l.null, r.null);

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
    case BinOp::kDiv: {
      // Eval(): a zero divisor of non-null operands fails the query.
      llvm::Value* den = ToDouble(r);
      RaiseIf(b_.CreateFCmpOEQ(den, llvm::ConstantFP::get(b_.getDoubleTy(), 0.0)), nul,
              jit::RuntimeError::kDivisionByZero);
      return CgValue{TypeKind::kFloat64, b_.CreateFDiv(ToDouble(l), den), nullptr, nul};
    }
    case BinOp::kMod: {
      llvm::Value* zero = b_.CreateICmpEQ(r.v, b_.getInt64(0));
      RaiseIf(zero, nul, jit::RuntimeError::kModuloByZero);
      // srem by 0 traps, so divide by 1 there: the query has failed, or the
      // 0 is a null divisor's placeholder and the result hides behind the
      // null flag.
      llvm::Value* den = b_.CreateSelect(zero, b_.getInt64(1), r.v);
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
  PROTEUS_RETURN_NOT_OK(Materialize({pred}));
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
  PROTEUS_ASSIGN_OR_RETURN(std::unique_ptr<jit::AccessEmitter> access,
                           jit::MakeScanAccess(src, var));
  // The driver leaf of the pipeline function scans only its (begin, end)
  // arguments' range; every other scan (build sides, a Nest's input) runs
  // the whole relation, whose record count is a bound parameter — never an
  // immediate — so cached modules survive data growth between executions.
  llvm::Value* lo;
  llvm::Value* hi;
  if (op.get() == driver_leaf_) {
    lo = begin_arg_;
    hi = end_arg_;
  } else {
    lo = b_.getInt64(0);
    hi = src.cache != nullptr
             ? ParamI64(CacheParam(jit::ParamKind::kCacheNumRows, src.cache_id))
             : ParamI64(DataParam(jit::ParamKind::kNumRecords, src.dataset));
  }
  return EmitRangeLoop(lo, hi, [&](llvm::Value* row) -> Status {
    return ConsumeRow(var, access.get(), row, consume);
  });
}

Status Codegen::ConsumeRow(const std::string& var, jit::AccessEmitter* access, llvm::Value* row,
                           const Consume& consume) {
  // The row's raw OID: an Unnest addresses the source file through it.
  if (llvm::Value* oid = access->BeginRow(*this, row)) oids_[var] = oid;
  pending_[var] = {access, row};
  PROTEUS_RETURN_NOT_OK(consume());
  // The row's values do not outlive its loop body.
  pending_.erase(var);
  for (auto it = bindings_.begin(); it != bindings_.end();) {
    const std::string& key = it->first;
    const bool of_var = key.compare(0, var.size(), var) == 0 &&
                        (key.size() == var.size() || key[var.size()] == '.');
    it = of_var ? bindings_.erase(it) : std::next(it);
  }
  return Status::OK();
}

Status Codegen::Materialize(const std::vector<ExprPtr>& exprs) {
  std::unordered_map<std::string, std::vector<FieldPath>> paths;
  for (const ExprPtr& e : exprs) CollectExprPaths(e, &paths);
  // In variable order, so the generated IR is deterministic.
  std::vector<std::string> vars;
  for (const auto& entry : paths) {
    if (pending_.count(entry.first) != 0) vars.push_back(entry.first);
  }
  std::sort(vars.begin(), vars.end());
  for (const std::string& var : vars) PROTEUS_RETURN_NOT_OK(MaterializeVar(var, paths[var]));
  return Status::OK();
}

Status Codegen::MaterializePending() {
  std::vector<std::string> vars;
  for (const auto& entry : pending_) {
    if (needed_.count(entry.first) != 0) vars.push_back(entry.first);
  }
  std::sort(vars.begin(), vars.end());
  for (const std::string& var : vars) PROTEUS_RETURN_NOT_OK(MaterializeVar(var, needed_.at(var)));
  return Status::OK();
}

Status Codegen::MaterializeVar(const std::string& var, const std::vector<FieldPath>& paths) {
  auto it = pending_.find(var);
  if (it == pending_.end()) return Status::OK();
  std::vector<jit::FieldRead> reads;
  for (const FieldPath& p : paths) {
    if (bindings_.count(Key(var, p)) != 0) continue;
    auto same = [&](const jit::FieldRead& r) { return r.path == p; };
    if (std::any_of(reads.begin(), reads.end(), same)) continue;
    auto lk = LeafKind(var, p);
    if (!lk.ok()) continue;  // collections (unnest paths) are read by the Unnest
    reads.push_back({p, *lk});
  }
  if (reads.empty()) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(std::vector<CgValue> values,
                           it->second.access->Read(*this, it->second.row, reads));
  for (size_t i = 0; i < reads.size(); ++i) bindings_[Key(var, reads[i].path)] = values[i];
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Unnest
// ---------------------------------------------------------------------------

Status Codegen::EmitUnnest(const OpPtr& op, const Consume& consume) {
  const FieldPath& p = op->unnest_path();
  const std::string& src_var = p[0];
  const std::string& elem_var = op->binding();
  uint32_t slot = unnest_ids_.at(op.get());

  // Element paths read above this op, with their primitive kinds (the
  // element itself for a primitive element: an empty path), shared by the
  // loop body and the outer null-element branch. Their names are the
  // element emitter's name list, fixed by the plan's shape.
  TypePtr elem_t = var_types_.at(elem_var);
  auto needed_it = needed_.find(elem_var);
  std::vector<FieldPath> paths =
      needed_it == needed_.end() ? std::vector<FieldPath>{} : needed_it->second;
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  std::vector<TypeKind> path_kinds;
  std::vector<std::string> names;
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
      names.push_back(ep[0]);
    }
  }
  const std::unique_ptr<jit::AccessEmitter> access = jit::MakeElementAccess(slot, names);

  return EmitProduce(op->child(0), [&]() -> Status {
    // The source may be a raw JSON scan or a cache scan over a JSON dataset
    // (the cached OID addresses the original file's structural index).
    if (!SourceFormat(src_var, DataFormat::kJSON)) {
      return Status::Unimplemented("jit: unnest source must be a JSON scan");
    }
    auto oid_it = oids_.find(src_var);
    if (oid_it == oids_.end()) return Status::Unimplemented("jit: unnest without OID");
    // The outer row's fields that operators above read: once per row, not
    // once per element.
    PROTEUS_RETURN_NOT_OK(MaterializePending());
    const std::string& dataset = sources_.at(src_var).dataset;
    llvm::Value* pp = ParamPtr(DataParam(jit::ParamKind::kPluginPtr, dataset));
    llvm::Value* oid = oid_it->second;
    FieldPath rel(p.begin() + 1, p.end());
    llvm::Value* h = b_.getInt64(HashString(DottedPath(rel)));
    auto* i8p = b_.getInt8PtrTy();
    auto* voidty = b_.getVoidTy();
    llvm::Value* slot_v = b_.getInt32(slot);

    b_.CreateCall(Helper("proteus_unnest_init", voidty,
                         {i8p, b_.getInt32Ty(), i8p, b_.getInt64Ty(), b_.getInt64Ty()}),
                  {CtxPtr(), slot_v, pp, oid, h});

    auto* cond_bb = llvm::BasicBlock::Create(*llctx_, "unnest.cond", fn_);
    auto* body_bb = llvm::BasicBlock::Create(*llctx_, "unnest.body", fn_);
    auto* exit_bb = llvm::BasicBlock::Create(*llctx_, "unnest.exit", fn_);

    if (op->outer()) {
      // Empty (or absent) collection: emit the outer row once with a null
      // element, bypassing the unnest predicate — the interpreter's
      // pending-outer-emit rule. A sibling of the element loop: whatever it
      // reads stays in its branch.
      auto* none_bb = llvm::BasicBlock::Create(*llctx_, "unnest.none", fn_);
      auto* enter_bb = llvm::BasicBlock::Create(*llctx_, "unnest.enter", fn_);
      llvm::Value* has0 = b_.CreateCall(
          Helper("proteus_unnest_has_next", b_.getInt32Ty(), {i8p, b_.getInt32Ty()}),
          {CtxPtr(), slot_v});
      b_.CreateCondBr(b_.CreateICmpNE(has0, b_.getInt32(0)), enter_bb, none_bb);
      b_.SetInsertPoint(none_bb);
      BindingState saved = SaveBindings();
      for (size_t i = 0; i < paths.size(); ++i) {
        bindings_[Key(elem_var, paths[i])] = NullValue(path_kinds[i]);
      }
      PROTEUS_RETURN_NOT_OK(consume());
      RestoreBindings(std::move(saved));
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

    // Each element's fields are pending until an operator reads them.
    PROTEUS_RETURN_NOT_OK(ConsumeRow(elem_var, access.get(), nullptr,
                                     [&] { return EmitFilter(op->pred(), consume); }));

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
  // Vars whose bindings can carry a SQL-null flag at build time: unnest
  // elements (outer-unnest null rows, element reads) and CSV and JSON
  // sources (empty, absent and null fields). The
  // predicate is static per var, so nested joins inside the build subtree
  // predict their rebinds' nullability consistently.
  std::unordered_set<std::string> unnest_vars;
  {
    std::function<void(const OpPtr&)> walk = [&](const OpPtr& o) {
      if (o->kind() == OpKind::kUnnest) unnest_vars.insert(o->binding());
      for (const auto& c : o->children()) walk(c);
    };
    walk(op.child(0));
  }
  auto field_nullable = [&](const std::string& var) {
    return unnest_vars.count(var) != 0 || SourceFormat(var, DataFormat::kJSON) ||
           SourceFormat(var, DataFormat::kCSV);
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
      if (field_nullable(var)) payload.back().null_bit = null_bits++;
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
    // The key and the payload: every field of the build side the plan reads.
    PROTEUS_RETURN_NOT_OK(MaterializePending());
    CgValue key;
    if (op.left_key() != nullptr) {
      PROTEUS_ASSIGN_OR_RETURN(key, EmitExpr(op.left_key()));
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
    PROTEUS_ASSIGN_OR_RETURN(llvm::Value * word, JoinKeyWord(op, key));
    auto insert = [&]() {
      b_.CreateCall(Helper("proteus_join_insert", b_.getVoidTy(),
                           {i8p, b_.getInt32Ty(), b_.getInt64Ty(), i64p}),
                    {CtxPtr(), table_v, word, pay_buf});
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

Result<llvm::Value*> Codegen::JoinKeyWord(const Operator& op, const CgValue& key) {
  auto is_float = [](const ExprPtr& e) {
    return e->type() != nullptr && e->type()->kind() == TypeKind::kFloat64;
  };
  if (is_float(op.left_key()) || is_float(op.right_key())) {
    llvm::Value* d = ToDouble(key);
    llvm::Value* zero = llvm::ConstantFP::get(b_.getDoubleTy(), 0.0);
    d = b_.CreateSelect(b_.CreateFCmpOEQ(d, zero), zero, d);
    return b_.CreateBitCast(d, b_.getInt64Ty());
  }
  switch (key.kind) {
    case TypeKind::kString:
      return static_cast<llvm::Value*>(
          b_.CreateCall(Helper("proteus_hash_bytes", b_.getInt64Ty(),
                               {b_.getInt8PtrTy(), b_.getInt64Ty()}),
                        {key.v, key.len}));
    case TypeKind::kBool:
      return b_.CreateZExt(key.v, b_.getInt64Ty());
    case TypeKind::kFloat64:
      // The other side's word depends on this side's type too.
      return Status::Internal("jit: un-typechecked float join key");
    default:
      return key.v;
  }
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
      // The probe row's fields are read once, before the loop, when there
      // is a build row to pair it with.
      llvm::Value* n = b_.CreateCall(
          Helper("proteus_join_rows", b_.getInt64Ty(), {i8p, b_.getInt32Ty()}),
          {CtxPtr(), table_v});
      auto* pre_bb = llvm::BasicBlock::Create(*llctx_, "nested.pre", fn_);
      auto* done_bb = llvm::BasicBlock::Create(*llctx_, "nested.done", fn_);
      b_.CreateCondBr(b_.CreateICmpNE(n, b_.getInt64(0)), pre_bb, done_bb);
      b_.SetInsertPoint(pre_bb);
      PROTEUS_RETURN_NOT_OK(MaterializePending());
      BindingState saved = SaveBindings();
      PROTEUS_RETURN_NOT_OK(EmitCountedLoop(n, [&](llvm::Value* row) -> Status {
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
      }));
      RestoreBindings(std::move(saved));
      b_.CreateBr(done_bb);
      b_.SetInsertPoint(done_bb);
      return Status::OK();
    }
    PROTEUS_RETURN_NOT_OK(Materialize({op.right_key()}));
    PROTEUS_ASSIGN_OR_RETURN(CgValue key, EmitExpr(op.right_key()));
    PROTEUS_ASSIGN_OR_RETURN(llvm::Value * word, JoinKeyWord(op, key));
    llvm::Value* match_ptr = EntryAlloca(i64p, nullptr, "match");
    auto probe_first = [&]() {
      return b_.CreateCall(
          Helper("proteus_join_probe_first", i64p, {i8p, b_.getInt32Ty(), b_.getInt64Ty()}),
          {CtxPtr(), table_v, word});
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
    // The probe row's fields that operators above read: once the first
    // match is found, before the match loop — not once per match.
    auto* pre_bb = llvm::BasicBlock::Create(*llctx_, "probe.pre", fn_);
    auto* cond_bb = llvm::BasicBlock::Create(*llctx_, "probe.cond", fn_);
    auto* body_bb = llvm::BasicBlock::Create(*llctx_, "probe.body", fn_);
    auto* exit_bb = llvm::BasicBlock::Create(*llctx_, "probe.exit", fn_);
    b_.CreateCondBr(b_.CreateIsNotNull(b_.CreateLoad(i64p, match_ptr)), pre_bb, exit_bb);
    b_.SetInsertPoint(pre_bb);
    PROTEUS_RETURN_NOT_OK(MaterializePending());
    b_.CreateBr(cond_bb);
    b_.SetInsertPoint(cond_bb);
    llvm::Value* cur = b_.CreateLoad(i64p, match_ptr);
    b_.CreateCondBr(b_.CreateIsNotNull(cur), body_bb, exit_bb);
    b_.SetInsertPoint(body_bb);

    RebindPayload(op, cur);

    // The full predicate: its equi conjunct rejects the build rows whose
    // key only shares the word (hash collisions, NaN) — Value::Equals, as
    // the interpreter's key check — and the residual conjuncts follow. Outer
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
    // A drained row's bindings stay in its branch.
    BindingState saved = SaveBindings();
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
    RestoreBindings(std::move(saved));
    b_.CreateBr(merge_bb);
    b_.SetInsertPoint(merge_bb);
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Nest
// ---------------------------------------------------------------------------

Codegen::TaggedValue Codegen::Tagged(const CgValue& v) {
  auto tag = [&](GroupKeyTag t) { return b_.getInt32(static_cast<uint32_t>(t)); };
  TaggedValue out;
  out.bits = b_.getInt64(0);
  out.str = llvm::ConstantPointerNull::get(b_.getInt8PtrTy());
  out.len = b_.getInt64(0);
  if (v.kind == TypeKind::kString) {
    out.tag = tag(GroupKeyTag::kString);
    out.str = v.v;
    out.len = v.len;
  } else if (v.kind == TypeKind::kFloat64) {
    out.tag = tag(GroupKeyTag::kFloat);
    out.bits = b_.CreateBitCast(v.v, b_.getInt64Ty());
  } else if (v.kind == TypeKind::kBool) {
    out.tag = tag(GroupKeyTag::kBool);
    out.bits = b_.CreateZExt(v.v, b_.getInt64Ty());
  } else {
    out.tag = tag(GroupKeyTag::kInt);
    out.bits = v.v;
  }
  if (v.null != nullptr) out.tag = b_.CreateSelect(v.null, tag(GroupKeyTag::kNull), out.tag);
  return out;
}

llvm::Value* Codegen::EmitGroupUpsert(llvm::Value* table, const CgValue& key) {
  auto* i8p = b_.getInt8PtrTy();
  auto* i64 = b_.getInt64Ty();
  const TaggedValue k = Tagged(key);
  return b_.CreateCall(Helper("proteus_group_upsert", i64->getPointerTo(),
                              {i8p, b_.getInt32Ty(), i64, i8p, i64}),
                       {table, k.tag, k.bits, k.str, k.len});
}

Status Codegen::EmitGroupUpdate(const Operator& op, const GroupLayout& layout,
                                llvm::Value* table, llvm::Value* row) {
  auto* i8p = b_.getInt8PtrTy();
  auto* i64 = b_.getInt64Ty();
  const size_t n = op.outputs().size();
  llvm::Value* row_bytes = b_.CreateBitCast(row, i8p);
  for (size_t i = 0; i < n; ++i) {
    const AggOutput& o = op.outputs()[i];
    const GroupSlot slot = layout.outputs[i].slot;
    llvm::Value* slot_ptr = b_.CreateGEP(i64, row, b_.getInt64(i));
    llvm::Value* raw = b_.CreateLoad(i64, slot_ptr);
    if (o.monoid == Monoid::kCount) {
      b_.CreateStore(b_.CreateAdd(raw, b_.getInt64(1)), slot_ptr);
      continue;
    }
    PROTEUS_ASSIGN_OR_RETURN(CgValue v, EmitExpr(o.expr));
    if (slot == GroupSlot::kAggregator) {
      // A null value boxes as kNull, which the helper skips.
      const TaggedValue t = Tagged(v);
      b_.CreateCall(Helper("proteus_group_agg", b_.getVoidTy(),
                           {i8p, i64->getPointerTo(), b_.getInt32Ty(), b_.getInt32Ty(), i64,
                            i8p, i64}),
                    {table, row, b_.getInt32(static_cast<uint32_t>(i)), t.tag, t.bits, t.str,
                     t.len});
      continue;
    }
    if (v.kind == TypeKind::kString || (v.kind == TypeKind::kFloat64 && slot != GroupSlot::kFloat)) {
      return Status::Unimplemented("jit: nest output '" + o.name +
                                   "' does not fit its group slot");
    }
    llvm::Value* seen_ptr = b_.CreateGEP(b_.getInt8Ty(), row_bytes, b_.getInt64(8 * n + i));
    llvm::Value* seen = b_.CreateLoad(b_.getInt8Ty(), seen_ptr);
    llvm::Value* unseen = b_.CreateICmpEQ(seen, b_.getInt8(0));
    llvm::Value* updated;
    if (slot == GroupSlot::kFloat) {
      // Same fold as GroupTable's: sums add in row order from 0.0, max/min
      // replace on the first value or a strict ordered win.
      llvm::Value* acc = b_.CreateBitCast(raw, b_.getDoubleTy());
      llvm::Value* x = ToDouble(v);
      llvm::Value* res;
      if (o.monoid == Monoid::kSum) {
        res = b_.CreateFAdd(acc, x);
      } else {
        llvm::Value* wins = o.monoid == Monoid::kMax ? b_.CreateFCmpOGT(x, acc)
                                                     : b_.CreateFCmpOLT(x, acc);
        res = b_.CreateSelect(b_.CreateOr(unseen, wins), x, acc);
      }
      updated = b_.CreateBitCast(res, i64);
    } else {
      llvm::Value* x = v.kind == TypeKind::kBool ? b_.CreateZExt(v.v, i64) : v.v;
      switch (o.monoid) {
        case Monoid::kSum: updated = b_.CreateAdd(raw, x); break;
        case Monoid::kAnd: updated = b_.CreateAnd(raw, x); break;
        case Monoid::kOr: updated = b_.CreateOr(raw, x); break;
        default: {
          llvm::Value* wins = o.monoid == Monoid::kMax ? b_.CreateICmpSGT(x, raw)
                                                       : b_.CreateICmpSLT(x, raw);
          updated = b_.CreateSelect(b_.CreateOr(unseen, wins), x, raw);
        }
      }
    }
    llvm::Value* new_seen = b_.getInt8(1);
    if (v.null != nullptr) {
      // Null inputs do not contribute to aggregates (Eval semantics).
      updated = b_.CreateSelect(v.null, raw, updated);
      new_seen = b_.CreateSelect(v.null, seen, new_seen);
    }
    b_.CreateStore(updated, slot_ptr);
    b_.CreateStore(new_seen, seen_ptr);
  }
  return Status::OK();
}

Status Codegen::EmitNestFold(const Operator& op) {
  if (!op.group_by()->type()) return Status::Internal("jit: un-typechecked group key");
  const GroupLayout layout = GroupLayout::ForNest(op);
  const uint32_t id = layout_->AddGroup(layout);
  group_ids_[&op] = id;
  auto* i8p = b_.getInt8PtrTy();
  llvm::Value* table = b_.CreateCall(Helper("proteus_group_table", i8p, {i8p, b_.getInt32Ty()}),
                                     {CtxPtr(), b_.getInt32(id)});
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

    PROTEUS_RETURN_NOT_OK(Materialize(NestExprs(op)));
    PROTEUS_ASSIGN_OR_RETURN(CgValue key, EmitExpr(op.group_by()));
    // The group loops reading this table bind a null flag on the key only
    // when some folded key could be null.
    if (key.null != nullptr) nullable_group_keys_.insert(&op);
    return EmitGroupUpdate(op, layout, table, EmitGroupUpsert(table, key));
  };
  return EmitProduce(op.child(0), [&]() { return EmitFilter(op.pred(), update); });
}

Status Codegen::EmitNestGroups(const Operator& op, llvm::Value* lo, llvm::Value* hi,
                               const Consume& consume) {
  const TypeKind key_kind = op.group_by()->type()->kind();
  auto* i8p = b_.getInt8PtrTy();
  auto* i64 = b_.getInt64Ty();
  const uint32_t id = group_ids_.at(&op);
  const GroupLayout& layout = layout_->groups[id];
  const size_t n = op.outputs().size();
  llvm::Value* table = b_.CreateCall(Helper("proteus_group_table", i8p, {i8p, b_.getInt32Ty()}),
                                     {CtxPtr(), b_.getInt32(id)});
  if (hi == nullptr) {
    hi = b_.CreateCall(Helper("proteus_group_count", i64, {i8p}), {table});
  }
  // proteus_group_row's view of one group (layout in runtime.h).
  llvm::Value* view = EntryAlloca(i64, b_.getInt64(4 + 2 * n), "group_row");
  auto field = [&](size_t k) { return b_.CreateLoad(i64, b_.CreateGEP(i64, view, b_.getInt64(k))); };
  const std::string& gvar = NestBinding(op);
  // Only fields some expression reads are bound.
  auto needed = [&](const std::string& name) {
    auto it = needed_.find(gvar);
    return it != needed_.end() &&
           std::find(it->second.begin(), it->second.end(), FieldPath{name}) != it->second.end();
  };
  return EmitRangeLoop(lo, hi, [&](llvm::Value* g) -> Status {
    b_.CreateCall(Helper("proteus_group_row", b_.getVoidTy(), {i8p, i64, i64->getPointerTo()}),
                  {table, g, view});
    if (needed(op.group_name())) {
      CgValue keyv;
      llvm::Value* raw = field(0);
      if (key_kind == TypeKind::kString) {
        keyv.kind = TypeKind::kString;
        keyv.v = b_.CreateIntToPtr(raw, i8p);
        keyv.len = field(1);
      } else if (key_kind == TypeKind::kBool) {
        keyv.kind = TypeKind::kBool;
        keyv.v = b_.CreateICmpNE(raw, b_.getInt64(0));
      } else if (key_kind == TypeKind::kFloat64) {
        keyv.kind = TypeKind::kFloat64;
        keyv.v = b_.CreateBitCast(raw, b_.getDoubleTy());
      } else {
        keyv.kind = TypeKind::kInt64;
        keyv.v = raw;
      }
      if (nullable_group_keys_.count(&op) != 0) {
        keyv.null = b_.CreateICmpNE(field(2), b_.getInt64(0));
      }
      bindings_[Key(gvar, {op.group_name()})] = keyv;
    }
    llvm::Value* row = b_.CreateIntToPtr(field(3), i64->getPointerTo());
    llvm::Value* row_bytes = b_.CreateBitCast(row, i8p);
    for (size_t i = 0; i < n; ++i) {
      const AggOutput& o = op.outputs()[i];
      if (!needed(o.name)) continue;
      const GroupSlot slot = layout.outputs[i].slot;
      const bool extreme = o.monoid == Monoid::kMax || o.monoid == Monoid::kMin;
      CgValue cv;
      if (slot == GroupSlot::kAggregator) {
        // A string max/min (Prepare typed nothing else here): its extreme,
        // read in place; a null address is the unseen (null) extreme.
        llvm::Value* addr = field(4 + 2 * i);
        cv.kind = TypeKind::kString;
        cv.v = b_.CreateIntToPtr(addr, i8p);
        cv.len = field(5 + 2 * i);
        cv.null = b_.CreateICmpEQ(addr, b_.getInt64(0));
      } else {
        llvm::Value* raw = b_.CreateLoad(i64, b_.CreateGEP(i64, row, b_.getInt64(i)));
        if (slot == GroupSlot::kFloat) {
          cv.kind = TypeKind::kFloat64;
          cv.v = b_.CreateBitCast(raw, b_.getDoubleTy());
        } else if (slot == GroupSlot::kBool) {
          cv.kind = TypeKind::kBool;
          cv.v = b_.CreateICmpNE(raw, b_.getInt64(0));
        } else {
          cv.kind = TypeKind::kInt64;
          cv.v = raw;
        }
        if (extreme) {
          // An unseen max/min is SQL null, as GroupTable::Cell reports it.
          llvm::Value* seen = b_.CreateLoad(
              b_.getInt8Ty(), b_.CreateGEP(b_.getInt8Ty(), row_bytes, b_.getInt64(8 * n + i)));
          cv.null = b_.CreateICmpEQ(seen, b_.getInt8(0));
        }
      }
      bindings_[Key(gvar, {o.name})] = cv;
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
    case OpKind::kCacheScan:
      return EmitScan(op, consume);
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
      return EmitNestGroups(*op, b_.getInt64(0), nullptr, consume);
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
    PROTEUS_RETURN_NOT_OK(Materialize(cols));
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

  std::vector<ExprPtr> inputs;
  for (const auto& o : outputs) inputs.push_back(o.expr);
  auto update = [&]() -> Status {
    PROTEUS_RETURN_NOT_OK(Materialize(inputs));
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

/// Nest directly under the root: one upsert per row into this morsel's
/// GroupTable partial, then the slot updates inline — the fold a mid-chain
/// Nest emits too. The merged groups stream through the Reduce root in
/// FinalizePlanPartials — the same code the interpreter's parallel path
/// runs — so group order and aggregate bits match it exactly.
Status Codegen::EmitNestMorsel(const Operator& op) {
  if (!op.group_by()->type()) return Status::Internal("jit: un-typechecked group key");
  const GroupLayout layout = GroupLayout::ForNest(op);
  auto* i8p = b_.getInt8PtrTy();
  llvm::Value* table =
      b_.CreateCall(Helper("proteus_morsel_groups", i8p, {i8p}), {SinkPtr()});
  Consume update = [&]() -> Status {
    PROTEUS_RETURN_NOT_OK(Materialize(NestExprs(op)));
    PROTEUS_ASSIGN_OR_RETURN(CgValue key, EmitExpr(op.group_by()));
    return EmitGroupUpdate(op, layout, table, EmitGroupUpsert(table, key));
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
  pending_.clear();
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

llvm::Value* Codegen::ConstI64Array(const std::vector<int64_t>& values) {
  auto* ty = llvm::ArrayType::get(b_.getInt64Ty(), values.size());
  std::vector<llvm::Constant*> elems;
  for (int64_t v : values) elems.push_back(b_.getInt64(static_cast<uint64_t>(v)));
  auto* g = new llvm::GlobalVariable(*module_, ty, /*isConstant=*/true,
                                     llvm::GlobalValue::PrivateLinkage,
                                     llvm::ConstantArray::get(ty, elems), "fields");
  g->setUnnamedAddr(llvm::GlobalValue::UnnamedAddr::Global);
  return b_.CreateConstInBoundsGEP2_64(ty, g, 0, 0);
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

/// Runs the standard O2 pass pipeline over `m` (mem2reg/SROA promotes the
/// virtual buffers to registers, the rest fuses the pipeline into tight
/// loops).
void RunPassPipeline(llvm::Module& m) {
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
  auto mpm = pb.buildPerModuleDefaultPipeline(llvm::OptimizationLevel::O2);
  mpm.run(m, mam);
}

/// Generates, optimizes, and links `plan` — whose main chain is `pipe` and
/// whose PlanShape::literals are `literals` — into a position-independent
/// jit::CompiledModule (parameter table + runtime layout instead of baked
/// constants and literal values) that the CompiledQueryCache can reuse
/// across executions, threads, shards, and plans of the same shape. The IR
/// is optimized at O2 and linked into its own dylib of the process's one JIT
/// session (src/jit/session.h).
Result<std::shared_ptr<const jit::CompiledModule>> CompileAndLink(
    const ExecContext& ctx, const OpPtr& plan, const MorselPipeline& pipe,
    const std::vector<const Expr*>& literals) {
  OBS_SPAN(ctx.trace, "jit_compile");
  auto out = std::make_shared<jit::CompiledModule>();
  jit::ParamTable param_table;
  Codegen cg(ctx, &out->layout, &param_table, literals);
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

  {
    OBS_SPAN(ctx.trace, "ir_optimize");
    RunPassPipeline(*module);
  }

  // Codegen and link: the module joins the shared session in its own dylib,
  // compiled on the first lookup.
  OBS_SPAN(ctx.trace, "ir_codegen_link");
  PROTEUS_ASSIGN_OR_RETURN(out->code, jit::LinkModule(std::move(module), std::move(llctx)));
  PROTEUS_ASSIGN_OR_RETURN(void* b, out->code->Lookup("proteus_build"));
  PROTEUS_ASSIGN_OR_RETURN(void* p, out->code->Lookup("proteus_pipeline"));
  out->build_fn = reinterpret_cast<jit::CompiledModule::BuildFn>(b);
  out->pipeline_fn = reinterpret_cast<jit::CompiledModule::PipelineFn>(p);
  out->driver_group = cg.driver_group();
  out->outer_join_tables = cg.outer_join_tables();
  for (size_t k = 0; k < out->outer_join_tables.size(); ++k) {
    PROTEUS_ASSIGN_OR_RETURN(void* d, out->code->Lookup("proteus_drain" + std::to_string(k)));
    out->drain_fns.push_back(reinterpret_cast<jit::CompiledModule::DrainFn>(d));
  }
  return std::shared_ptr<const jit::CompiledModule>(std::move(out));
}

}  // namespace

// ---------------------------------------------------------------------------
// Public compile entry points (tiered controller)
// ---------------------------------------------------------------------------

namespace jit {

namespace {

/// MakeQueryCacheKey over an already computed PlanShape::signature.
QueryCacheKey KeyForShape(const ExecContext& ctx, const OpPtr& plan, std::string signature) {
  QueryCacheKey key;
  key.signature = std::move(signature);
  // Join strategies are not part of Signature() (the logical plan is the
  // same either way) but the compiled module bakes each table's bucket
  // layout into its RuntimeLayout — two strategy assignments must never
  // share a cache entry.
  //
  // The module also bakes constants of every dataset its leaves open, so the
  // key carries each one's current version: invalidating a dataset retires
  // exactly the modules that read it.
  std::vector<std::string> datasets;
  std::function<void(const Operator&)> walk = [&](const Operator& op) {
    if (op.kind() == OpKind::kJoin && op.left_key() != nullptr) {
      if (!key.join_strategies.empty()) key.join_strategies.push_back(',');
      key.join_strategies.append(JoinStrategyName(op.join_strategy()));
    }
    if ((op.kind() == OpKind::kScan || op.kind() == OpKind::kCacheScan) &&
        !op.dataset().empty()) {
      datasets.push_back(op.dataset());
    }
    for (const auto& c : op.children()) walk(*c);
  };
  walk(*plan);
  std::sort(datasets.begin(), datasets.end());
  datasets.erase(std::unique(datasets.begin(), datasets.end()), datasets.end());
  key.datasets.reserve(datasets.size());
  for (const std::string& d : datasets) {
    const uint64_t version = ctx.catalog != nullptr ? ctx.catalog->version(d) : 0;
    key.datasets.push_back(d + "@" + std::to_string(version));
  }
  return key;
}

}  // namespace

QueryCacheKey MakeQueryCacheKey(const ExecContext& ctx, const OpPtr& plan) {
  return KeyForShape(ctx, plan, ShapeOfPlan(*plan).signature);
}

Result<std::shared_ptr<const CompiledModule>> CompilePlan(const ExecContext& ctx,
                                                          const OpPtr& plan) {
  if (plan == nullptr || plan->kind() != OpKind::kReduce) {
    return Status::InvalidArgument("jit: plan root must be Reduce");
  }
  MorselPipeline pipe;
  if (!CollectPlanPipeline(plan, &pipe)) {
    return Status::InvalidArgument("jit: plan has no pipeline chain under its Reduce root");
  }
  return CompileAndLink(ctx, plan, pipe, ShapeOfPlan(*plan).literals);
}

}  // namespace jit

// ---------------------------------------------------------------------------
// JitExecutor
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const jit::CompiledModule>> JitExecutor::GetOrCompileModule(
    const OpPtr& plan, const MorselPipeline& pipe, const jit::PlanShape& shape,
    jit::RegionStats* stats) {
  auto compile = [&]() -> Result<std::shared_ptr<const jit::CompiledModule>> {
    auto t0 = std::chrono::steady_clock::now();
    auto r = CompileAndLink(ctx_, plan, pipe, shape.literals);
    // Recorded on failure too: an aborted codegen attempt (e.g. an
    // Unimplemented feature discovered mid-emission) costs real wall time
    // that fallback telemetry must attribute to compile_ms, not execute_ms.
    stats->compile_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    stats->compile_wait_ms = stats->compile_ms;
    return r;
  };
  if (ctx_.jit_cache == nullptr || ctx_.catalog == nullptr) return compile();
  const jit::QueryCacheKey key = jit::KeyForShape(ctx_, plan, shape.signature);
  // On a hit (or a single-flight wait on another thread's compile)
  // compile_ms stays 0: this execution generated no IR at all.
  // The probe span covers the whole lookup — a miss nests the jit_compile
  // span inside it, so the probe-only cost is the difference.
  obs::TraceSpan probe(ctx_.trace, "cache_probe");
  auto r = ctx_.jit_cache->GetOrCompile(key, compile, &stats->cache_hit, ctx_.trace);
  probe.set_arg0("hit", stats->cache_hit ? 1 : 0);
  return r;
}

Result<PlanPartials> JitExecutor::ExecuteRegion(const OpPtr& plan, std::optional<ScanRange> slice,
                                                jit::RegionStats* stats,
                                                std::shared_ptr<const jit::CompiledModule> module) {
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
  if (slice.has_value() && !outer.empty()) {
    // Mirror of InterpExecutor::ExecutePartials: a shard sees only its
    // morsel slice, but the unmatched-build drain needs every probe morsel's
    // bitmap — a global view.
    return Status::InvalidArgument(
        "outer joins cannot run in morsel chunks: the unmatched-build drain is global");
  }

  // The running plan's literals: whichever plan of this shape the module
  // was compiled for, this run binds its own values.
  const jit::PlanShape shape = jit::ShapeOfPlan(*plan);
  // Without a module (the tiered swap path hands one in: the background
  // thread compiled and cached it already) resolve it through the cache.
  std::shared_ptr<const jit::CompiledModule> cq = std::move(module);
  if (cq == nullptr) {
    PROTEUS_ASSIGN_OR_RETURN(cq, GetOrCompileModule(plan, pipe, shape, stats));
  }

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
                           jit::BindParams(ctx_, cq->params, shape.literals, &pinned_blocks));

  // Shared join builds and a Nest driver leaf's fold run once (radix tables
  // build through the parallel RadixTable::Build path via rt.scheduler),
  // then freeze.
  {
    OBS_SPAN(ctx_.trace, "join_build");
    jit::MorselCtx build_ctx(&rt);
    cq->build_fn(&build_ctx, params.data());
  }
  PROTEUS_RETURN_NOT_OK(CheckCancelled(ctx_));
  if (rt.failed()) return rt.error();

  // The global morsel decomposition — the exact frame the interpreter (and,
  // for scan leaves, the shard coordinator) uses, so every engine agrees on
  // partial boundaries. A Nest leaf's morsels split its folded groups.
  std::vector<ScanRange> all;
  if (cq->driver_group >= 0) {
    all = SplitRowMorsels(ctx_, rt.groups[static_cast<size_t>(cq->driver_group)]->size());
  } else {
    PROTEUS_ASSIGN_OR_RETURN(all, SplitLeafMorsels(ctx_, *pipe.leaf));
  }
  const uint64_t morsel_begin = slice.has_value() ? slice->begin : 0;
  PROTEUS_ASSIGN_OR_RETURN(
      const std::vector<ScanRange> morsels,
      MorselSlice(all, morsel_begin, slice.has_value() ? slice->end : all.size()));
  const size_t n = morsels.size();

  // One partial sink per morsel plus one trailing slot per outer-join drain
  // (the shared PlanPartialSlots frame); workers write disjoint slots, so
  // the fan-out needs no locking and the merge below is deterministic in
  // morsel order.
  const size_t slots = PlanPartialSlots(pipe, n);
  PlanPartials partials;
  partials.nest = nest != nullptr;
  std::vector<JitMorselSink> sinks(slots);
  if (nest != nullptr) {
    partials.group_morsels.assign(slots, GroupTable(GroupLayout::ForNest(*nest)));
    for (size_t m = 0; m < slots; ++m) sinks[m].groups = &partials.group_morsels[m];
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
  std::deque<jit::MorselCtx> ctxs;
  for (int w = 0; w < workers; ++w) ctxs.emplace_back(&rt);

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
    if (rt.failed()) return rt.error();
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
  if (rt.failed()) return rt.error();

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
    if (rt.failed()) return rt.error();
  }

  stats->used_jit = true;
  stats->ir_verified = cq->ir_verified;
  stats->module = cq;
  stats->morsels = n;
  stats->threads = static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(workers), std::max<size_t>(n, 1)));
  return partials;
}

Result<QueryResult> JitExecutor::Execute(const OpPtr& plan) {
  jit::RegionStats stats;
  PROTEUS_ASSIGN_OR_RETURN(PlanPartials partials,
                           ExecuteRegion(plan, std::nullopt, &stats));
  return FinalizePlanPartials(*plan, RootNest(plan), std::move(partials), ctx_.trace);
}

Result<PlanPartials> JitExecutor::ExecutePartialsPrecompiled(
    const OpPtr& plan, std::shared_ptr<const jit::CompiledModule> module,
    uint64_t morsel_begin, uint64_t morsel_end) {
  if (module == nullptr) {
    return Status::InvalidArgument("jit: precompiled module is null");
  }
  jit::RegionStats stats;
  return ExecuteRegion(plan, ScanRange{morsel_begin, morsel_end}, &stats, std::move(module));
}

}  // namespace proteus
