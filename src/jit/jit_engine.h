// The on-demand query engine (paper §5.1 "An Engine per Query").
//
// The JitExecutor traverses a physical plan once, post-order, and emits
// LLVM IR — scans become loops, selections become branches, pipelined
// operators fuse into their parent's loop body, and blocking operators
// (radix-join build, nest) split the emission into consecutive pipelines.
// Field values live in virtual buffers (allocas) that LLVM's mem2reg
// promotes to CPU registers. The IR is optimized and compiled to machine
// code by ORC LLJIT within milliseconds, then run.
//
// Every plan compiles to *range-parameterized* pipelines: proteus_build(ctx)
// runs shared join builds once, then the scheduler drives
// proteus_pipeline(ctx, sink, morsel_begin, morsel_end) — one call per
// morsel of the driver leaf's decomposition, each feeding a private partial
// sink (partial_sink.h) — and the partials merge in global morsel order
// through the same fold the interpreter uses. Results are therefore
// cell-identical for every thread count and across engines; num_threads is
// purely a performance knob even with codegen on. A Nest below the root is
// a pipeline breaker: proteus_build folds its input region — serially, in
// row order — into a packed group table, and the pipeline function's
// morsels range over that table's groups.
//
// Compiled code is position-independent (src/jit/query_cache.h): data
// pointers, relation sizes, and plug-in addresses live in a per-execution
// parameter table, not the instruction stream, so a module compiled once can
// be cached by plan signature and re-run — across executions, threads, and
// shards — after a cheap re-bind. When ExecContext::jit_cache is set, the
// executor looks modules up there before compiling (concurrent lookups of
// one signature single-flight), and last_cache_hit()/last_compile_ms()
// report how the plan was served.
//
// Outer joins on the main chain compile too: probe pipelines set per-morsel
// matched-build bitmaps through their partial sink, and one generated
// proteus_drain<k> function per outer chain join runs once after all probe
// morsels report, emitting the unmatched build rows (probe side bound to
// SQL null) through the ops above the join into trailing partial slots —
// the interpreter's exact drain frame. Outer unnests emit a null-element
// branch, and set-monoid roots emit through the collection sink whose kSet
// Aggregator deduplicates per morsel before the morsel-order merge. Join
// keys read from JSON carry a generated presence check so null keys never
// match, mirroring the interpreter's null-key rule on both build and probe
// sides.
//
// Join tables come in two bucket layouts — shared (one clustered array) and
// radix-partitioned (per-partition sub-tables with partition-local
// directories) — selected per join by the optimizer's skew-aware strategy
// pass (see docs/JOINS.md). Both produce identical probe chain orders, so
// the choice is invisible to results; it is baked into the compiled module
// and therefore part of the query-cache key. Non-equi joins compile to a
// nested loop over the frozen build rows (the interpreter's exact match
// enumeration), and float group keys box through the same Value-keyed group
// table the interpreter uses.
//
// Plans using features still outside the generated fast path (non-integer
// equi-join keys, outer joins off the main pipeline chain, collection or
// boolean monoids inside Nest, nullable group keys of a mid-chain Nest, deep
// paths inside array elements) return
// Unimplemented — every violation in the plan is reported, semicolon-joined
// — and the QueryEngine facade transparently falls back to the
// (morsel-parallel) interpreter — recording the failed attempt's compile
// time honestly. tests/test_jit_equiv.cpp is the differential harness
// asserting JIT ≡ interpreter, cell for cell, on everything the JIT
// accepts.
#pragma once

#include <memory>
#include <string>

#include "src/algebra/algebra.h"
#include "src/engine/interp.h"
#include "src/engine/result.h"
#include "src/jit/query_cache.h"

namespace proteus {

namespace jit {

/// Cache key of `plan` under the engine state in `ctx` — exactly the key
/// JitExecutor uses for its compiled-query-cache lookups, exposed so the
/// tiered controller can probe (TryGet), read hit counts, and Promote behind
/// the same key.
QueryCacheKey MakeQueryCacheKey(const ExecContext& ctx, const OpPtr& plan);

/// Compiles `plan` to a ready CompiledModule without consulting any cache.
/// `tier` selects the optimization pipeline: 1 = the default O2 compile
/// (what every foreground path uses), 2 = the aggressive background
/// recompile — CodeGenOpt::Aggressive codegen on an ORC ConcurrentIRCompiler
/// plus an O3 IRTransformLayer pass — that the tiered controller requests
/// once a signature proves hot. Returns Unimplemented for plans outside the
/// generated fast path.
Result<std::shared_ptr<const CompiledModule>> CompilePlan(const ExecContext& ctx,
                                                          const OpPtr& plan, int tier);

// ---- Benchmark-harness compatibility: delete in the next benchmark PR -----
// perfbench/replay.cpp is frozen with the benchmark and still names the
// codegen mode that once chose between whole-relation and morsel code. Every
// plan now compiles to morsel pipelines, so these overloads accept the mode
// and ignore it. Engine code never uses them.
enum class CodegenMode : uint8_t { kWholeRelation, kMorsel };
inline QueryCacheKey MakeQueryCacheKey(const ExecContext& ctx, const OpPtr& plan, CodegenMode) {
  return MakeQueryCacheKey(ctx, plan);
}
inline Result<std::shared_ptr<const CompiledModule>> CompilePlan(const ExecContext& ctx,
                                                                 const OpPtr& plan, CodegenMode,
                                                                 int tier) {
  return CompilePlan(ctx, plan, tier);
}
// ---- end of benchmark-harness compatibility --------------------------------

}  // namespace jit

class JitExecutor {
 public:
  explicit JitExecutor(ExecContext ctx) : ctx_(ctx) {}

  /// Compiles (or fetches from the cache) and runs `plan` (root must be
  /// Reduce): the plan's pipelines take a (morsel_begin, morsel_end) range
  /// parameter, proteus_build runs shared join builds and a mid-chain Nest
  /// leaf's fold once, the pipeline function is driven over the driver
  /// leaf's morsel decomposition via ctx.scheduler (per-morsel partial
  /// sinks), and the partials merge in global morsel order through
  /// FinalizePlanPartials — the same decomposition and fold the interpreter
  /// uses, so results are cell-identical (float bits included) for every
  /// thread count, to the interpreter, and across engines. Used for all
  /// thread counts (1 included): one morsel frame means the thread count can
  /// never change the fold shape. `stats` (optional) receives the morsel and
  /// worker counts. Returns Unimplemented for plans (or features) outside
  /// the generated fast path; callers fall back to the interpreter.
  Result<QueryResult> Execute(const OpPtr& plan, InterpExecutor::ExecStats* stats = nullptr);

  /// Shard-side execution: runs only morsels [morsel_begin, morsel_end) of
  /// the global decomposition and returns their per-morsel partial sinks —
  /// the JIT counterpart of InterpExecutor::ExecutePartials, producing
  /// bit-identical partials, so shards can mix engines freely.
  Result<PlanPartials> ExecutePartials(const OpPtr& plan, uint64_t morsel_begin,
                                       uint64_t morsel_end);

  /// Tiered hot-swap entry: like ExecutePartials, but runs a module the
  /// background compiler already produced — no cache lookup and no compile
  /// on this thread, which is what makes the swap a morsel-boundary O(bind)
  /// operation. The module must have been compiled for an identical plan
  /// signature.
  Result<PlanPartials> ExecutePartialsPrecompiled(
      const OpPtr& plan, std::shared_ptr<const jit::CompiledModule> module,
      uint64_t morsel_begin, uint64_t morsel_end);

  /// Milliseconds spent generating + compiling IR for the last query. 0 when
  /// the compiled-query cache (ExecContext::jit_cache) served the plan — a
  /// cache hit performs no IR generation or compilation at all, only
  /// parameter binding.
  double last_compile_ms() const { return last_compile_ms_; }
  /// Whether the last query was served by the compiled-query cache.
  bool last_cache_hit() const { return last_cache_hit_; }
  /// The LLVM IR of the last query (before optimization), for inspection.
  /// A reference into the retained module — no per-execution copy, so warm
  /// runs (and shard executors) don't pay O(IR size) per query.
  const std::string& last_ir() const;
  /// The module the last execution ran (null before any run). Surfaces the
  /// served tier to telemetry.
  std::shared_ptr<const jit::CompiledModule> last_module() const { return last_module_; }

 private:
  /// Resolves the plan to a ready CompiledModule: through the shared
  /// signature-keyed cache when ExecContext::jit_cache is set (concurrent
  /// misses single-flight — one thread compiles, the rest wait and share),
  /// else by compiling directly.
  Result<std::shared_ptr<const jit::CompiledModule>> GetOrCompileModule(
      const OpPtr& plan, const MorselPipeline& pipe);
  /// `premodule`, when set, skips module resolution entirely (the tiered
  /// swap path: the background thread compiled it already).
  Result<PlanPartials> RunMorselPipelines(const OpPtr& plan, uint64_t morsel_begin,
                                          uint64_t morsel_end, bool whole_plan,
                                          InterpExecutor::ExecStats* stats,
                                          std::shared_ptr<const jit::CompiledModule> premodule);

  ExecContext ctx_;
  double last_compile_ms_ = 0;
  bool last_cache_hit_ = false;
  /// The last module run, kept alive so last_ir() can reference its IR.
  std::shared_ptr<const jit::CompiledModule> last_module_;
};

}  // namespace proteus
