// The on-demand query engine (paper §5.1 "An Engine per Query").
//
// The JitExecutor traverses a physical plan once, post-order, and emits
// LLVM IR — scans become loops, selections become branches, pipelined
// operators fuse into their parent's loop body, and blocking operators
// (radix-join build, nest) split the emission into consecutive pipelines.
// Field values live in virtual buffers (allocas) that LLVM's mem2reg
// promotes to CPU registers. The IR is optimized and compiled to machine
// code by ORC within milliseconds, then run.
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
// row order — into the typed GroupTable, and the pipeline function's
// morsels range over that table's groups.
//
// Compiled code is position-independent (src/jit/query_cache.h): data
// pointers, relation sizes, plug-in addresses, and the plan's literal values
// live in a per-execution parameter table, not the instruction stream, so a
// module compiled once can be cached by plan shape and re-run — across
// executions, threads, shards, and literal values — after a cheap re-bind.
// When ExecContext::jit_cache is set, the executor looks modules up there
// before compiling (concurrent lookups of one shape single-flight), and the
// region stats (jit::RegionStats) report how the plan was served.
//
// Generated `/` and `%` check their divisor: a zero divisor of non-null
// operands fails the query with the interpreter's status (division by zero
// / modulo by zero). Like Eval(), the generated code evaluates the right
// operand of and/or, and the branches of if, only when the result needs
// them, so a guarded division cannot fail a row the interpreter accepts.
//
// Outer joins on the main chain compile too: probe pipelines set per-morsel
// matched-build bitmaps through their partial sink, and one generated
// proteus_drain<k> function per outer chain join runs once after all probe
// morsels report, emitting the unmatched build rows (probe side bound to
// SQL null) through the ops above the join into trailing partial slots —
// the interpreter's exact drain frame. Outer unnests emit a null-element
// branch, and set-monoid roots emit through the collection sink whose kSet
// Aggregator deduplicates per morsel before the morsel-order merge. Every
// JSON read carries a null flag from the index lookup that finds the value
// (an absent field or a JSON null is SQL null, as in the interpreter), so
// null join keys never match on either build or probe side.
//
// Join tables come in two bucket layouts — shared (one clustered array) and
// radix-partitioned (per-partition sub-tables with partition-local
// directories) — selected per join by the optimizer's skew-aware strategy
// pass (see docs/JOINS.md). Both produce identical probe chain orders, so
// the choice is invisible to results; it is baked into the compiled module
// and therefore part of the query-cache key. Equi joins of every key type
// probe by one i64 key word per key (strings hash their bytes, a float on
// either side makes both sides hash their double value) and re-check the
// join predicate per match. Non-equi joins compile to a
// nested loop over the frozen build rows (the interpreter's exact match
// enumeration), and every Nest folds into the same typed GroupTable the
// interpreter writes (partial_sink.h), float keys included.
//
// Plans using features still outside the generated fast path (outer joins
// off the main pipeline chain, collection monoids inside Nest, deep paths
// inside array elements) return
// Unimplemented — every violation in the plan is reported, semicolon-joined
// — and the region runner (jit::RunRegion) transparently falls back to the
// (morsel-parallel) interpreter — recording the failed attempt's compile
// time and its reason honestly. tests/test_jit_equiv.cpp is the differential harness
// asserting JIT ≡ interpreter, cell for cell, on everything the JIT
// accepts.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/algebra/algebra.h"
#include "src/engine/interp.h"
#include "src/engine/result.h"
#include "src/jit/query_cache.h"

namespace proteus {

namespace jit {

struct RegionStats;

/// Cache key of `plan` under the engine state in `ctx` — exactly the key
/// JitExecutor uses for its compiled-query-cache lookups, exposed so the
/// tiered controller can probe (TryGet) and compile (GetOrCompile) behind
/// the same key. Opens the plug-in of every dataset the plan reads (the
/// key holds their layout fingerprints), so it fails when one cannot open.
Result<QueryCacheKey> MakeQueryCacheKey(const ExecContext& ctx, const OpPtr& plan);

/// Compiles `plan` to a ready CompiledModule without consulting any cache,
/// through the one O2 pipeline every compile uses. Returns Unimplemented for
/// plans outside the generated fast path.
Result<std::shared_ptr<const CompiledModule>> CompilePlan(const ExecContext& ctx,
                                                          const OpPtr& plan);

// ---- Benchmark-harness compatibility: delete in the next benchmark PR -----
// perfbench/replay.cpp is frozen with the benchmark and still names the
// codegen mode that once chose between whole-relation and morsel code, and
// the optimization tier that once chose between two compile pipelines.
// Every plan now compiles to morsel pipelines at one level, so these
// overloads accept the mode and the tier and ignore them. Engine code never
// uses them.
enum class CodegenMode : uint8_t { kWholeRelation, kMorsel };
/// The harness opens the plan's plug-ins before it builds a key; should an
/// open fail anyway, the key holds no layouts, and the compile behind it
/// fails on the same open and is not cached.
inline QueryCacheKey MakeQueryCacheKey(const ExecContext& ctx, const OpPtr& plan, CodegenMode) {
  Result<QueryCacheKey> key = MakeQueryCacheKey(ctx, plan);
  return key.ok() ? std::move(*key) : QueryCacheKey{ShapeOfPlan(*plan).signature, "", {}};
}
inline Result<std::shared_ptr<const CompiledModule>> CompilePlan(const ExecContext& ctx,
                                                                 const OpPtr& plan, CodegenMode,
                                                                 int /*tier*/) {
  return CompilePlan(ctx, plan);
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
  /// never change the fold shape. Returns Unimplemented for plans (or
  /// features) outside the generated fast path.
  Result<QueryResult> Execute(const OpPtr& plan);

  /// The region runner's generated-code step: runs `slice` of the global
  /// decomposition — the whole plan, outer-join drains included, when
  /// nullopt — off `module`, or off the module resolved through the cache
  /// (or compiled) when `module` is null, and returns per-morsel partial
  /// sinks bit-identical to the interpreter's, so shards can mix engines
  /// freely. Fills `stats` (served module, compile_ms, cache_hit,
  /// morsels, threads); on Unimplemented, compile_ms still holds the aborted
  /// attempt's cost.
  Result<PlanPartials> ExecuteRegion(const OpPtr& plan, std::optional<ScanRange> slice,
                                     jit::RegionStats* stats,
                                     std::shared_ptr<const jit::CompiledModule> module = nullptr);

  /// Tiered hot-swap entry: runs morsels [morsel_begin, morsel_end) off a
  /// module the background compiler already produced — no cache lookup and
  /// no compile on this thread, which is what makes the swap a
  /// morsel-boundary O(bind) operation. The module must have been compiled
  /// for an identical plan shape (jit::ShapeOfPlan); the run binds `plan`'s
  /// own literals.
  Result<PlanPartials> ExecutePartialsPrecompiled(
      const OpPtr& plan, std::shared_ptr<const jit::CompiledModule> module,
      uint64_t morsel_begin, uint64_t morsel_end);

 private:
  /// Resolves the plan to a ready CompiledModule: through the shared
  /// shape-keyed cache when ExecContext::jit_cache is set (concurrent
  /// misses single-flight — one thread compiles, the rest wait and share),
  /// else by compiling directly. Records compile_ms / cache_hit in `stats`.
  Result<std::shared_ptr<const jit::CompiledModule>> GetOrCompileModule(
      const OpPtr& plan, const MorselPipeline& pipe, const jit::PlanShape& shape,
      jit::RegionStats* stats);

  ExecContext ctx_;
};

}  // namespace proteus
