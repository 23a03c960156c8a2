// Public entry point: the Proteus query engine.
//
// Usage (see examples/):
//
//   proteus::QueryEngine engine;
//   engine.RegisterDataset({.name = "lineitem", .format = DataFormat::kJSON,
//                           .path = "lineitem.json", .type = LineitemSchema()});
//   auto result = engine.Execute(
//       "SELECT count(*), max(l_quantity) FROM lineitem WHERE l_orderkey < 100");
//
// Pipeline per query (paper Fig 2): parse (SQL or comprehension syntax) ->
// monoid calculus -> normalize -> nested relational algebra -> optimize
// (pushdowns, join order via plug-in stats) -> cache matching -> code
// generation (LLVM) -> execution. One region runner (jit::RunRegion)
// chooses the engine — tiered, generated code, or the morsel-driven
// interpreter for plans outside the JIT's fast path — for the whole plan or
// for each shard's morsel slice.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "src/catalog/catalog.h"
#include "src/common/task_scheduler.h"
#include "src/engine/cache.h"
#include "src/engine/interp.h"
#include "src/engine/result.h"
#include "src/jit/query_cache.h"
#include "src/jit/tiered_compiler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/optimizer/optimizer.h"

namespace proteus {

enum class ExecMode {
  kJIT,     ///< generate an engine per query; interpreter fallback
  kInterp,  ///< force the Volcano interpreter (baseline / debugging)
};

struct EngineOptions {
  ExecMode mode = ExecMode::kJIT;
  CachePolicy cache_policy;             ///< caching off by default
  OptimizerOptions optimizer;
  bool collect_stats_on_cold_access = true;
  /// Workers for morsel-driven parallel execution (scans, join build/probe,
  /// partial aggregation). 1 = no extra threads; 0 = hardware concurrency.
  /// Results are identical for every value — morsel boundaries depend only
  /// on the data. Generated (JIT) engines are morsel-parallel too: eligible
  /// plans compile to range-parameterized pipeline functions driven by the
  /// scheduler, so num_threads > 1 keeps codegen speed (telemetry reports
  /// jit_parallel = true). Plans outside the generated fast path fall back
  /// to the morsel-parallel interpreter as before.
  int num_threads = 1;
  /// Target scan rows per morsel (tuning / testing). Affects the morsel
  /// decomposition — deterministically, per dataset — but never the result.
  uint64_t morsel_rows = kDefaultMorselRows;
  /// Shard fan-out for partitioned scale-out execution. 0 = sharding off.
  /// N >= 1 routes shardable plans through the ShardCoordinator: the driver
  /// scan's global morsel decomposition is dealt to N ShardExecutors (each
  /// with its own `num_threads`-worker morsel pool — shards × workers
  /// compose) whose partial results cross a serialized wire format and merge
  /// in shard order. Results are cell-identical for every value by
  /// construction. Plans the coordinator declines (outer joins, Nest
  /// mid-chain) keep their normal path.
  int num_shards = 0;
  /// Entry capacity of the compiled-query cache (signature-keyed reuse of
  /// JIT-compiled modules across executions — and across shards, which all
  /// share the engine's one instance, so N shards of one plan compile it
  /// exactly once). 0 disables the cache: every execution recompiles, the
  /// pre-cache behavior. Results are identical either way — only compile
  /// time (QueryTelemetry::compile_ms) changes.
  size_t jit_cache_capacity = 32;
  /// Tiered execution (opt-in): cold queries start on the morsel-parallel
  /// interpreter immediately while their module compiles on a background
  /// thread (the same O2 compile a foreground miss runs, through the
  /// compiled-query cache), then hot-swap to the generated pipelines at a
  /// morsel boundary. Results are cell-identical to both pure-interpreter
  /// and pure-JIT runs — partials merge in global morsel order regardless
  /// of where the swap lands. Applies in kJIT mode to chunk-decomposable
  /// plans (the shardable shape); others keep their normal path. Telemetry:
  /// morsels_interpreted, morsels_jit, swap_ms, first_morsel_ms.
  bool tiered = false;
  /// Deterministic test hooks for tiered execution.
  jit::TieredOptions tiered_opts;
  /// Query tracing (opt-in): record per-thread spans across every execution
  /// layer — optimizer, cache probes, compiles, join builds, per-morsel
  /// pipelines, shard slices/exchange, tiered swap — and export them as
  /// Chrome trace-event / Perfetto JSON via QueryEngine::trace(). Off by
  /// default; the disabled path is a single null-pointer test per site.
  bool trace = false;
  /// Process-wide metrics sink (opt-in): when set, every execution feeds
  /// query latency, compile cost, cache hit/miss, morsel/steal counts, and
  /// exchange bytes into this registry (e.g. obs::MetricsRegistry::Global()).
  /// Null = no metrics recorded.
  obs::MetricsRegistry* metrics = nullptr;
  /// Generated-code contract verification (src/jit/ir_verifier.h): every
  /// JIT module is checked after LLVM's structural verifyModule against the
  /// engine's code-generation contract — no mutable globals, external calls
  /// only into the proteus_* runtime C-ABI, in-bounds constant param-table
  /// indices, exact entry-point signatures. A violation fails the query with
  /// an Internal status naming each offending symbol (it is a codegen bug,
  /// never valid output). On by default in debug builds; opt-in for release.
#ifdef NDEBUG
  bool verify_ir = false;
#else
  bool verify_ir = true;
#endif
  /// Deterministic test hook: called with the global morsel index at the top
  /// of every main-region morsel any driver (interpreter or JIT) of this
  /// engine is about to run, after the cancel check. Tests block in it to
  /// hold a query at a morsel boundary — e.g. to land a cancellation at a
  /// known execution point. Shared by every concurrent query of the engine;
  /// leave unset in production.
  std::function<void(uint64_t)> morsel_boundary_hook;
};

/// Telemetry of one query, delivered through CallOptions::telemetry.
struct QueryTelemetry {
  double optimize_ms = 0;
  /// This query's JIT compile cost (LLVM IR generation + compilation): 0 on
  /// a compiled-query-cache hit (no IR is generated at all); a failed
  /// attempt before an interpreter fallback still reports its cost. Tiered
  /// runs report the background compile they consumed (0 when the cache
  /// served it). Sharded runs sum their shards' compiles (jit::Merge); the
  /// shared cache compiles a plan once for all shards, so that is one
  /// compile, or 0 when warm; never another query's compile.
  double compile_ms = 0;
  /// The JIT execution was served by the compiled-query cache without
  /// compiling. Sharded runs report true when every shard was served warm;
  /// always false when the cache is disabled (jit_cache_capacity = 0).
  bool jit_cache_hit = false;
  /// Plan run time: wall time less optimize and the foreground compile the
  /// morsels waited on (the slowest shard's, for a sharded run — shards
  /// compile side by side). A tiered run's background compile overlaps the
  /// interpreter, so its wall time stays whole.
  double execute_ms = 0;
  double cache_build_ms = 0;
  bool used_jit = false;
  /// Generated pipelines ran morsel-parallel. Every generated engine is
  /// morsel-driven, so this always equals used_jit; it stays because the
  /// benchmark harness (perfbench/) reads it to name the route.
  bool jit_parallel = false;
  bool used_cache = false;
  /// Workers that ran the main region's morsels (the most in any shard).
  int threads_used = 1;
  /// Morsels of the main region's global decomposition — the region under
  /// the Reduce root, or under a Nest directly under it; join build sides
  /// and a mid-chain Nest's fold are not counted. The same plan reports the
  /// same count on every route (interpreter, JIT, sharded, tiered). Never 0
  /// for an executed query: an empty input still drives one empty morsel.
  uint64_t morsels = 0;
  int shards_used = 0;     ///< shard executors that ran the plan (0 = unsharded)
  uint64_t bytes_exchanged = 0;  ///< serialized partial-result bytes shard→coordinator
  /// Tiered runs: morsels the interpreter executed before the hot-swap and
  /// morsels the generated code executed after it (summed across shards).
  /// Both zero on non-tiered paths.
  uint64_t morsels_interpreted = 0;
  uint64_t morsels_jit = 0;
  /// Tiered runs: ms from execution start to the hot-swap (0 = never
  /// swapped; max across shards), and ms to the first completed morsel
  /// chunk — the cold-start latency the tiered path exists to shrink.
  double swap_ms = 0;
  double first_morsel_ms = 0;
  /// Work-stealing balance of the morsel pools this query: tasks dispatched
  /// through ParallelFor and how many of them were executed by a worker
  /// other than the one they were dealt to. Unsharded runs read the engine
  /// scheduler's delta; sharded runs sum every ShardExecutor's pool.
  uint64_t tasks_dealt = 0;
  uint64_t steals = 0;
  /// The query observed its CallOptions::cancel flag and stopped at a morsel
  /// boundary. The Result carries StatusCode::kCancelled; metrics count the
  /// query under proteus_queries_cancelled_total, not the error counter —
  /// a cancellation the caller asked for is not a failure of the engine.
  bool cancelled = false;
  /// Probe layout the optimizer chose for each equi join of the physical
  /// plan, comma-joined in plan order ("shared" / "partitioned"); empty when
  /// the plan has no equi joins. The same annotation drives the interpreter,
  /// the generated engines, and every shard — strategy never varies by
  /// execution path within one query.
  std::string join_strategy;
  /// Every generated module that served this query passed the IR contract
  /// verifier (EngineOptions::verify_ir). False when verification is off,
  /// when the interpreter ran, or when a cached module predates a verifying
  /// engine. Sharded runs report true only if every shard that ran
  /// generated code ran verified code.
  bool ir_verified = false;
  /// Why the interpreter ran, if it did: the codegen's message on every
  /// route (a plan rejected for several features reports every reason,
  /// semicolon-joined), prefixed "tiered: background compile failed: " when
  /// the tiered controller consumed the failed compile. Sharded runs join
  /// their shards' distinct reasons.
  std::string fallback_reason;
  std::string plan;             ///< physical plan, printable
};

/// Per-call knobs for Execute() / ExecutePlan(). All optional; the
/// parameterless overloads pass the defaults. The out-params are the only
/// way a query's telemetry and IR reach its caller — the engine keeps no
/// copy of either — so N concurrent callers on one engine each read exactly
/// their own query's numbers:
///
///   QueryTelemetry tel;
///   auto r = engine.Execute(sql, {.telemetry = &tel});
///   if (r.ok() && !tel.used_jit) printf("%s\n", tel.fallback_reason.c_str());
struct CallOptions {
  /// Receives this query's telemetry (reset at entry). Per-query scheduler
  /// attribution (tasks_dealt / steals) is exact even with N concurrent
  /// queries on the shared TaskScheduler: counters are attributed to the
  /// query whose morsel fan-out created the tasks, not read as racy deltas
  /// of the engine-lifetime totals.
  QueryTelemetry* telemetry = nullptr;
  /// Cooperative cancellation flag owned by the caller. Set it (from any
  /// thread) to stop the query at its next morsel boundary; the call then
  /// returns StatusCode::kCancelled with telemetry.cancelled = true. Must
  /// outlive the call. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Receives the LLVM IR of the generated module that served the query —
  /// compiled now or taken from the cache, on any route (cleared at entry;
  /// empty when only the interpreter ran). Null = the IR is never copied.
  std::string* ir = nullptr;
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions opts = {});

  /// Registers a dataset in situ (no data movement).
  Status RegisterDataset(DatasetInfo info);

  /// Signals that `dataset` was appended/replaced: drops its plug-in (index
  /// rebuilt on next access), statistics, and dependent caches (the paper's
  /// drop-and-rebuild update story, §4), bumps its catalog version, and
  /// erases the compiled modules of plans that read it. Compiled modules of
  /// plans over other datasets stay hot. Not safe while a query is in flight.
  void InvalidateDataset(const std::string& dataset);

  /// Parses, optimizes, and runs a query in either syntax.
  Result<QueryResult> Execute(const std::string& query) { return Execute(query, CallOptions{}); }
  Result<QueryResult> Execute(const std::string& query, const CallOptions& call);

  /// Runs an already-built logical plan (used by benchmarks that construct
  /// plans directly). Fully reentrant: N threads may call concurrently on
  /// one engine — they share the catalog, plug-ins, scan caches, compiled-
  /// query cache, tiered compiler, and the one process-wide TaskScheduler
  /// (so concurrent queries interleave at morsel granularity instead of
  /// queueing whole-query). Each caller reads its own query's numbers
  /// through CallOptions::telemetry / CallOptions::ir; a query takes no
  /// engine-wide lock.
  Result<QueryResult> ExecutePlan(OpPtr logical_plan) {
    return ExecutePlan(std::move(logical_plan), CallOptions{});
  }
  Result<QueryResult> ExecutePlan(OpPtr logical_plan, const CallOptions& call);

  Catalog& catalog() { return catalog_; }
  CachingManager& caches() { return caches_; }
  PluginRegistry& plugins() { return plugins_; }
  TaskScheduler& scheduler() { return scheduler_; }
  /// The engine's compiled-query cache (null when jit_cache_capacity == 0).
  /// Shared by every execution path — including all ShardExecutors of a
  /// sharded run — so hit/miss/compile stats are engine-global.
  jit::CompiledQueryCache* jit_cache() { return jit_cache_.get(); }
  /// The background tiered compiler (null unless options().tiered).
  jit::TieredCompiler* tiered_compiler() { return tiered_compiler_.get(); }
  /// The query trace recorder (null unless options().trace). A query that
  /// runs alone (no other query in flight) clears it at entry, so a
  /// Snapshot() taken after a single-caller Execute() is that query's trace
  /// — plus any background compile that outlived the previous query.
  /// Concurrent queries share the recorder without clearing (their spans
  /// interleave in one timeline); use TraceRecorder::BeginCapture() /
  /// Snapshot(capture) to scope a window independently of resets.
  obs::TraceRecorder* trace() { return trace_recorder_.get(); }
  const EngineOptions& options() const { return opts_; }

 private:
  Result<QueryResult> ExecutePlanInner(OpPtr logical_plan, const CallOptions& call,
                                       QueryTelemetry& tel);
  Result<QueryResult> Run(OpPtr physical, const CallOptions& call, QueryTelemetry& tel);
  Result<QueryResult> RunInner(ExecContext& ctx, OpPtr physical, QueryTelemetry& tel,
                               std::string* ir);
  Status PopulateCaches(const OpPtr& physical);
  void RecordMetrics(const QueryTelemetry& tel, bool ok) const;

  EngineOptions opts_;
  Catalog catalog_;
  PluginRegistry plugins_;
  CachingManager caches_;
  TaskScheduler scheduler_;
  /// Declared before the subsystems whose background jobs may still emit
  /// spans (the tiered compiler's worker): reverse destruction order joins
  /// those threads before the recorder dies.
  std::unique_ptr<obs::TraceRecorder> trace_recorder_;
  std::unique_ptr<jit::CompiledQueryCache> jit_cache_;
  /// Declared after every subsystem its background jobs borrow (catalog,
  /// plug-ins, caches, jit cache): destruction runs in reverse order, so the
  /// compile thread joins before anything it references dies.
  std::unique_ptr<jit::TieredCompiler> tiered_compiler_;
  /// Queries currently inside ExecutePlan. Gates the per-query trace
  /// auto-Clear (only a sole caller resets the recorder) and feeds the
  /// proteus_queries_inflight gauge.
  std::atomic<int> inflight_{0};
};

}  // namespace proteus
