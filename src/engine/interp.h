// Volcano-style interpreter over physical plans.
//
// This is (a) the reference executor that the JIT engine is property-tested
// against, and (b) the stand-in for general-purpose interpreted engines
// (PostgreSQL-class row stores) in the benchmark suite: every tuple crosses
// virtual getNext() calls and every expression is dispatched dynamically —
// exactly the interpretation overhead the paper's code generation removes
// (§5). ExecCounters::virtual_calls tracks those crossings.
//
// Every plan runs morsel-driven over the ExecContext::scheduler, as
// pipeline regions split at blocking operators: the driver leaf is split
// into ranges (the plug-in Split() API for scans), every worker runs its own
// pipeline instance over one morsel at a time, and per-morsel partial
// aggregates are merged in morsel order. Join build sides are materialized
// once up front and shared read-only. A Nest below the root is a pipeline
// breaker: its input region folds into one group table (a single morsel, in
// row order), and the region above is driven over that table's groups.
// Morsel boundaries depend only on the data, so results are identical for
// every worker count. Outer joins run morsel-parallel too: per-morsel
// matched-build bitmaps are OR-merged after the probe morsels and the
// unmatched build rows drain — once — through the ops above the join.
#pragma once

#include <memory>
#include <optional>

#include "src/algebra/algebra.h"
#include "src/catalog/catalog.h"
#include "src/common/task_scheduler.h"
#include "src/engine/cache.h"
#include "src/engine/partial_sink.h"
#include "src/engine/result.h"
#include "src/expr/eval.h"
#include "src/plugins/plugin.h"

namespace proteus {

namespace jit {
class CompiledQueryCache;
class TieredCompiler;
struct TieredOptions;
}  // namespace jit

namespace obs {
class TraceRecorder;
}  // namespace obs

/// Default target scan rows per morsel — the single home of this constant
/// (EngineOptions, ExecContext, and the zero-value fallback all use it, so
/// every path produces the same morsel decomposition).
constexpr uint64_t kDefaultMorselRows = 4096;

struct ExecContext {
  const Catalog* catalog = nullptr;
  PluginRegistry* plugins = nullptr;
  StatsStore* stats = nullptr;       ///< cold-access stats collection target
  CachingManager* caches = nullptr;  ///< optional adaptive caching
  TaskScheduler* scheduler = nullptr;  ///< morsel-parallel execution when set
  /// Shared compiled-query cache (src/jit/query_cache.h). Optional: null
  /// compiles every execution. The ShardCoordinator hands one ExecContext to
  /// every ShardExecutor, so N shards of one engine share this instance and
  /// compile a plan exactly once (concurrent lookups single-flight).
  jit::CompiledQueryCache* jit_cache = nullptr;
  /// Target scan rows per morsel. Part of the deterministic morsel
  /// decomposition: results depend on this value but never on the worker
  /// count. Small values are used by tests to force multi-morsel merges on
  /// tiny corpora.
  uint64_t morsel_rows = kDefaultMorselRows;
  /// Tiered execution (src/jit/tiered_compiler.h), when the engine opted in:
  /// the background compile thread plus its knobs. Null = tiered routing
  /// off. Shard executors inherit both from the coordinator's context, so
  /// each shard runs its own hot-swapping controller against the one shared
  /// compile thread.
  jit::TieredCompiler* tiered = nullptr;
  const jit::TieredOptions* tiered_opts = nullptr;
  /// Query tracing (src/obs/trace.h), when the engine opted in. Null = off;
  /// every instrumentation site tests this one pointer and does nothing
  /// else. Shard executors and the tiered background compile inherit it, so
  /// one recorder collects the whole distributed timeline.
  obs::TraceRecorder* trace = nullptr;
  /// Cooperative cancellation flag (null = not cancellable). Checked at
  /// every morsel boundary — the interpreter's morsel/chunk loops, the JIT
  /// morsel driver, and both engines' single-morsel mid-chain Nest folds
  /// (every kDefaultMorselRows folded rows) — so a cancelled query stops
  /// within one morsel of the store. Execution paths return
  /// StatusCode::kCancelled when they observe it set. Shard executors and
  /// tiered chunks inherit the pointer with the context.
  const std::atomic<bool>* cancel = nullptr;
  /// Deterministic test hook: when set, called with the global morsel index
  /// at the top of every main-region morsel (the region under the Reduce
  /// root; not join build sides or a Nest fold) a driver (interpreter or
  /// JIT) is about to run — after the cancel check — once per morsel on
  /// every route. Tests block in it to hold a query at a morsel boundary
  /// (e.g. to land a cancel or an admission probe at a known execution
  /// point). Null in production.
  const std::function<void(uint64_t)>* morsel_hook = nullptr;
  /// Run the generated-code contract verifier (src/jit/ir_verifier.h) on
  /// every module after LLVM's structural verifyModule. Mirrors
  /// EngineOptions::verify_ir; a violation fails the compile with an
  /// Internal status (never a silent interpreter fallback).
  bool verify_ir = false;
};

/// Shared cancel test: Status::Cancelled when ctx.cancel is set. The single
/// home of the message every morsel-boundary check returns.
inline Status CheckCancelled(const ExecContext& ctx) {
  if (ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("query cancelled at morsel boundary");
  }
  return Status::OK();
}

/// Pull-based row cursor (getNextTuple() of the Volcano model).
class Cursor {
 public:
  virtual ~Cursor() = default;
  virtual Status Open() = 0;
  /// Fills `row` and returns true, or returns false at end of stream.
  virtual Result<bool> Next(EvalEnv* row) = 0;
};

class InterpExecutor {
 public:
  /// How the last ExecutePartials() / Execute() ran (surfaced through the
  /// region runner as QueryTelemetry).
  struct ExecStats {
    int threads_used = 1;  ///< workers that ran the main region's morsels
    uint64_t morsels = 0;  ///< main-region morsels of the global decomposition run
  };

  explicit InterpExecutor(ExecContext ctx) : ctx_(ctx) {}

  /// Executes a physical plan whose root is Reduce. Requires ctx.scheduler.
  Result<QueryResult> Execute(const OpPtr& plan);

  /// Morsel count of `plan`'s global decomposition. Requires
  /// PlanIsMorselParallelizable(plan): the count depends only on the data and
  /// morsel_rows — never on worker or shard counts — so shards can partition
  /// this index space and every shard count folds the exact same per-morsel
  /// partials. Opens the driver leaf's plug-in (cold index/stats on the
  /// calling thread).
  Result<uint64_t> CountPlanMorsels(const OpPtr& plan);

  /// Runs `slice` of the plan's global morsel decomposition (the whole
  /// decomposition, outer-join drains included, when nullopt) and returns
  /// the per-morsel partial sinks in morsel order instead of a final result.
  /// Join build sides are materialized in full (each shard probes its own
  /// copy). A slice rejects plans with outer joins in the probe chain —
  /// their unmatched drain is global.
  Result<PlanPartials> ExecutePartials(const OpPtr& plan, std::optional<ScanRange> slice);

  const ExecStats& exec_stats() const { return exec_stats_; }

 private:
  ExecContext ctx_;
  ExecStats exec_stats_;
};

/// A resumable shard-style interpreter execution: preparation (plug-ins
/// opened, join build sides materialized, global morsel decomposition
/// computed) happens once at construction, then arbitrary chunks of the
/// global morsel index space run against the retained builds. Chunk
/// boundaries never change results — each chunk produces the same
/// per-morsel partials a whole run would, appended in morsel order — which
/// is what lets the tiered controller interleave interpreter chunks with a
/// generated-code tail and still merge through one FinalizePlanPartials
/// fold. Rejects plans with outer joins in the probe chain (their unmatched
/// drain needs a global view), the same restriction sharding has.
class InterpPartialSession {
 public:
  virtual ~InterpPartialSession() = default;
  /// Morsel count of the global decomposition (chunk indices address it).
  virtual uint64_t num_morsels() const = 0;
  /// Runs global morsels [morsel_begin, morsel_end), appending their
  /// per-morsel partials to `out` in morsel order.
  virtual Status RunChunk(uint64_t morsel_begin, uint64_t morsel_end, PlanPartials* out) = 0;
};

/// Prepares a chunked interpreter session for `plan` (root = Reduce).
/// Requires ctx.scheduler. The session captures `ctx` by value and `plan` by
/// shared_ptr, so it stays valid for as long as the engine subsystems the
/// context points at do.
Result<std::unique_ptr<InterpPartialSession>> MakeInterpPartialSession(const ExecContext& ctx,
                                                                       const OpPtr& plan);

/// Variables bound by the subtree rooted at `op` (shared helper).
void CollectBoundVars(const OpPtr& op, std::vector<std::string>* out);

/// A pipeline region: the chain of ops from the region root (the op under
/// Reduce, under a Nest directly under Reduce, under a mid-chain Nest, or a
/// join build side) down to the splittable driver leaf, root first. Probe
/// sides continue the chain; join build subtrees hang off the collected join
/// nodes. Shared between the interpreter's morsel runner and the JIT engine,
/// which range-parameterizes exactly this chain (build sides and a Nest
/// leaf's fold run once, the driver leaf loops over a morsel range).
struct MorselPipeline {
  std::vector<const Operator*> ops;   ///< root-first, leaf included
  /// The driver leaf: a Scan / CacheScan, or a mid-chain Nest whose folded
  /// groups the chain is driven over.
  const Operator* leaf = nullptr;
  std::vector<const Operator*> joins; ///< chain joins, root-first
};

/// Collects the pipeline chain under `pipe_root`. Returns false only for a
/// Reduce below the root, which no valid plan has.
bool CollectMorselPipeline(const OpPtr& pipe_root, MorselPipeline* out);

/// The Nest directly under `plan`'s Reduce root, or null. Its groups fold in
/// the per-morsel partial sinks, so it never belongs to a pipeline chain.
const Operator* RootNest(const OpPtr& plan);

/// Collects `plan`'s main chain: the one under its Reduce root, or under
/// RootNest(plan) when there is one.
bool CollectPlanPipeline(const OpPtr& plan, MorselPipeline* out);

/// Outer joins of the chain in drain order (deepest-first): the order both
/// engines run unmatched-build drains — each drain's matches on the outer
/// joins above it join the bitmap pool of later drains — and the order the
/// trailing partial slots are filled in.
std::vector<const Operator*> OuterChainJoins(const MorselPipeline& pipe);

/// Partial-sink slot count of a pipeline region: one slot per morsel plus
/// one trailing slot per outer chain join's drain pass. The single home of
/// this accounting, shared by the interpreter's morsel runner and the JIT
/// executor so their partial frames (and thus merged results) line up
/// slot for slot.
uint64_t PlanPartialSlots(const MorselPipeline& pipe, uint64_t num_morsels);

/// Morsels [morsel_begin, morsel_end) of a decomposition — the slice a shard
/// or a tiered chunk runs — or InvalidArgument when the range is out of
/// bounds.
Result<std::vector<ScanRange>> MorselSlice(const std::vector<ScanRange>& morsels,
                                           uint64_t morsel_begin, uint64_t morsel_end);

/// Even split of `rows` leaf rows (cache-block rows, a folded Nest's
/// groups) into ctx.morsel_rows-sized morsels — the one split both engines
/// use for leaves without a plug-in. Never empty: zero rows give one empty
/// morsel.
std::vector<ScanRange> SplitRowMorsels(const ExecContext& ctx, uint64_t rows);

/// The global morsel decomposition of a pipeline's scan driver leaf: plug-in
/// Split() for raw scans (byte-balanced where the format supports it),
/// SplitRowMorsels for cache blocks. Deterministic — depends only on the
/// data and ctx.morsel_rows, never on worker or shard counts — and never
/// empty. The one decomposition every executor (interpreter morsels, JIT
/// pipelines, shard slices) must agree on for results to stay
/// cell-identical. A Nest leaf is rejected: its groups exist only after its
/// fold, so each engine splits them with SplitRowMorsels then.
Result<std::vector<ScanRange>> SplitLeafMorsels(const ExecContext& ctx, const Operator& leaf);

/// True when `plan` (root Reduce) has a scan driver leaf, so its morsel
/// decomposition is known before execution. A plan whose main chain is
/// driven by a mid-chain Nest still runs as morsel pipelines in both
/// engines, but its morsels exist only after the Nest's fold.
bool PlanIsMorselParallelizable(const OpPtr& plan);

/// True when `plan` can additionally be decomposed into independent shards
/// over disjoint leaf ranges: morsel-parallelizable AND free of outer joins
/// in the probe chain (their unmatched-build drain needs a global view, so
/// they stay intra-node). Build subtrees are unrestricted — each shard
/// materializes the full build side locally.
bool PlanIsShardable(const OpPtr& plan);

/// Opens every dataset scanned under `op` (building structural indexes and
/// collecting cold-access stats via ctx.stats) on the calling thread. The
/// morsel runner and the shard coordinator share this pre-warm so their
/// worker/shard threads only hit the warm plug-in registry path.
Status PreOpenPlanPlugins(const ExecContext& ctx, const OpPtr& op);

}  // namespace proteus
