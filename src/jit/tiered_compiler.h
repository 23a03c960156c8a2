// Tiered asynchronous compilation: interpreter-first cold starts with a
// morsel-boundary hot-swap to generated code.
//
// The paper's premise is to adapt the engine to the query, not to make the
// query wait for the engine — yet a cold query on the JIT path pays its full
// IR-generation + LLVM-compilation cost before the first tuple moves. The
// tiered controller deletes that stall: a cold query starts executing
// morsels 0..k on the Volcano interpreter *immediately* while the module
// compiles on a dedicated background thread, and at a morsel boundary the
// controller hot-swaps to the compiled proteus_pipeline for morsels k+1..n.
// Because both engines produce bit-identical per-morsel partials over the
// one deterministic morsel decomposition, and partials merge in global
// morsel order through FinalizePlanPartials, the result is cell-identical
// (float bits + row order) no matter where the swap lands — including
// "never" (the compile outlives the query, or fails: the interpreter simply
// finishes, and the only trace is the recorded compile time). The background
// compile is the same O2 compile every foreground path runs.
//
// Concurrency: one worker thread per TieredCompiler (one per engine) and a
// mutex/cv job queue. Every request queues its own job and ticket; the
// compiled-query cache is the one de-duplication: each job goes through
// CompiledQueryCache::GetOrCompile, so it single-flights against any
// foreground compile and publishes the module for every later run. N shard
// controllers that ask for one plan therefore compile it once — the serial
// worker's later jobs are cache hits, which report no compile time. Jobs
// borrow engine-owned subsystems (catalog, plug-ins, caches)
// through a by-value ExecContext and keep the plan alive via its shared_ptr,
// so the compiler must be destroyed before those subsystems — QueryEngine
// declares it last for exactly that reason.
//
// The region runner (RunRegion) lives here too: the one function that
// chooses the engine for a plan region — the tiered controller, the
// generated pipelines, or the interpreter — for both the unsharded engine
// and every shard, and reports the outcome in one RegionStats.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/algebra.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/engine/interp.h"
#include "src/engine/partial_sink.h"
#include "src/jit/query_cache.h"

namespace proteus {
namespace jit {

/// Deterministic test hooks of tiered execution.
struct TieredOptions {
  static constexpr uint64_t kNeverSwap = ~0ull;

  /// Test hook: artificial delay (ms) before a background job's compile —
  /// forces a deterministically slow compile so tests can pin the swap
  /// mid-query (or past the query's end). A job the cache serves does not
  /// sleep.
  int compile_delay_ms = 0;

  /// Test hook: interpret exactly this many morsels, then *block* on the
  /// background compile and swap — pinning the swap boundary regardless of
  /// compile speed. 0 blocks before any interpreter work (pure-JIT tiered
  /// run); a value >= the morsel count means the interpreter finishes the
  /// whole query and the compile result is never consumed. kNeverSwap (the
  /// default) restores natural non-blocking polling at morsel boundaries.
  uint64_t force_swap_after_morsels = kNeverSwap;
};

/// One background compile's rendezvous. The query thread polls Ready() at
/// morsel boundaries and never blocks (the force-swap test hook and Drain
/// are the only waiters).
class CompileTicket {
 public:
  bool Ready() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return done_;
  }
  void Wait() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    while (!done_) cv_.Wait(mu_);
  }
  /// Valid once Ready(): the compile outcome and its wall time (0 when the
  /// cache served the module). A failed compile leaves module() null and
  /// status() the error.
  Status status() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return status_;
  }
  std::shared_ptr<const CompiledModule> module() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return module_;
  }
  double compile_ms() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return compile_ms_;
  }

 private:
  friend class TieredCompiler;
  void Fulfill(Status status, std::shared_ptr<const CompiledModule> module, double ms)
      EXCLUDES(mu_) {
    {
      MutexLock lk(mu_);
      status_ = std::move(status);
      module_ = std::move(module);
      compile_ms_ = ms;
      done_ = true;
    }
    cv_.NotifyAll();
  }

  mutable Mutex mu_;
  mutable CondVar cv_;
  bool done_ GUARDED_BY(mu_) = false;
  Status status_ GUARDED_BY(mu_) = Status::OK();
  std::shared_ptr<const CompiledModule> module_ GUARDED_BY(mu_);
  double compile_ms_ GUARDED_BY(mu_) = 0;
};

/// How one region run went — which engine served it and what that cost.
/// RunRegion fills one per run: the whole plan of an unsharded query, or
/// one shard's morsel slice (the coordinator combines those with Merge).
/// QueryEngine copies it into QueryTelemetry in one place.
struct RegionStats {
  bool used_jit = false;      ///< generated code ran (some of) the region's morsels
  bool ir_verified = false;   ///< that code's module passed the IR verifier
  bool cache_hit = false;     ///< the compiled-query cache served the module, no compile
  /// Compile ms this run paid for: its own foreground compile (an aborted
  /// codegen attempt included), or the background compile whose ticket it
  /// consumed; 0 when the cache served the module.
  double compile_ms = 0;
  /// The part of compile_ms the run's morsels waited on: the foreground
  /// compile; 0 for a background compile, which overlaps the interpreter.
  double compile_wait_ms = 0;
  uint64_t morsels = 0;              ///< main-region morsels of the global decomposition run
  uint64_t morsels_interpreted = 0;  ///< tiered: morsels run before the hot-swap
  uint64_t morsels_jit = 0;          ///< tiered: morsels run by generated code after it
  double swap_ms = 0;          ///< tiered: ms from run start to the hot-swap (0 = never)
  double first_morsel_ms = 0;  ///< tiered: ms from run start to the first completed chunk
  int threads = 1;             ///< workers that ran the region's morsels
  /// Why the interpreter ran, if it did: the codegen's Unimplemented message,
  /// or the tiered controller's reason.
  std::string fallback_reason;
  /// The generated module that served the run (null when only the
  /// interpreter ran) — its IR reaches CallOptions::ir.
  std::shared_ptr<const CompiledModule> module;
};

/// Combines the RegionStats of a sharded run's slices — the one home of the
/// shard-combining rules: compile ms sum (a compile the cache de-duplicated
/// reports 0 on every shard but the one that ran it); cache_hit is an AND
/// over the shards and ir_verified an AND over the shards that ran
/// generated code; compile_wait_ms (shards compile side by side), swap and
/// first-morsel ms, and threads take the max; morsel counts sum; distinct
/// fallback reasons join with "; ".
RegionStats Merge(const std::vector<RegionStats>& slices);

/// The engine-wide background compile thread. See the file comment.
class TieredCompiler {
 public:
  TieredCompiler();
  /// Runs every queued job to completion, then joins the worker.
  ~TieredCompiler();

  TieredCompiler(const TieredCompiler&) = delete;
  TieredCompiler& operator=(const TieredCompiler&) = delete;

  /// Enqueues a compile of `plan`, whose cache key is `key`, with its own
  /// ticket. With ctx.jit_cache set the job runs through GetOrCompile, so
  /// it single-flights against every other compile of the key and publishes
  /// the module for every later run; a job the cache serves fulfills its
  /// ticket with compile_ms 0. `delay_ms` is the
  /// TieredOptions::compile_delay_ms test hook.
  std::shared_ptr<CompileTicket> EnqueueCompile(const ExecContext& ctx, OpPtr plan,
                                                QueryCacheKey key, int delay_ms) EXCLUDES(mu_);

  /// Blocks until every queued job has run (tests and benches only — the
  /// query path never waits here).
  void Drain() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;       ///< worker wake
  CondVar idle_cv_;  ///< Drain wake
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  bool busy_ GUARDED_BY(mu_) = false;
  std::thread worker_;  ///< last member: joined before the queue state dies
};

/// The tiered execution controller. Runs `slice` of `plan`'s global morsel
/// decomposition (the whole decomposition when nullopt): warm — a cached
/// module (TryGet, non-blocking) runs everything as generated code; cold —
/// interpreter chunks (one scheduler fan-out of up to num_threads morsels
/// each) execute immediately while the module compiles in the background,
/// and the first morsel boundary that finds the ticket ready hot-swaps the
/// remaining range to JitExecutor::ExecutePartialsPrecompiled. Partials
/// append in morsel order either way, so the caller folds one
/// FinalizePlanPartials frame and results are cell-identical to
/// pure-interpreter and pure-JIT runs.
///
/// Requires ctx.tiered (the compiler), ctx.scheduler and a shardable plan
/// (PlanIsShardable: outer joins in the probe chain need the global
/// unmatched drain, a Nest-driven chain has no decomposition before its
/// fold); reads knobs from ctx.tiered_opts (defaults when null).
Result<PlanPartials> RunTiered(const ExecContext& ctx, const OpPtr& plan,
                               std::optional<ScanRange> slice, RegionStats* stats);

/// The region runner: the one place that chooses the engine for a plan
/// region — `slice` of `plan`'s global morsel decomposition, or the whole
/// plan (nullopt, outer-join drains included). With `use_jit`, the tiered
/// controller runs it when ctx.tiered is set and the plan is shardable,
/// otherwise the generated pipelines; the interpreter runs it when codegen
/// returns Unimplemented (its message becomes stats->fallback_reason) or
/// without `use_jit`. Every engine produces the same per-morsel partials,
/// so the choice never changes the folded result. Resets and fills `stats`.
Result<PlanPartials> RunRegion(const ExecContext& ctx, const OpPtr& plan,
                               std::optional<ScanRange> slice, bool use_jit,
                               RegionStats* stats);

}  // namespace jit
}  // namespace proteus
