#include "src/jit/tiered_compiler.h"

#include <algorithm>
#include <chrono>

#include "src/jit/jit_engine.h"
#include "src/obs/trace.h"

namespace proteus {
namespace jit {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Text form of a cache key — the coalescing map key. Mirrors the fields of
/// QueryCacheKey::operator== exactly.
std::string KeyString(const QueryCacheKey& key) {
  return key.signature + "|" + key.join_strategies + "|" + std::to_string(key.catalog_epoch) +
         "|" + std::to_string(key.cache_epoch);
}

}  // namespace

// ---------------------------------------------------------------------------
// TieredCompiler
// ---------------------------------------------------------------------------

TieredCompiler::TieredCompiler() : worker_([this] { WorkerLoop(); }) {}

TieredCompiler::~TieredCompiler() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  worker_.join();
}

void TieredCompiler::WorkerLoop() {
  // Manual Lock/Unlock: the loop deliberately drops the lock around each
  // job() — the thread-safety analysis checks both sides of the drop.
  mu_.Lock();
  while (true) {
    while (!stop_ && queue_.empty()) cv_.Wait(mu_);
    // Drain the queue even on shutdown: queued tickets have waiters (or
    // future cache consumers) that must see a fulfilled result.
    if (queue_.empty()) {
      mu_.Unlock();
      return;
    }
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    mu_.Unlock();
    job();
    mu_.Lock();
    busy_ = false;
    ++jobs_run_;
    if (queue_.empty()) idle_cv_.NotifyAll();
  }
}

std::shared_ptr<CompileTicket> TieredCompiler::EnqueueCompile(const ExecContext& ctx,
                                                              OpPtr plan, int delay_ms) {
  const QueryCacheKey key = MakeQueryCacheKey(ctx, plan);
  const std::string ks = KeyString(key);
  MutexLock lk(mu_);
  auto f = inflight_.find(ks);
  if (f != inflight_.end()) return f->second;
  auto ticket = std::make_shared<CompileTicket>();
  inflight_.emplace(ks, ticket);
  // The job captures ctx by value (borrowed engine subsystems — the engine
  // destroys this compiler first) and the plan by shared_ptr (keeps every
  // Operator* in the collected pipeline alive for the background walk).
  queue_.push_back([this, ctx, plan = std::move(plan), key, ks, ticket, delay_ms] {
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    if (ctx.trace != nullptr) ctx.trace->LabelThisThread("background-compiler");
    const auto t0 = std::chrono::steady_clock::now();
    Result<std::shared_ptr<const CompiledModule>> r = [&] {
      // The span must close before Fulfill below: waiters proceed the moment
      // the ticket is fulfilled, and the query can snapshot its trace before
      // this thread is scheduled again — a still-open span would be missing
      // from the export.
      OBS_SPAN(ctx.trace, "background_compile");
      if (ctx.jit_cache != nullptr) {
        bool hit = false;
        return ctx.jit_cache->GetOrCompile(
            key, [&] { return CompilePlan(ctx, plan, /*tier=*/1); }, &hit, ctx.trace);
      }
      return CompilePlan(ctx, plan, /*tier=*/1);
    }();
    const double ms = MsSince(t0);
    {
      MutexLock lk2(mu_);
      inflight_.erase(ks);
    }
    if (r.ok()) {
      ticket->Fulfill(Status::OK(), std::move(*r), ms);
    } else {
      ticket->Fulfill(r.status(), nullptr, ms);
    }
  });
  cv_.NotifyOne();
  return ticket;
}

void TieredCompiler::EnqueuePromotion(const ExecContext& ctx, OpPtr plan) {
  if (ctx.jit_cache == nullptr) return;
  const QueryCacheKey key = MakeQueryCacheKey(ctx, plan);
  const std::string ks = KeyString(key);
  MutexLock lk(mu_);
  if (!tier2_inflight_.insert(ks).second) return;
  queue_.push_back([this, ctx, plan = std::move(plan), key, ks] {
    if (ctx.trace != nullptr) ctx.trace->LabelThisThread("background-compiler");
    auto r = [&] {
      // Same publish-before-visibility rule as the tier-1 job: the span
      // closes before Promote makes the tier-2 module observable.
      OBS_SPAN(ctx.trace, "background_promotion");
      return CompilePlan(ctx, plan, /*tier=*/2);
    }();
    // A failed aggressive recompile is silent: the tier-1 module keeps
    // serving, exactly as before the promotion attempt.
    if (r.ok()) ctx.jit_cache->Promote(key, std::move(*r));
    MutexLock lk2(mu_);
    tier2_inflight_.erase(ks);
  });
  cv_.NotifyOne();
}

void TieredCompiler::Drain() {
  MutexLock lk(mu_);
  while (!queue_.empty() || busy_) idle_cv_.Wait(mu_);
}

uint64_t TieredCompiler::jobs_run() const {
  MutexLock lk(mu_);
  return jobs_run_;
}

// ---------------------------------------------------------------------------
// RunTiered: the hot-swap controller
// ---------------------------------------------------------------------------

Result<PlanPartials> RunTiered(const ExecContext& ctx, const OpPtr& plan,
                               uint64_t morsel_begin, uint64_t morsel_end, bool whole_plan,
                               TieredRunStats* stats) {
  static const TieredOptions kDefaults;
  const TieredOptions& opts = ctx.tiered_opts != nullptr ? *ctx.tiered_opts : kDefaults;
  if (ctx.tiered == nullptr || ctx.scheduler == nullptr) {
    return Status::Unimplemented("tiered: no background compiler");
  }
  if (!PlanIsShardable(plan)) {
    // Outer joins in the probe chain need the global unmatched drain; other
    // shapes are outside the morsel driver. Both keep their normal path.
    return Status::Unimplemented("tiered: plan is not chunk-decomposable");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const QueryCacheKey key = MakeQueryCacheKey(ctx, plan);

  // Warm probe (non-blocking): a cached module means generated code serves
  // from morsel 0 and the interpreter never enters. (This path bypasses
  // GetOrCompileModule, so it emits its own probe span.)
  std::shared_ptr<const CompiledModule> module;
  {
    obs::TraceSpan probe(ctx.trace, "cache_probe");
    module = ctx.jit_cache != nullptr ? ctx.jit_cache->TryGet(key) : nullptr;
    probe.set_arg0("hit", module != nullptr ? 1 : 0);
  }

  std::shared_ptr<CompileTicket> ticket;
  std::unique_ptr<InterpPartialSession> session;
  uint64_t total_morsels = 0;
  if (module == nullptr) {
    // Cold: kick the background compile *before* the interpreter's own
    // preparation (plug-in opens, join builds) — they overlap.
    ticket = ctx.tiered->EnqueueCompile(ctx, plan, opts.compile_delay_ms);
    PROTEUS_ASSIGN_OR_RETURN(session, MakeInterpPartialSession(ctx, plan));
    total_morsels = session->num_morsels();
  } else {
    stats->cache_hit = true;
    InterpExecutor probe(ctx);
    PROTEUS_ASSIGN_OR_RETURN(total_morsels, probe.CountPlanMorsels(plan));
  }
  if (whole_plan) {
    morsel_begin = 0;
    morsel_end = total_morsels;
  } else if (morsel_begin > morsel_end || morsel_end > total_morsels) {
    return Status::InvalidArgument(
        "tiered morsel range [" + std::to_string(morsel_begin) + ", " +
        std::to_string(morsel_end) + ") out of bounds for " +
        std::to_string(total_morsels) + " morsels");
  }

  PlanPartials out;
  out.nest = plan->child(0)->kind() == OpKind::kNest;

  // Interpreter chunks until the compile lands. Chunk size = one scheduler
  // fan-out (num_threads morsels) — big enough to keep every worker busy,
  // small enough that the swap is never more than one fan-out away.
  const uint64_t workers = static_cast<uint64_t>(std::max(1, ctx.scheduler->num_threads()));
  const bool forced = opts.force_swap_after_morsels != TieredOptions::kNeverSwap;
  uint64_t next = morsel_begin;
  bool poll = ticket != nullptr;  // cleared once the ticket is consumed
  bool first_done = false;

  auto take_ticket = [&] {
    poll = false;
    stats->compile_ms = ticket->compile_ms();
    // A failed compile is silent: the interpreter finishes the query, and
    // the recorded compile_ms is the only trace (honest fallback
    // accounting — the background thread did spend that time).
    if (ticket->status().ok()) module = ticket->module();
  };

  while (module == nullptr && next < morsel_end) {
    if (poll && !forced && ticket->Ready()) {
      take_ticket();
      continue;
    }
    uint64_t chunk = std::min(workers, morsel_end - next);
    if (poll && forced) {
      const uint64_t budget =
          opts.force_swap_after_morsels > stats->morsels_interpreted
              ? opts.force_swap_after_morsels - stats->morsels_interpreted
              : 0;
      if (budget == 0) {
        // Interpreted exactly the forced count: block on the compile and
        // swap (the one place the controller waits — a test hook, never the
        // natural path).
        ticket->Wait();
        take_ticket();
        continue;
      }
      chunk = std::min(chunk, budget);
    }
    {
      OBS_SPAN(ctx.trace, "interp_chunk", "begin", static_cast<int64_t>(next), "morsels",
               static_cast<int64_t>(chunk));
      PROTEUS_RETURN_NOT_OK(session->RunChunk(next, next + chunk, &out));
    }
    next += chunk;
    stats->morsels_interpreted += chunk;
    if (!first_done) {
      first_done = true;
      stats->first_morsel_ms = MsSince(t0);
    }
  }

  // Hot-swap: the remaining range runs as generated code off the
  // already-compiled module. Its partials append after the interpreter's —
  // global morsel order — so the fold cannot tell where the swap landed.
  if (module != nullptr && next < morsel_end) {
    stats->swap_ms = MsSince(t0);
    // The hot-swap is a point in time, not a duration: generated code takes
    // over at this morsel boundary.
    if (ctx.trace != nullptr && stats->morsels_interpreted > 0) {
      ctx.trace->Instant("hot_swap", "morsel", static_cast<int64_t>(next));
    }
    OBS_SPAN(ctx.trace, "jit_tail", "begin", static_cast<int64_t>(next));
    JitExecutor jit(ctx);
    PROTEUS_ASSIGN_OR_RETURN(PlanPartials tail,
                             jit.ExecutePartialsPrecompiled(plan, module, next, morsel_end));
    stats->morsels_jit = morsel_end - next;
    out.nest = tail.nest;
    out.Append(std::move(tail));
    if (!first_done) {
      first_done = true;
      stats->first_morsel_ms = MsSince(t0);
    }
  }
  if (stats->morsels_jit > 0 && module != nullptr) {
    stats->compile_tier = module->tier;
    stats->ir_verified = module->ir_verified;
  }

  // Hot-signature promotion: a tier-1 module that keeps earning cache hits
  // gets the aggressive recompile queued behind the same key.
  if (module != nullptr && module->tier == 1 && ctx.jit_cache != nullptr &&
      opts.tier2_hit_threshold > 0 &&
      ctx.jit_cache->HitCount(key) >= opts.tier2_hit_threshold) {
    ctx.tiered->EnqueuePromotion(ctx, plan);
  }
  return out;
}

}  // namespace jit
}  // namespace proteus
