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
    if (queue_.empty()) idle_cv_.NotifyAll();
  }
}

std::shared_ptr<CompileTicket> TieredCompiler::EnqueueCompile(const ExecContext& ctx,
                                                              OpPtr plan, QueryCacheKey key,
                                                              int delay_ms) {
  auto ticket = std::make_shared<CompileTicket>();
  // The job captures ctx by value (borrowed engine subsystems — the engine
  // destroys this compiler first) and the plan by shared_ptr (keeps every
  // Operator* in the collected pipeline alive for the background walk).
  auto job = [ctx, plan = std::move(plan), key = std::move(key), ticket, delay_ms] {
    if (ctx.trace != nullptr) ctx.trace->LabelThisThread("background-compiler");
    // Only a real compile sleeps, spans and records its time: a job the
    // cache serves (an earlier shard's job compiled the key) reports 0, as
    // a foreground cache hit does.
    double ms = 0;
    auto compile = [&]() -> Result<std::shared_ptr<const CompiledModule>> {
      if (delay_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      const auto t0 = std::chrono::steady_clock::now();
      // The span closes before Fulfill below: waiters proceed the moment the
      // ticket is fulfilled, and the query can snapshot its trace before
      // this thread is scheduled again — a still-open span would be missing
      // from the export.
      OBS_SPAN(ctx.trace, "background_compile");
      auto r = CompilePlan(ctx, plan);
      ms = MsSince(t0);
      return r;
    };
    Result<std::shared_ptr<const CompiledModule>> r =
        ctx.jit_cache != nullptr
            ? ctx.jit_cache->GetOrCompile(key, compile, /*cache_hit=*/nullptr, ctx.trace)
            : compile();
    if (r.ok()) {
      ticket->Fulfill(Status::OK(), std::move(*r), ms);
    } else {
      ticket->Fulfill(r.status(), nullptr, ms);
    }
  };
  {
    MutexLock lk(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.NotifyOne();
  return ticket;
}

void TieredCompiler::Drain() {
  MutexLock lk(mu_);
  while (!queue_.empty() || busy_) idle_cv_.Wait(mu_);
}

// ---------------------------------------------------------------------------
// RunTiered: the hot-swap controller
// ---------------------------------------------------------------------------

Result<PlanPartials> RunTiered(const ExecContext& ctx, const OpPtr& plan,
                               std::optional<ScanRange> slice, RegionStats* stats) {
  static const TieredOptions kDefaults;
  const TieredOptions& opts = ctx.tiered_opts != nullptr ? *ctx.tiered_opts : kDefaults;
  const auto t0 = std::chrono::steady_clock::now();
  // Plug-ins open before the key: it holds their layout fingerprints.
  PROTEUS_ASSIGN_OR_RETURN(const QueryCacheKey key, MakeQueryCacheKey(ctx, plan));

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
    ticket = ctx.tiered->EnqueueCompile(ctx, plan, key, opts.compile_delay_ms);
    PROTEUS_ASSIGN_OR_RETURN(session, MakeInterpPartialSession(ctx, plan));
    total_morsels = session->num_morsels();
  } else {
    stats->cache_hit = true;
    InterpExecutor probe(ctx);
    PROTEUS_ASSIGN_OR_RETURN(total_morsels, probe.CountPlanMorsels(plan));
  }
  const ScanRange range = slice.value_or(ScanRange{0, total_morsels});
  if (range.begin > range.end || range.end > total_morsels) {
    return Status::InvalidArgument(
        "tiered morsel range [" + std::to_string(range.begin) + ", " +
        std::to_string(range.end) + ") out of bounds for " + std::to_string(total_morsels) +
        " morsels");
  }

  PlanPartials out;
  out.nest = RootNest(plan) != nullptr;

  // Interpreter chunks until the compile lands. Chunk size = one scheduler
  // fan-out (num_threads morsels) — big enough to keep every worker busy,
  // small enough that the swap is never more than one fan-out away.
  const uint64_t workers = static_cast<uint64_t>(std::max(1, ctx.scheduler->num_threads()));
  const bool forced = opts.force_swap_after_morsels != TieredOptions::kNeverSwap;
  uint64_t next = range.begin;
  bool poll = ticket != nullptr;  // cleared once the ticket is consumed
  bool first_done = false;
  Status compile_status = Status::OK();

  auto take_ticket = [&] {
    poll = false;
    stats->compile_ms = ticket->compile_ms();
    // A failed compile is silent: the interpreter finishes the query, and
    // the recorded compile_ms plus the fallback reason are its only trace
    // (honest fallback accounting — the background thread did spend that
    // time).
    compile_status = ticket->status();
    if (compile_status.ok()) module = ticket->module();
  };

  while (module == nullptr && next < range.end) {
    if (poll && !forced && ticket->Ready()) {
      take_ticket();
      continue;
    }
    uint64_t chunk = std::min(workers, range.end - next);
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
  if (module != nullptr && next < range.end) {
    stats->swap_ms = MsSince(t0);
    // The hot-swap is a point in time, not a duration: generated code takes
    // over at this morsel boundary.
    if (ctx.trace != nullptr && stats->morsels_interpreted > 0) {
      ctx.trace->Instant("hot_swap", "morsel", static_cast<int64_t>(next));
    }
    OBS_SPAN(ctx.trace, "jit_tail", "begin", static_cast<int64_t>(next));
    JitExecutor jit(ctx);
    PROTEUS_ASSIGN_OR_RETURN(PlanPartials tail,
                             jit.ExecutePartialsPrecompiled(plan, module, next, range.end));
    stats->morsels_jit = range.end - next;
    out.Append(std::move(tail));
    if (!first_done) {
      first_done = true;
      stats->first_morsel_ms = MsSince(t0);
    }
  }
  stats->morsels = range.size();
  stats->threads = static_cast<int>(std::min(workers, std::max<uint64_t>(range.size(), 1)));
  if (stats->morsels_jit > 0) {
    stats->used_jit = true;
    stats->ir_verified = module->ir_verified;
    stats->module = module;
  } else if (!compile_status.ok()) {
    stats->fallback_reason = "tiered: background compile failed: " + compile_status.message();
  } else {
    stats->fallback_reason = "tiered: compile did not land before the query finished";
  }
  return out;
}

Result<PlanPartials> RunRegion(const ExecContext& ctx, const OpPtr& plan,
                               std::optional<ScanRange> slice, bool use_jit,
                               RegionStats* stats) {
  *stats = RegionStats{};
  if (use_jit && ctx.tiered != nullptr && PlanIsShardable(plan)) {
    return RunTiered(ctx, plan, slice, stats);
  }
  if (use_jit) {
    JitExecutor jit(ctx);
    auto partials = jit.ExecuteRegion(plan, slice, stats);
    if (partials.ok() || partials.status().code() != StatusCode::kUnimplemented) {
      return partials;
    }
    // Outside the generated fast path: the interpreter produces the same
    // partials; the aborted attempt's compile_ms stays recorded.
    stats->fallback_reason = partials.status().message();
  }
  InterpExecutor interp(ctx);
  PROTEUS_ASSIGN_OR_RETURN(PlanPartials partials, interp.ExecutePartials(plan, slice));
  stats->morsels = interp.exec_stats().morsels;
  stats->threads = interp.exec_stats().threads_used;
  return partials;
}

RegionStats Merge(const std::vector<RegionStats>& slices) {
  RegionStats out;
  out.cache_hit = !slices.empty();
  out.ir_verified = true;
  for (const RegionStats& s : slices) {
    out.compile_ms += s.compile_ms;
    out.compile_wait_ms = std::max(out.compile_wait_ms, s.compile_wait_ms);
    out.cache_hit = out.cache_hit && s.cache_hit;
    if (s.used_jit) {
      out.used_jit = true;
      out.ir_verified = out.ir_verified && s.ir_verified;
      if (out.module == nullptr) out.module = s.module;
    }
    out.morsels += s.morsels;
    out.morsels_interpreted += s.morsels_interpreted;
    out.morsels_jit += s.morsels_jit;
    out.swap_ms = std::max(out.swap_ms, s.swap_ms);
    out.first_morsel_ms = std::max(out.first_morsel_ms, s.first_morsel_ms);
    out.threads = std::max(out.threads, s.threads);
    if (!s.fallback_reason.empty() &&
        out.fallback_reason.find(s.fallback_reason) == std::string::npos) {
      if (!out.fallback_reason.empty()) out.fallback_reason += "; ";
      out.fallback_reason += s.fallback_reason;
    }
  }
  out.ir_verified = out.ir_verified && out.used_jit;
  return out;
}

}  // namespace jit
}  // namespace proteus
