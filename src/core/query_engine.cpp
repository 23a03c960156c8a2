#include "src/core/query_engine.h"

#include <chrono>
#include <functional>

#include "src/calculus/calculus.h"
#include "src/jit/jit_engine.h"
#include "src/parser/parser.h"
#include "src/shard/coordinator.h"
#include "src/shard/transport.h"

namespace proteus {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Collects raw-format scans still present in a physical plan.
void CollectRawScans(const OpPtr& op, std::vector<const Operator*>* out) {
  if (op->kind() == OpKind::kScan) {
    out->push_back(op.get());
    return;
  }
  for (const auto& c : op->children()) CollectRawScans(c, out);
}

/// Comma-joined probe strategies of the plan's equi joins, in plan order
/// (pre-order) — the QueryTelemetry::join_strategy value.
void AppendJoinStrategies(const Operator& op, std::string* out) {
  if (op.kind() == OpKind::kJoin && op.left_key() != nullptr) {
    if (!out->empty()) out->append(",");
    out->append(JoinStrategyName(op.join_strategy()));
  }
  for (const auto& c : op.children()) AppendJoinStrategies(*c, out);
}

}  // namespace

QueryEngine::QueryEngine(EngineOptions opts)
    : opts_(std::move(opts)),
      caches_(opts_.cache_policy),
      scheduler_(opts_.num_threads) {
  // num_threads = 0 asks for hardware concurrency; the scheduler resolved
  // it, so reflect the actual worker count back into the options (telemetry
  // and the shard coordinator's per-shard pools size off this value).
  opts_.num_threads = scheduler_.num_threads();
  if (opts_.trace) {
    trace_recorder_ = std::make_unique<obs::TraceRecorder>();
  }
  if (opts_.jit_cache_capacity > 0) {
    jit_cache_ = std::make_unique<jit::CompiledQueryCache>(opts_.jit_cache_capacity);
  }
  if (opts_.tiered) {
    tiered_compiler_ = std::make_unique<jit::TieredCompiler>();
  }
}

Status QueryEngine::RegisterDataset(DatasetInfo info) { return catalog_.Register(std::move(info)); }

void QueryEngine::InvalidateDataset(const std::string& dataset) {
  plugins_.Evict(dataset);
  catalog_.stats().Invalidate(dataset);
  caches_.InvalidateDataset(dataset);
  // Compiled modules bake schema-derived constants (column indices, row
  // widths, JSON path hashes) for the old data; retire them all.
  catalog_.BumpEpoch();
}

Result<QueryResult> QueryEngine::Execute(const std::string& query, const CallOptions& call) {
  auto plan = [&]() -> Result<OpPtr> {
    PROTEUS_ASSIGN_OR_RETURN(Comprehension comp, ParseQuery(query, catalog_));
    Normalize(&comp);
    return ToAlgebra(comp, catalog_);
  }();
  if (!plan.ok()) {
    // Queries that never produce a plan still count: a fleet dashboard that
    // missed parse/bind failures would under-report the error rate.
    if (opts_.metrics != nullptr) RecordMetrics(QueryTelemetry{}, false);
    return plan.status();
  }
  return ExecutePlan(std::move(*plan), call);
}

Result<QueryResult> QueryEngine::ExecutePlan(OpPtr logical_plan, const CallOptions& call) {
  // Per-query state lives on this call's stack (or in the caller's
  // out-params) — nothing here touches engine members without a lock, which
  // is what makes N concurrent ExecutePlan calls on one engine safe.
  QueryTelemetry local_tel;
  QueryTelemetry& tel = call.telemetry != nullptr ? *call.telemetry : local_tel;
  tel = QueryTelemetry{};
  std::string local_ir;
  std::string& ir = call.ir != nullptr ? *call.ir : local_ir;
  ir.clear();

  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (opts_.metrics != nullptr) opts_.metrics->GetGauge("proteus_queries_inflight")->Add(1);

  auto result = ExecutePlanInner(std::move(logical_plan), call, tel, ir);
  if (!result.ok() && result.status().code() == StatusCode::kCancelled) {
    tel.cancelled = true;
  }

  if (opts_.metrics != nullptr) {
    opts_.metrics->GetGauge("proteus_queries_inflight")->Add(-1);
    RecordMetrics(tel, result.ok());
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);

  // Refresh the legacy single-caller mirrors (telemetry() / last_ir()).
  {
    MutexLock lk(legacy_mu_);
    telemetry_ = tel;
    last_ir_ = ir;
  }
  return result;
}

Result<QueryResult> QueryEngine::ExecutePlanInner(OpPtr logical_plan, const CallOptions& call,
                                                  QueryTelemetry& tel, std::string& ir) {
  // Per-query trace reset — but only when this query runs alone. A straggler
  // background compile that published after this point intentionally lands
  // in this query's snapshot (it shows the compile landing); with other
  // queries in flight, clearing would amputate *their* timelines, so
  // concurrent executions share one uncleared timeline and callers that
  // need scoped windows use TraceRecorder captures instead.
  if (trace_recorder_ != nullptr && inflight_.load(std::memory_order_acquire) == 1) {
    trace_recorder_->Clear();
  }

  auto t0 = std::chrono::steady_clock::now();
  Optimizer optimizer(catalog_, opts_.optimizer);
  OpPtr physical;
  {
    OBS_SPAN(trace_recorder_.get(), "optimize");
    PROTEUS_ASSIGN_OR_RETURN(physical, optimizer.Optimize(std::move(logical_plan)));
  }
  tel.optimize_ms = MsSince(t0);

  if (caches_.policy().enabled) {
    auto tc = std::chrono::steady_clock::now();
    OBS_SPAN(trace_recorder_.get(), "cache_populate");
    PROTEUS_RETURN_NOT_OK(PopulateCaches(physical));
    physical = caches_.RewriteWithCaches(std::move(physical), catalog_);
    tel.cache_build_ms = MsSince(tc);
    std::function<bool(const Operator&)> has_cache_scan = [&](const Operator& op) {
      if (op.kind() == OpKind::kCacheScan) return true;
      for (const auto& c : op.children()) {
        if (has_cache_scan(*c)) return true;
      }
      return false;
    };
    tel.used_cache = has_cache_scan(*physical);
  }
  tel.plan = physical->ToString();
  AppendJoinStrategies(*physical, &tel.join_strategy);
  return Run(std::move(physical), call, tel, ir);
}

Status QueryEngine::PopulateCaches(const OpPtr& physical) {
  // Leaf-level policy (paper §6 "Cache Policies"): eagerly convert raw CSV /
  // JSON values touched by this query into binary cache columns, as a
  // side-effect of the query that first touches them. The cost lands on the
  // triggering query (visible as the Q9/Q16-style first-touch overhead).
  std::vector<const Operator*> scans;
  CollectRawScans(physical, &scans);
  for (const Operator* scan : scans) {
    PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, catalog_.Get(scan->dataset()));
    if (caches_.policy().raw_formats_only && info->format != DataFormat::kCSV &&
        info->format != DataFormat::kJSON) {
      continue;
    }
    // Already cached for this scan shape *and* covering this query's numeric
    // fields? If the existing block is too narrow, build a wider one
    // (Install() replaces covered same-signature blocks).
    OpPtr probe = Operator::Scan(scan->dataset(), scan->binding());
    const auto existing = caches_.FindMatch(*probe);
    if (existing != nullptr) {
      bool covered = true;
      for (const auto& p : scan->scan_fields()) {
        if (existing->Find(scan->binding(), p) != nullptr) continue;
        // Missing column: only acceptable when the leaf is one the policy
        // would not cache anyway (strings, collections).
        const Type* t = &info->record_type();
        TypePtr leaf;
        bool resolvable = true;
        for (size_t i = 0; i < p.size() && resolvable; ++i) {
          auto ft = t->FieldType(p[i]);
          if (!ft.ok()) {
            resolvable = false;
            break;
          }
          leaf = *ft;
          if (leaf->kind() == TypeKind::kRecord) t = leaf.get();
        }
        if (resolvable && leaf != nullptr &&
            (leaf->is_numeric() || leaf->kind() == TypeKind::kBool)) {
          covered = false;
          break;
        }
      }
      if (covered) continue;
      // Widen: union of old columns' paths and the new field set.
      std::vector<FieldPath> fields = scan->scan_fields();
      for (const auto& col : existing->cols) {
        if (col.path != FieldPath{"$oid"}) fields.push_back(col.path);
      }
      PROTEUS_ASSIGN_OR_RETURN(
          InputPlugin * plugin,
          plugins_.GetOrOpen(*info, opts_.collect_stats_on_cold_access ? &catalog_.stats()
                                                                       : nullptr));
      PROTEUS_RETURN_NOT_OK(
          caches_.BuildScanCache(plugin, *info, scan->binding(), fields, &scheduler_)
              .status());
      continue;
    }
    PROTEUS_ASSIGN_OR_RETURN(
        InputPlugin * plugin,
        plugins_.GetOrOpen(*info, opts_.collect_stats_on_cold_access ? &catalog_.stats()
                                                                     : nullptr));
    PROTEUS_RETURN_NOT_OK(
        caches_.BuildScanCache(plugin, *info, scan->binding(), scan->scan_fields(), &scheduler_)
            .status());
  }
  return Status::OK();
}

Result<QueryResult> QueryEngine::Run(OpPtr physical, const CallOptions& call, QueryTelemetry& tel,
                                     std::string& ir) {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.plugins = &plugins_;
  ctx.stats = opts_.collect_stats_on_cold_access ? &catalog_.stats() : nullptr;
  ctx.caches = &caches_;
  ctx.scheduler = &scheduler_;
  ctx.jit_cache = jit_cache_.get();
  ctx.morsel_rows = opts_.morsel_rows;
  ctx.verify_ir = opts_.verify_ir;
  ctx.trace = trace_recorder_.get();
  ctx.cancel = call.cancel;
  if (opts_.morsel_boundary_hook) ctx.morsel_hook = &opts_.morsel_boundary_hook;
  if (opts_.mode == ExecMode::kJIT && tiered_compiler_ != nullptr) {
    ctx.tiered = tiered_compiler_.get();
    ctx.tiered_opts = &opts_.tiered_opts;
  }

  // Per-query steal telemetry by attribution, not by delta: a StatsScope on
  // this thread tags every ParallelFor this query submits, so the scheduler
  // credits its dealt/stolen tasks to this query alone — exact even with N
  // concurrent queries interleaving on the shared pool (the old
  // read-lifetime-totals-twice delta charged one query with its neighbors'
  // work). Sharded runs use per-shard pools instead (summed by the
  // coordinator), so RunInner overwrites these with the shard totals.
  TaskScheduler::BatchStats query_stats;
  Result<QueryResult> result = [&] {
    TaskScheduler::StatsScope stats_scope(&query_stats);
    OBS_SPAN(ctx.trace, "execute");
    return RunInner(ctx, std::move(physical), tel, ir);
  }();
  if (tel.shards_used == 0) {
    tel.steals = query_stats.steals;
    tel.tasks_dealt = query_stats.dealt;
  }
  return result;
}

void QueryEngine::RecordMetrics(const QueryTelemetry& tel, bool ok) const {
  obs::MetricsRegistry* m = opts_.metrics;
  m->GetCounter("proteus_queries_total")->Increment();
  if (tel.cancelled) {
    // A cancellation the caller asked for is not an engine failure: count it
    // under its own counter so error-rate dashboards stay honest.
    m->GetCounter("proteus_queries_cancelled_total")->Increment();
    return;
  }
  if (!ok) {
    m->GetCounter("proteus_query_errors_total")->Increment();
    return;
  }
  m->GetHistogram("proteus_query_latency_ms")->Observe(tel.execute_ms);
  if (tel.compile_ms > 0) {
    m->GetHistogram("proteus_compile_ms")->Observe(tel.compile_ms);
  }
  if (tel.used_jit) {
    m->GetCounter(tel.jit_cache_hit ? "proteus_jit_cache_hits_total"
                                    : "proteus_jit_cache_misses_total")
        ->Increment();
  }
  if (tel.ir_verified) {
    m->GetCounter("proteus_ir_verified_total")->Increment();
  }
  m->GetCounter("proteus_morsels_total")->Add(tel.morsels);
  m->GetCounter("proteus_tasks_dealt_total")->Add(tel.tasks_dealt);
  m->GetCounter("proteus_steals_total")->Add(tel.steals);
  m->GetCounter("proteus_bytes_exchanged_total")->Add(tel.bytes_exchanged);
  if (jit_cache_ != nullptr) {
    m->GetGauge("proteus_jit_cache_entries")->Set(static_cast<int64_t>(jit_cache_->size()));
  }
}

Result<QueryResult> QueryEngine::RunInner(ExecContext& ctx, OpPtr physical, QueryTelemetry& tel,
                                          std::string& ir) {
  auto t0 = std::chrono::steady_clock::now();
  // Sharded routing: num_shards >= 1 is an explicit opt-in, so shardable
  // plans go through the coordinator ahead of the JIT/interpreter choice.
  // Non-shardable plans (outer chain joins, a mid-chain Nest driving the
  // main chain) fall through to the normal paths below. In JIT mode each
  // shard runs the plan's morsel-parameterized generated pipelines over its
  // slice (interpreter partials for plans outside the generated fast path —
  // bit-identical either way).
  if (opts_.num_shards >= 1 && ShardCoordinator::PlanIsShardable(physical)) {
    ShardCoordinator coordinator(ctx, opts_.num_shards, opts_.num_threads,
                                 opts_.mode == ExecMode::kJIT);
    LoopbackTransport transport;
    ShardExecStats shard_stats;
    auto result = coordinator.Run(physical, &transport, &shard_stats);
    tel.shards_used = shard_stats.shards_used;
    tel.bytes_exchanged = shard_stats.bytes_exchanged;
    tel.threads_used = shard_stats.threads_per_shard;
    tel.morsels = shard_stats.morsels;
    tel.tasks_dealt = shard_stats.tasks_dealt;
    tel.steals = shard_stats.steals;
    tel.used_jit = shard_stats.jit_shards > 0;
    tel.jit_parallel = shard_stats.jit_shards > 0;
    tel.compile_tier = shard_stats.compile_tier;
    tel.morsels_interpreted = shard_stats.morsels_interpreted;
    tel.morsels_jit = shard_stats.morsels_jit;
    tel.swap_ms = shard_stats.swap_ms;
    tel.first_morsel_ms = shard_stats.first_morsel_ms;
    tel.ir_verified = shard_stats.jit_shards > 0 && shard_stats.ir_verified;
    // Shards share the engine's compiled-query cache: N shards of one plan
    // compile it exactly once (cold) or zero times (warm). With the cache
    // disabled (jit_cache_capacity = 0) no per-shard compile cost is
    // observable, so compile telemetry honestly stays at its zeros and
    // jit_cache_hit stays false — there is no cache to hit.
    tel.compile_ms = shard_stats.compile_ms;
    tel.jit_cache_hit = ctx.jit_cache != nullptr && shard_stats.jit_shards > 0 &&
                               shard_stats.jit_compiles == 0 && shard_stats.jit_cache_hits > 0;
    // Compiles run inside the fan-out (single-flight: at most one per plan),
    // so subtracting the measured compile time keeps execute_ms ≈ plan run
    // time, matching the unsharded JIT branch below.
    tel.execute_ms = MsSince(t0) - tel.compile_ms;
    if (opts_.mode == ExecMode::kJIT && shard_stats.jit_shards < shard_stats.shards_used) {
      tel.fallback_reason =
          std::to_string(shard_stats.shards_used - shard_stats.jit_shards) +
          " shard(s) ran the interpreter (plan outside the generated fast path)";
    }
    return result;
  }
  // Tiered routing (opt-in): the cold query starts on the interpreter
  // immediately while its module compiles on the background thread, and
  // hot-swaps to generated code at a morsel boundary; warm queries run as
  // pure generated code from morsel 0. Plans the controller declines (the
  // non-shardable shapes) fall through to the normal routes below.
  if (ctx.tiered != nullptr) {
    jit::TieredRunStats ts;
    auto partials = jit::RunTiered(ctx, physical, 0, 0, /*whole_plan=*/true, &ts);
    if (partials.ok()) {
      auto result =
          FinalizePlanPartials(*physical, RootNest(physical), std::move(*partials), ctx.trace);
      tel.used_jit = ts.morsels_jit > 0;
      tel.jit_parallel = ts.morsels_jit > 0;
      tel.compile_tier = ts.compile_tier;
      tel.morsels_interpreted = ts.morsels_interpreted;
      tel.morsels_jit = ts.morsels_jit;
      tel.swap_ms = ts.swap_ms;
      tel.first_morsel_ms = ts.first_morsel_ms;
      tel.ir_verified = ts.ir_verified;
      tel.jit_cache_hit = ts.cache_hit;
      // The background compile overlapped execution, so execute_ms keeps
      // the full wall time — there is no foreground compile to subtract.
      // compile_ms reports the background compile this run observed
      // (0 when warm, or when the compile outlived the query).
      tel.compile_ms = ts.compile_ms;
      tel.execute_ms = MsSince(t0);
      tel.morsels = ts.morsels_interpreted + ts.morsels_jit;
      tel.threads_used = opts_.num_threads;
      if (ts.morsels_jit == 0) {
        tel.fallback_reason =
            ts.compile_ms > 0
                ? "tiered: background compile failed; interpreter completed the query"
                : "tiered: compile did not land before the query finished";
      }
      return result;
    }
    if (partials.status().code() != StatusCode::kUnimplemented) {
      return partials.status();
    }
    // Not chunk-decomposable: keep the normal JIT/interpreter routing.
  }
  if (opts_.mode == ExecMode::kJIT) {
    // The generated code is morsel-driven for every plan and thread count —
    // num_threads == 1 runs the same morsel frame on one worker, so the
    // thread count can never change the result.
    JitExecutor jit(ctx);
    InterpExecutor::ExecStats stats;
    auto result = jit.Execute(physical, &stats);
    if (result.ok()) {
      tel.used_jit = true;
      tel.jit_parallel = true;
      // The served module's tier — 1 normally, 2 when a background
      // promotion already swapped the aggressive module behind this key.
      tel.compile_tier =
          jit.last_module() != nullptr ? jit.last_module()->tier : 1;
      tel.ir_verified = jit.last_module() != nullptr && jit.last_module()->ir_verified;
      tel.threads_used = stats.threads_used;
      tel.morsels = stats.morsels;
      tel.compile_ms = jit.last_compile_ms();
      tel.jit_cache_hit = jit.last_cache_hit();
      tel.execute_ms = MsSince(t0) - tel.compile_ms;
      ir = jit.last_ir();
      return result;
    }
    if (result.status().code() != StatusCode::kUnimplemented) {
      return result.status();
    }
    tel.fallback_reason = result.status().message();
    // The aborted codegen attempt still cost compile time; record it the
    // way the success path does so fallback runs stop folding it into
    // execute_ms with compile_ms stuck at 0.
    tel.compile_ms = jit.last_compile_ms();
  }
  InterpExecutor interp(ctx);
  auto result = interp.Execute(physical);
  tel.execute_ms = MsSince(t0) - tel.compile_ms;
  tel.threads_used = interp.exec_stats().threads_used;
  tel.morsels = interp.exec_stats().morsels;
  return result;
}

}  // namespace proteus
