#include "src/core/query_engine.h"

#include <chrono>
#include <functional>

#include "src/calculus/calculus.h"
#include "src/jit/tiered_compiler.h"
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
    // A reopen that finds a new layout strands the modules compiled for the
    // old one (their keys no longer match); free them at once.
    plugins_.set_on_layout_change(
        [cache = jit_cache_.get()](const std::string& dataset) { cache->EraseReading(dataset); });
  }
  plugins_.set_trace(trace_recorder_.get());
  if (opts_.tiered) {
    tiered_compiler_ = std::make_unique<jit::TieredCompiler>();
  }
}

Status QueryEngine::RegisterDataset(DatasetInfo info) { return catalog_.Register(std::move(info)); }

void QueryEngine::InvalidateDataset(const std::string& dataset) {
  // Compiled modules stay: they bake the dataset's layout, not its data,
  // and the reopen erases them if the rewritten file changed the layout
  // (the registry's layout-change callback, wired in the constructor).
  plugins_.Evict(dataset);
  catalog_.stats().Invalidate(dataset);
  caches_.InvalidateDataset(dataset);
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
  // Per-query state lives on this call's stack or in the caller's
  // out-params; the engine keeps no copy of it, so N concurrent ExecutePlan
  // calls on one engine share only its thread-safe subsystems.
  QueryTelemetry local_tel;
  QueryTelemetry& tel = call.telemetry != nullptr ? *call.telemetry : local_tel;
  tel = QueryTelemetry{};
  if (call.ir != nullptr) call.ir->clear();

  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (opts_.metrics != nullptr) opts_.metrics->GetGauge("proteus_queries_inflight")->Add(1);

  auto result = ExecutePlanInner(std::move(logical_plan), call, tel);
  if (!result.ok() && result.status().code() == StatusCode::kCancelled) {
    tel.cancelled = true;
  }

  if (opts_.metrics != nullptr) {
    opts_.metrics->GetGauge("proteus_queries_inflight")->Add(-1);
    RecordMetrics(tel, result.ok());
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return result;
}

Result<QueryResult> QueryEngine::ExecutePlanInner(OpPtr logical_plan, const CallOptions& call,
                                                  QueryTelemetry& tel) {
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
  return Run(std::move(physical), call, tel);
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
    // Already cached for this scan shape *and* covering this query's
    // fields? If the existing block is too narrow, build a wider one
    // (Install() replaces covered same-signature blocks).
    OpPtr probe = Operator::Scan(scan->dataset(), scan->binding());
    const auto existing = caches_.FindMatch(*probe);
    if (existing != nullptr) {
      if (caches_.Covers(*existing, *scan, info->record_type())) continue;
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

Result<QueryResult> QueryEngine::Run(OpPtr physical, const CallOptions& call,
                                     QueryTelemetry& tel) {
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
    return RunInner(ctx, std::move(physical), tel, call.ir);
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
                                          std::string* ir) {
  auto t0 = std::chrono::steady_clock::now();
  const bool use_jit = opts_.mode == ExecMode::kJIT;
  // One routing decision: num_shards >= 1 is an explicit opt-in, so
  // shardable plans fan out through the coordinator, whose shards each run
  // their morsel slice through the region runner; every other plan (outer
  // chain joins, a Nest-driven main chain, or sharding off) runs whole
  // through the region runner on the engine's scheduler. The region runner
  // picks the engine — tiered, generated code, or the interpreter — and
  // every choice yields the same partials.
  jit::RegionStats region;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (opts_.num_shards >= 1 && PlanIsShardable(physical)) {
      ShardCoordinator coordinator(ctx, opts_.num_shards, opts_.num_threads, use_jit);
      LoopbackTransport transport;
      ShardExecStats shard_stats;
      auto r = coordinator.Run(physical, &transport, &shard_stats);
      tel.shards_used = shard_stats.shards_used;
      tel.bytes_exchanged = shard_stats.bytes_exchanged;
      tel.tasks_dealt = shard_stats.tasks_dealt;
      tel.steals = shard_stats.steals;
      region = std::move(shard_stats.region);
      return r;
    }
    PROTEUS_ASSIGN_OR_RETURN(PlanPartials partials,
                             jit::RunRegion(ctx, physical, std::nullopt, use_jit, &region));
    return FinalizePlanPartials(*physical, RootNest(physical), std::move(partials), ctx.trace);
  }();

  tel.used_jit = region.used_jit;
  tel.jit_parallel = region.used_jit;
  tel.ir_verified = region.ir_verified;
  tel.jit_cache_hit = region.cache_hit;
  tel.compile_ms = region.compile_ms;
  // A foreground compile delayed the morsels, so it leaves execute_ms; a
  // background compile overlapped them, so the full wall time stays.
  tel.execute_ms = MsSince(t0) - region.compile_wait_ms;
  tel.threads_used = region.threads;
  tel.morsels = region.morsels;
  tel.morsels_interpreted = region.morsels_interpreted;
  tel.morsels_jit = region.morsels_jit;
  tel.swap_ms = region.swap_ms;
  tel.first_morsel_ms = region.first_morsel_ms;
  tel.fallback_reason = std::move(region.fallback_reason);
  if (ir != nullptr && region.module != nullptr) *ir = region.module->ir;
  return result;
}

}  // namespace proteus
