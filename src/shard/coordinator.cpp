#include "src/shard/coordinator.h"

#include <algorithm>
#include <thread>

#include "src/common/counters.h"
#include "src/common/mutex.h"
#include "src/jit/query_cache.h"
#include "src/obs/trace.h"
#include "src/shard/executor.h"
#include "src/shard/partial_result.h"

namespace proteus {

ShardCoordinator::ShardCoordinator(ExecContext base, int num_shards, int threads_per_shard,
                                   bool use_jit)
    : base_(base),
      num_shards_(std::max(1, num_shards)),
      threads_per_shard_(threads_per_shard),
      use_jit_(use_jit) {}

bool ShardCoordinator::PlanIsShardable(const OpPtr& plan) { return proteus::PlanIsShardable(plan); }

Result<QueryResult> ShardCoordinator::Run(const OpPtr& plan, ShardTransport* transport,
                                          ShardExecStats* stats) {
  if (!PlanIsShardable(plan)) {
    return Status::InvalidArgument("plan cannot be sharded");
  }
  PROTEUS_RETURN_NOT_OK(PreOpenPlanPlugins(base_, plan));

  // The global morsel decomposition is the contract between shard counts:
  // it depends only on the data and morsel_rows, and shards receive
  // contiguous index slices of it.
  InterpExecutor probe(base_);
  PROTEUS_ASSIGN_OR_RETURN(uint64_t num_morsels, probe.CountPlanMorsels(plan));
  // EvenSplit returns fewer (never empty) slices when morsels < shards:
  // the surplus shards simply don't run.
  std::vector<ScanRange> slices =
      EvenSplit(num_morsels, static_cast<uint64_t>(num_shards_));

  // Snapshot the shared compiled-query cache so the stats can report this
  // run's compile/hit deltas — the proof that N shards triggered one compile.
  jit::CompiledQueryCache::Stats cache_before;
  if (base_.jit_cache != nullptr) cache_before = base_.jit_cache->stats();

  // Fan out: one executor thread per shard, each with its own morsel pool.
  // Shard threads write only to the transport and their status slot; their
  // execution counters fold back into the coordinator thread afterwards,
  // keeping benchmark accounting aligned with non-sharded runs.
  std::vector<Status> shard_status(slices.size(), Status::OK());
  std::vector<char> shard_jit(slices.size(), 0);
  std::vector<char> shard_tiered(slices.size(), 0);
  std::vector<char> shard_verified(slices.size(), 0);
  std::vector<int> shard_tier(slices.size(), 0);
  std::vector<jit::TieredRunStats> shard_tiered_stats(slices.size());
  std::vector<uint64_t> shard_steals(slices.size(), 0);
  std::vector<uint64_t> shard_dealt(slices.size(), 0);
  ExecCounters shard_counters;
  Mutex counters_mu;
  int threads_per_shard = 1;
  {
    std::vector<std::thread> threads;
    threads.reserve(slices.size());
    for (size_t i = 0; i < slices.size(); ++i) {
      threads.emplace_back([&, i] {
        ExecCounters before = GlobalCounters();
        ShardExecutor executor(static_cast<int>(i), base_, threads_per_shard_, use_jit_);
        ShardTask task{plan, slices[i].begin, slices[i].end};
        shard_status[i] = executor.Run(task, transport);
        shard_jit[i] = executor.jit_ran() ? 1 : 0;
        shard_tiered[i] = executor.tiered_ran() ? 1 : 0;
        shard_verified[i] = executor.ir_verified() ? 1 : 0;
        shard_tier[i] = executor.served_tier();
        shard_steals[i] = executor.steals();
        shard_dealt[i] = executor.tasks_dealt();
        if (executor.tiered_ran()) shard_tiered_stats[i] = executor.tiered_stats();
        ExecCounters delta = GlobalCounters().Since(before);
        MutexLock lk(counters_mu);
        shard_counters += delta;
        threads_per_shard = executor.num_threads();
      });
    }
    for (auto& t : threads) t.join();
  }
  GlobalCounters() += shard_counters;
  for (const Status& s : shard_status) PROTEUS_RETURN_NOT_OK(s);

  // Collect in shard order — slice order is global morsel order, so
  // appending shard partials reconstructs the exact fold sequence the
  // single-node morsel executor uses.
  const OpPtr& top = plan->child(0);
  const Operator* nest = top->kind() == OpKind::kNest ? top.get() : nullptr;
  PlanPartials all;
  all.nest = nest != nullptr;
  const double collect_start_us = base_.trace != nullptr ? base_.trace->NowUs() : 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    PROTEUS_ASSIGN_OR_RETURN(std::string bytes, transport->Collect(static_cast<int>(i)));
    PROTEUS_ASSIGN_OR_RETURN(PartialResult partial, PartialResult::Deserialize(bytes));
    const PartialResult::Kind expected =
        nest != nullptr ? PartialResult::Kind::kGroups : PartialResult::Kind::kAggregates;
    if (partial.kind != expected) {
      return Status::Internal("shard " + std::to_string(i) + " sent mismatched partial kind");
    }
    if (partial.partials.num_morsels() != slices[i].size()) {
      return Status::Internal("shard " + std::to_string(i) + " sent " +
                              std::to_string(partial.partials.num_morsels()) +
                              " morsel partials, expected " + std::to_string(slices[i].size()));
    }
    // Validate against the plan before any merge: a wire-valid payload
    // whose aggregate vectors don't match the plan's outputs would index
    // out of bounds in the fold (arity) or land in the wrong Final() branch
    // (monoid). The wire format is the trust boundary — a socket transport
    // hands us whatever the peer sent.
    const auto& outputs = nest != nullptr ? nest->outputs() : plan->outputs();
    auto check_aggs = [&](const std::vector<Aggregator>& aggs) -> Status {
      if (aggs.size() != outputs.size()) {
        return Status::Internal("shard " + std::to_string(i) +
                                " sent an aggregate vector of arity " +
                                std::to_string(aggs.size()) + ", expected " +
                                std::to_string(outputs.size()));
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        if (aggs[a].monoid() != outputs[a].monoid) {
          return Status::Internal("shard " + std::to_string(i) +
                                  " sent monoid " + MonoidName(aggs[a].monoid()) +
                                  " for output " + std::to_string(a) + ", expected " +
                                  MonoidName(outputs[a].monoid));
        }
      }
      return Status::OK();
    };
    for (const auto& aggs : partial.partials.agg_morsels) {
      PROTEUS_RETURN_NOT_OK(check_aggs(aggs));
    }
    for (const auto& table : partial.partials.group_morsels) {
      for (const auto& aggs : table.aggs) {
        PROTEUS_RETURN_NOT_OK(check_aggs(aggs));
      }
    }
    all.Append(std::move(partial.partials));
  }
  if (base_.trace != nullptr) {
    base_.trace->Emit("exchange_collect", collect_start_us,
                      base_.trace->NowUs() - collect_start_us, "shards",
                      static_cast<int64_t>(slices.size()));
  }

  stats->shards_used = static_cast<int>(slices.size());
  stats->bytes_exchanged = transport->bytes_exchanged();
  stats->threads_per_shard = threads_per_shard;
  stats->morsels = num_morsels;
  stats->jit_shards = 0;
  for (char j : shard_jit) stats->jit_shards += j;
  // Verified means *every* shard that ran generated code ran a verified
  // module — one unverified shard (e.g. a cached pre-verifier module) makes
  // the whole query unverified.
  stats->ir_verified = stats->jit_shards > 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    if (shard_jit[i] != 0 && shard_verified[i] == 0) stats->ir_verified = false;
  }
  for (size_t i = 0; i < slices.size(); ++i) {
    stats->steals += shard_steals[i];
    stats->tasks_dealt += shard_dealt[i];
    stats->compile_tier = std::max(stats->compile_tier, shard_tier[i]);
    if (shard_tiered[i] == 0) continue;
    const jit::TieredRunStats& ts = shard_tiered_stats[i];
    stats->tiered_shards++;
    stats->morsels_interpreted += ts.morsels_interpreted;
    stats->morsels_jit += ts.morsels_jit;
    stats->swap_ms = std::max(stats->swap_ms, ts.swap_ms);
    stats->first_morsel_ms = std::max(stats->first_morsel_ms, ts.first_morsel_ms);
  }
  if (base_.jit_cache != nullptr) {
    jit::CompiledQueryCache::Stats after = base_.jit_cache->stats();
    stats->jit_compiles = after.compiles - cache_before.compiles;
    stats->jit_cache_hits = after.hits - cache_before.hits;
    stats->compile_ms = after.compile_ms_total - cache_before.compile_ms_total;
  }
  return FinalizePlanPartials(*plan, nest, std::move(all), base_.trace);
}

}  // namespace proteus
