#include "src/shard/coordinator.h"

#include <algorithm>
#include <thread>

#include "src/common/counters.h"
#include "src/common/mutex.h"
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

  // Fan out: one executor thread per shard, each with its own morsel pool.
  // Shard threads write only to the transport and their own slots; their
  // execution counters fold back into the coordinator thread afterwards,
  // keeping benchmark accounting aligned with non-sharded runs.
  std::vector<Status> shard_status(slices.size(), Status::OK());
  std::vector<jit::RegionStats> shard_region(slices.size());
  std::vector<TaskScheduler::BatchStats> shard_pool(slices.size());
  ExecCounters shard_counters;
  Mutex counters_mu;
  {
    std::vector<std::thread> threads;
    threads.reserve(slices.size());
    for (size_t i = 0; i < slices.size(); ++i) {
      threads.emplace_back([&, i] {
        ExecCounters before = GlobalCounters();
        // Every ParallelFor this shard thread submits (to its private pool)
        // is credited to its slot.
        TaskScheduler::StatsScope pool_scope(&shard_pool[i]);
        ShardExecutor executor(static_cast<int>(i), base_, threads_per_shard_, use_jit_);
        ShardTask task{plan, slices[i].begin, slices[i].end};
        shard_status[i] = executor.Run(task, transport, &shard_region[i]);
        ExecCounters delta = GlobalCounters().Since(before);
        MutexLock lk(counters_mu);
        shard_counters += delta;
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
  const GroupLayout layout = nest != nullptr ? GroupLayout::ForNest(*nest) : GroupLayout{};
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
    // whose aggregate vectors or group-table layouts don't match the plan's
    // outputs would index out of bounds in the fold (arity) or land in the
    // wrong Final() branch (monoid, slot). The wire format is the trust boundary — a socket transport
    // hands us whatever the peer sent.
    const auto& outputs = plan->outputs();
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
    for (const GroupTable& table : partial.partials.group_morsels) {
      if (table.layout() != layout) {
        return Status::Internal("shard " + std::to_string(i) + " sent group layout " +
                                table.layout().ToString() + ", expected " +
                                layout.ToString());
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
  for (const TaskScheduler::BatchStats& pool : shard_pool) {
    stats->tasks_dealt += pool.dealt;
    stats->steals += pool.steals;
  }
  stats->region = jit::Merge(shard_region);
  return FinalizePlanPartials(*plan, nest, std::move(all), base_.trace);
}

}  // namespace proteus
