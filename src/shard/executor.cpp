#include "src/shard/executor.h"

#include "src/obs/trace.h"
#include "src/shard/partial_result.h"

namespace proteus {

ShardExecutor::ShardExecutor(int shard_id, const ExecContext& base, int num_threads,
                             bool use_jit)
    : shard_id_(shard_id), scheduler_(num_threads), ctx_(base), use_jit_(use_jit) {
  ctx_.scheduler = &scheduler_;
  ctx_.stats = nullptr;  // cold-access stats were collected by the coordinator
  // ctx_.jit_cache is inherited from `base`: every shard shares the
  // coordinator's compiled-query cache, so one plan compiles once per
  // engine, not once per shard.
}

Status ShardExecutor::Run(const ShardTask& task, ShardTransport* transport,
                          jit::RegionStats* stats) {
  // The coordinator runs each executor on its own thread, so the label
  // becomes the shard's track in the exported trace.
  if (ctx_.trace != nullptr) {
    ctx_.trace->LabelThisThread("shard-" + std::to_string(shard_id_));
  }
  OBS_SPAN(ctx_.trace, "shard_slice", "shard", shard_id_, "morsels",
           static_cast<int64_t>(task.morsel_end - task.morsel_begin));
  PROTEUS_ASSIGN_OR_RETURN(
      PlanPartials partials,
      jit::RunRegion(ctx_, task.plan, ScanRange{task.morsel_begin, task.morsel_end}, use_jit_,
                     stats));
  std::string bytes = PartialResult::FromPartials(std::move(partials)).Serialize();
  OBS_SPAN(ctx_.trace, "exchange_send", "shard", shard_id_, "bytes",
           static_cast<int64_t>(bytes.size()));
  return transport->Send(shard_id_, std::move(bytes));
}

}  // namespace proteus
