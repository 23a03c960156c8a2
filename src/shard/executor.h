// ShardExecutor: one shard's execution engine.
//
// A shard owns its own TaskScheduler (shards × morsel workers compose: each
// shard drives its assigned slice of the global morsel decomposition through
// its private pool), runs the plan's pipelines over that slice, and ships
// the per-morsel partial sinks to the coordinator as a serialized
// PartialResult — never as live objects. On a single node the executor reads
// the catalog/plug-ins/caches in-process; in a multi-node deployment the
// same class would run inside the remote worker with its own ExecContext.
#pragma once

#include "src/common/task_scheduler.h"
#include "src/engine/interp.h"
#include "src/jit/tiered_compiler.h"
#include "src/shard/transport.h"

namespace proteus {

/// The unit of work the coordinator hands a shard: a physical plan plus the
/// shard's slice [morsel_begin, morsel_end) of the global morsel index
/// space. Shards never receive row ranges directly — the morsel
/// decomposition is the one deterministic frame both sides agree on, which
/// is what keeps results cell-identical across shard counts.
struct ShardTask {
  OpPtr plan;
  uint64_t morsel_begin = 0;
  uint64_t morsel_end = 0;
};

class ShardExecutor {
 public:
  /// `base` supplies catalog/plug-ins/caches *and the coordinator's shared
  /// compiled-query cache* (ExecContext::jit_cache); the executor swaps in
  /// its own scheduler and drops the stats sink (the coordinator already
  /// collected cold-access stats before fanning out). The shard's slice
  /// runs through the region runner (jit::RunRegion) with `use_jit`: N
  /// shards of one plan trigger exactly one compile, because concurrent
  /// lookups of the same shape single-flight, and every engine produces
  /// bit-identical partials, so the choice never affects the merged result.
  ShardExecutor(int shard_id, const ExecContext& base, int num_threads, bool use_jit = false);

  /// Runs the task's morsel slice, Sends the serialized partials through
  /// `transport`, and reports how the slice ran in `stats`.
  Status Run(const ShardTask& task, ShardTransport* transport, jit::RegionStats* stats);

 private:
  int shard_id_;
  TaskScheduler scheduler_;
  ExecContext ctx_;
  bool use_jit_ = false;
};

}  // namespace proteus
