// ShardCoordinator: partitioned scale-out execution over the Split() API.
//
// The plug-in Split() range API (PR 1) was designed so scan ranges can live
// on different machines; the coordinator is the next scaling rung after
// intra-node morsel parallelism. It decomposes an optimized physical plan's
// driver scan into the *global* morsel sequence (the same deterministic
// decomposition the single-node morsel executor uses), deals contiguous
// morsel slices to N ShardExecutors, and folds the per-morsel partials they
// ship back — through the serialized PartialResult wire format — in shard
// order, i.e. in global morsel order. Because every shard count folds the
// exact same per-morsel partials in the exact same order, query results are
// cell-identical (float bits included) for every num_shards by construction.
//
// Single-node today: shards run as threads against a LoopbackTransport. The
// boundary is already a real serialization boundary, so a socket transport
// plus remote executors is a drop-in, not a rewrite.
#pragma once

#include "src/engine/interp.h"
#include "src/jit/tiered_compiler.h"
#include "src/shard/transport.h"

namespace proteus {

/// How a sharded query ran (surfaced as QueryTelemetry).
struct ShardExecStats {
  int shards_used = 0;          ///< executors that received a morsel slice
  uint64_t bytes_exchanged = 0; ///< serialized partial bytes through the transport
  /// Work-stealing counters summed over every shard's private morsel pool
  /// (each ShardExecutor owns its scheduler, so these are per-run numbers).
  uint64_t tasks_dealt = 0;
  uint64_t steals = 0;
  /// The shards' per-slice region stats, combined by jit::Merge. Every
  /// ShardExecutor gets the coordinator's ExecContext — one compiled-query
  /// cache for all shards — so a cold cacheable plan compiles once (the
  /// other shards single-flight onto that compile) and a warm one not at
  /// all; each slice reports only its own compile, never another query's.
  jit::RegionStats region;
};

class ShardCoordinator {
 public:
  /// `base` supplies catalog/plug-ins/stats/caches (its scheduler is not
  /// used — each shard owns one). `num_shards` caps the fan-out; fewer run
  /// when the plan yields fewer morsels. `threads_per_shard` sizes each
  /// shard's morsel pool (shards × workers compose). Each shard runs its
  /// slice through the region runner (jit::RunRegion) with `use_jit` —
  /// partials are bit-identical whichever engine it picks.
  ShardCoordinator(ExecContext base, int num_shards, int threads_per_shard,
                   bool use_jit = false);

  /// Executes `plan` (root = Reduce; PlanIsShardable) across shards and
  /// merges their partial results deterministically in shard order.
  Result<QueryResult> Run(const OpPtr& plan, ShardTransport* transport,
                          ShardExecStats* stats);

 private:
  ExecContext base_;
  int num_shards_;
  int threads_per_shard_;
  bool use_jit_;
};

}  // namespace proteus
