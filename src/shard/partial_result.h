// PartialResult: the wire format shard results cross the shard boundary in.
//
// A shard never hands the coordinator live objects — its per-morsel partial
// sinks (Reduce aggregate vectors or Nest group tables, in global morsel
// order) are encoded into a flat byte string, shipped through a
// ShardTransport, and decoded on the coordinator. The format also carries
// materialized row batches (columns + boxed rows) so future operators that
// exchange intermediate tuples — e.g. a distributed build side — reuse the
// same envelope instead of inventing another one.
//
// Layout (see src/common/wire.h for primitive encodings):
//   magic "PS" | version u8 (2) | kind u8 | payload
//   kAggregates: u64 morsel count, then per morsel: u64 agg count + aggs
//   kGroups:     u64 morsel count, then per morsel: one GroupTable — its
//                layout (monoid and slot per output), then its key, slot
//                and Aggregator columns (GroupTable::Serialize)
//   kRows:       u64 column count + names, u64 row count, then per row:
//                u64 cell count + values
#pragma once

#include <string>
#include <string_view>

#include "src/engine/partial_sink.h"
#include "src/engine/result.h"

namespace proteus {

struct PartialResult {
  enum class Kind : uint8_t {
    kAggregates = 1,  ///< per-morsel Reduce accumulator vectors
    kGroups = 2,      ///< per-morsel Nest group tables
    kRows = 3,        ///< a materialized row batch
  };

  Kind kind = Kind::kAggregates;
  /// kAggregates / kGroups payload (PlanPartials.nest mirrors `kind`).
  PlanPartials partials;
  /// kRows payload.
  QueryResult rows;

  /// Wraps one shard's partial sinks (kind picked from `p.nest`).
  static PartialResult FromPartials(PlanPartials p);
  static PartialResult FromRows(QueryResult r);

  std::string Serialize() const;
  static Result<PartialResult> Deserialize(std::string_view bytes);
};

}  // namespace proteus
