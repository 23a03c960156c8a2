// Partial sinks of morsel-parallel execution: the per-morsel accumulator
// state a worker pipeline feeds (Reduce aggregate vectors, Nest group
// tables), plus the deterministic fold that turns a sequence of per-morsel
// partials back into a query result.
//
// Extracted from the interpreter so two consumers share one definition of
// the grouping/merge semantics: the in-process morsel executor (interp.cpp)
// and the shard subsystem (src/shard/), which serializes these partials
// across the shard boundary and folds them on the coordinator. Results stay
// identical across worker *and* shard counts precisely because both paths
// fold the same per-morsel partials in the same (global morsel) order.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/algebra/algebra.h"
#include "src/common/wire.h"
#include "src/engine/aggregator.h"
#include "src/engine/result.h"
#include "src/expr/eval.h"

namespace proteus {

namespace obs {
class TraceRecorder;
}  // namespace obs

/// Hash group table of a Nest operator. The single home of the grouping
/// semantics: a Nest below the root folds its whole input into one, in row
/// order; a Nest under the root fills one per morsel and folds them together
/// in morsel order (first-appearance group order then matches a row-order
/// scan's).
struct GroupTable {
  std::vector<Value> keys;
  std::vector<std::vector<Aggregator>> aggs;
  std::unordered_map<uint64_t, std::vector<size_t>> index;
  /// Per-morsel partials set this false and the merged distinct-group total
  /// is counted once instead, so bytes_materialized for a group-by matches
  /// a single-table fold regardless of morsel count.
  bool count_bytes = true;

  Status AddRow(const Operator& op, const EvalEnv& row);

  /// Raw-value row path used by generated (JIT) per-morsel pipelines, which
  /// hold the already-evaluated key in a register: finds or creates `key`'s
  /// group and returns its index; the caller then Add()s into aggs[group].
  /// Same first-appearance group order as AddRow.
  size_t UpsertKey(const Operator& op, Value key) { return FindOrAdd(op, std::move(key)); }

  /// Folds `other` into this table, appending unseen groups in `other`'s
  /// first-appearance order.
  void MergeFrom(const Operator& op, GroupTable&& other);

  /// Output record of group `g` ({group_name: key, <output aggregates>...}).
  Value GroupRecord(const Operator& op, size_t g) const;

  /// Wire round-trip for the shard boundary. The hash index is rebuilt on
  /// deserialization; the reconstructed table merges and finalizes
  /// identically to the original.
  void Serialize(WireWriter* w) const;
  static Result<GroupTable> Deserialize(WireReader* r);

 private:
  size_t FindOrAdd(const Operator& op, Value key);
};

/// The binding a Nest's grouped record is published under.
const std::string& NestBinding(const Operator& op);

/// Runs `row` through the Reduce root's predicate and folds it into `aggs`
/// (one accumulator per output).
Status AccumulateReduceRow(const Operator& reduce, const EvalEnv& row,
                           std::vector<Aggregator>* aggs);

/// Zero-valued accumulators matching the Reduce root's outputs.
std::vector<Aggregator> MakeReduceAggs(const Operator& reduce);

/// Turns the folded accumulators into the final row set (a single collection
/// output of records unfolds into rows).
QueryResult FinalizeReduce(const Operator& reduce, std::vector<Aggregator>& aggs);

/// Per-morsel partial sinks of one plan region, in global morsel order.
/// Exactly one of the two vectors is populated: agg_morsels when the plan's
/// top is the Reduce root itself, group_morsels when a Nest sits directly
/// under it.
struct PlanPartials {
  bool nest = false;
  std::vector<std::vector<Aggregator>> agg_morsels;
  std::vector<GroupTable> group_morsels;

  size_t num_morsels() const { return nest ? group_morsels.size() : agg_morsels.size(); }

  /// Concatenates `other`'s morsel entries after this one's — the shard
  /// coordinator appends shard partials in shard order, reconstructing the
  /// global morsel sequence.
  void Append(PlanPartials&& other);
};

/// Folds per-morsel partials in morsel order and runs the Reduce root — the
/// one merge implementation shared by the morsel executor and the shard
/// coordinator, so neither worker nor shard counts can change the fold
/// shape. `nest` is the Nest directly under `reduce`, or null. Requires at
/// least one morsel entry. `trace` (nullable) records the merge as a
/// "partial_merge" span with the folded morsel count.
Result<QueryResult> FinalizePlanPartials(const Operator& reduce, const Operator* nest,
                                         PlanPartials&& partials,
                                         obs::TraceRecorder* trace = nullptr);

/// One morsel's partial sink as seen by a generated (JIT) pipeline through
/// the C entry points below. The generated function keeps per-tuple work in
/// registers and crosses this boundary only at the partial-sink granularity
/// the interpreter's morsel executor uses too — a scalar flush per morsel,
/// a group upsert per grouped row, a boxed row per emitted row — so a JIT
/// morsel partial is bit-indistinguishable from an interpreter one and both
/// merge through the same FinalizePlanPartials fold.
struct JitMorselSink {
  /// Scalar-aggregate or collection root: the morsel's accumulator vector
  /// (MakeReduceAggs shape).
  std::vector<Aggregator>* aggs = nullptr;
  /// Nest directly under the root: the morsel's group table + the Nest op.
  GroupTable* groups = nullptr;
  const Operator* nest = nullptr;
  /// Collection root: result column names; row_records is true when the
  /// head expression was a record constructor (rows box into records with
  /// these names, matching what Eval() produces for the interpreter).
  const std::vector<std::string>* columns = nullptr;
  bool row_records = false;

  /// Outer-join matched-build bitmaps this sink's marks land in, indexed by
  /// join table id (entries stay empty for non-outer tables). The generated
  /// probe body sets one byte per matched build row — the JIT counterpart
  /// of the interpreter's MatchedBitmaps. Morsel sinks share one bitmap set
  /// per *worker* (marking is an idempotent 0→1 write, so sharing across a
  /// worker's morsels cannot change the OR); drain sinks get their own. The
  /// host ORs all sets before running each generated unmatched-drain pass.
  /// Null when the plan has no outer chain joins.
  std::vector<std::vector<uint8_t>>* matched = nullptr;

  size_t cur_group = 0;       ///< group of the row being aggregated
  std::vector<Value> staged;  ///< cells of the row being emitted
};

}  // namespace proteus

// ---------------------------------------------------------------------------
// C ABI partial-sink entry points callable from generated IR. `sink` is a
// JitMorselSink*. Registered with the ORC JIT by jit::RuntimeSymbols().
// ---------------------------------------------------------------------------
extern "C" {

// Scalar Reduce root: one flush per (morsel, output) after the morsel's
// loop — `rows` is the number of rows that contributed; 0 leaves the
// accumulator in its empty state exactly like an interpreter partial that
// saw no rows.
void proteus_sink_agg_flush_int(void* sink, uint32_t i, int64_t v, int64_t rows);
void proteus_sink_agg_flush_double(void* sink, uint32_t i, double v, int64_t rows);
void proteus_sink_agg_flush_bool(void* sink, uint32_t i, int32_t v, int64_t rows);

// Nest under the root: begin a grouped row (upsert its key), then fold each
// output's evaluated value. The null variant covers SQL-null group keys
// (e.g. rows drained from an outer join grouping on a probe-side field).
void proteus_sink_group_begin_int(void* sink, int64_t key);
void proteus_sink_group_begin_double(void* sink, double key);
void proteus_sink_group_begin_bool(void* sink, int32_t key);
void proteus_sink_group_begin_str(void* sink, const char* p, int64_t len);
void proteus_sink_group_begin_null(void* sink);
void proteus_sink_group_agg_count(void* sink, uint32_t i);
void proteus_sink_group_agg_int(void* sink, uint32_t i, int64_t v);
void proteus_sink_group_agg_double(void* sink, uint32_t i, double v);
void proteus_sink_group_agg_bool(void* sink, uint32_t i, int32_t v);
void proteus_sink_group_agg_str(void* sink, uint32_t i, const char* p, int64_t len);

// Collection root: stage one row's cells, then box it into the morsel's
// collection accumulator. emit_null stages a SQL-null cell (outer-join
// drain rows, outer-unnest rows). A set-monoid accumulator deduplicates on
// Add, so emit_end needs no set-specific variant here.
void proteus_sink_emit_int(void* sink, int64_t v);
void proteus_sink_emit_double(void* sink, double v);
void proteus_sink_emit_bool(void* sink, int32_t v);
void proteus_sink_emit_str(void* sink, const char* p, int64_t len);
void proteus_sink_emit_null(void* sink);
void proteus_sink_emit_end(void* sink);

// Outer joins: mark build row `row` of join table `table` as matched in
// this partial's bitmap (called after the join's residual predicate passes,
// mirroring the interpreter's matched_[idx] = true).
void proteus_sink_join_matched(void* sink, uint32_t table, int64_t row);

}  // extern "C"
