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

#include <string>
#include <string_view>
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

/// Where a Nest output's fold state lives in a GroupTable row: one 8-byte
/// slot (int64, double bits, or a 0/1 bool) plus a seen flag, or — for
/// outputs a slot cannot hold — a boxed Aggregator in the table's
/// Aggregator column.
enum class GroupSlot : uint8_t { kInt = 0, kFloat = 1, kBool = 2, kAggregator = 3 };

/// Kind of a group key in a GroupTable's key column.
enum class GroupKeyTag : uint8_t { kNull = 0, kInt = 1, kFloat = 2, kBool = 3, kString = 4 };

/// The shape of a Nest's group table, derived from the Nest's outputs alone
/// (ForNest), so every engine, morsel, shard and tiered swap of one plan
/// builds tables that merge column for column:
///   count, and int/date/bool sums          -> kInt slot
///   float sums and float max/min           -> kFloat slot
///   int/date max/min                       -> kInt slot
///   bool max/min and bool and/or           -> kBool slot
///   collection monoids, string max/min and
///   outputs of any other or unknown type   -> kAggregator column
struct GroupLayout {
  struct Output {
    Monoid monoid;
    GroupSlot slot;
    bool operator==(const Output& o) const { return monoid == o.monoid && slot == o.slot; }
  };
  std::vector<Output> outputs;

  static GroupLayout ForNest(const Operator& nest);
  bool operator==(const GroupLayout& o) const { return outputs == o.outputs; }
  bool operator!=(const GroupLayout& o) const { return !(*this == o); }
  std::string ToString() const;
};

/// The one group table of a Nest, shared by both engines at every Nest
/// position. A Nest below the root folds its whole input into one, in row
/// order; a Nest under the root fills one per morsel and folds them together
/// in morsel order (first-appearance group order then matches a row-order
/// scan's).
///
/// Columns, one entry per group in first-appearance order:
///   - the key: a tag, 8 bits (int, bool, or the double's bit pattern) and,
///     for strings, bytes in one shared buffer. Keys hash and compare with
///     Value::Equals semantics — 0.0 and -0.0 are one group, an int key and
///     an equal float key are one group, NaN never matches — and all null
///     keys form one group;
///   - a slot row of layout().outputs.size() 8-byte slots followed by one
///     seen byte per output, padded to whole words. A slot starts at 0
///     (1 for `and`); its seen byte turns 1 when a non-null input folds into
///     it (count never sets it). Unseen max/min finalize to null and an
///     unseen sum to Int(0), as Aggregator does;
///   - the Aggregator column: one boxed Aggregator per kAggregator output.
/// A flat open-addressing index over the key hashes finds a key's group.
///
/// The interpreter writes it from evaluated Values (AddRow); generated code
/// calls Upsert once per row and updates the returned slot row inline
/// (src/jit/jit_engine.cpp), reaching the Aggregator column through
/// AggregatorAt.
class GroupTable {
 public:
  GroupTable() : GroupTable(GroupLayout{}) {}
  explicit GroupTable(GroupLayout layout);

  const GroupLayout& layout() const { return layout_; }
  size_t size() const { return key_tag_.size(); }

  /// Interpreter row path: runs `row` through the Nest's predicate, then
  /// folds its key and outputs.
  Status AddRow(const Operator& nest, const EvalEnv& row);

  /// Finds or appends the group of the key (tag, bits, str[0, len)) and
  /// returns its slot row, valid until the next Upsert. `bits` is ignored
  /// for null and string keys, `str` for the others.
  int64_t* Upsert(GroupKeyTag tag, int64_t bits, const char* str, size_t len);

  int64_t* SlotRow(size_t g) { return slots_.data() + g * row_words_; }
  const int64_t* SlotRow(size_t g) const { return slots_.data() + g * row_words_; }
  /// Group index of a row pointer Upsert or SlotRow returned.
  size_t GroupOf(const int64_t* row) const {
    return static_cast<size_t>(row - slots_.data()) / row_words_;
  }
  /// The boxed accumulator of kAggregator output `output` in group `g`.
  Aggregator& AggregatorAt(size_t g, size_t output) {
    return aggs_[g * num_aggs_ + agg_index_[output]];
  }
  const Aggregator& AggregatorAt(size_t g, size_t output) const {
    return aggs_[g * num_aggs_ + agg_index_[output]];
  }

  GroupKeyTag KeyTag(size_t g) const { return static_cast<GroupKeyTag>(key_tag_[g]); }
  int64_t KeyBits(size_t g) const { return key_bits_[g]; }
  std::string_view KeyString(size_t g) const {
    return std::string_view(key_bytes_).substr(static_cast<size_t>(key_bits_[g]), key_len_[g]);
  }

  /// Group `g`'s key and folded output `output` as boxed Values.
  Value Key(size_t g) const;
  Value Cell(size_t g, size_t output) const;
  /// Output record of group `g` ({group_name: key, <outputs>...}).
  Value GroupRecord(const Operator& nest, size_t g) const;

  /// Folds `other` (same layout) into this table, appending unseen groups
  /// in `other`'s first-appearance order.
  void MergeFrom(GroupTable&& other);

  /// Wire round-trip for the shard boundary: the layout, then the columns.
  /// The hash index is rebuilt on deserialization; the reconstructed table
  /// merges and finalizes identically to the original. Malformed input
  /// (truncated columns, out-of-range tags or string spans, an Aggregator
  /// whose monoid disagrees with the layout) returns InvalidArgument.
  void Serialize(WireWriter* w) const;
  static Result<GroupTable> Deserialize(WireReader* r);

 private:
  bool KeyEquals(size_t g, GroupKeyTag tag, int64_t bits, const char* str, size_t len) const;
  size_t Append(GroupKeyTag tag, int64_t bits, const char* str, size_t len, uint64_t hash);
  void Grow();

  GroupLayout layout_;
  size_t row_words_ = 0;
  std::vector<int64_t> init_row_;     ///< a fresh group's slot row
  std::vector<uint32_t> agg_index_;   ///< output -> Aggregator column index
  size_t num_aggs_ = 0;

  std::vector<uint8_t> key_tag_;
  std::vector<int64_t> key_bits_;     ///< string keys: offset into key_bytes_
  std::vector<uint32_t> key_len_;     ///< string keys: byte length, else 0
  std::string key_bytes_;
  std::vector<uint64_t> key_hash_;
  std::vector<int64_t> slots_;        ///< group-major, row_words_ per group
  std::vector<Aggregator> aggs_;      ///< group-major, num_aggs_ per group
  std::vector<uint32_t> index_;       ///< group + 1 per bucket, 0 = empty
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
/// a group-table upsert per grouped row, a boxed row per emitted row — so a
/// JIT morsel partial is bit-indistinguishable from an interpreter one and
/// both merge through the same FinalizePlanPartials fold.
struct JitMorselSink {
  /// Scalar-aggregate or collection root: the morsel's accumulator vector
  /// (MakeReduceAggs shape).
  std::vector<Aggregator>* aggs = nullptr;
  /// Nest directly under the root: the morsel's group table, which the
  /// generated code upserts into and updates in place
  /// (proteus_morsel_groups hands it over).
  GroupTable* groups = nullptr;
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

// Nest under the root: the morsel's GroupTable*, which the generated code
// then drives through the proteus_group_* helpers (src/jit/runtime.h).
void* proteus_morsel_groups(void* sink);

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
