// Runtime support library for generated code (paper §5.1 "Proteus also uses
// pre-existing (i.e., not generated) C++ code for some of its functionality.
// Proteus wraps these operations in C++ functions and calls them when
// appropriate from the generated code").
//
// Every generated function receives a MorselCtx* over the query's
// QueryRuntime. Join tables, mid-chain Nest group tables (the GroupTable of
// partial_sink.h, which root-Nest morsel sinks use too), and unnest cursors
// live here; query results live in the per-morsel partial sinks
// (partial_sink.h). Tight per-tuple work (field loads from binary data,
// predicate evaluation, aggregation arithmetic) is emitted as straight LLVM
// IR and never crosses this boundary. CSV, JSON and array-element reads
// cross it through one multi-field read helper per format — one call per
// read point, emitted by the format's AccessEmitter (access.h) — mirroring
// the paper's plug-in calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/engine/partial_sink.h"
#include "src/engine/radix_table.h"
#include "src/plugins/csv_plugin.h"
#include "src/plugins/json_plugin.h"

namespace proteus {
namespace jit {

/// Radix join state: build-side keys + packed 8-byte payload slots. Filled
/// once by the build pipeline, then read-only — probe iteration state lives
/// in the per-task MorselCtx so concurrent morsel pipelines can probe the
/// same table. Null-keyed build rows (proteus_join_insert_null) occupy a row
/// slot without a radix entry: probes never reach them, but an outer join's
/// unmatched drain still iterates them — exactly the interpreter's
/// "null keys never match; outer joins still keep the row" rule.
struct JoinTableRt {
  RadixTable table;
  std::vector<int64_t> keys;
  std::vector<int64_t> payload;  ///< row-major, slots_per_row per entry
  uint32_t slots_per_row = 0;
};

/// Lazy JSON array iteration state for generated Unnest loops.
struct UnnestStateRt {
  const char* obj_base = nullptr;
  uint32_t pos = 0;
  uint32_t end = 0;
  const JsonElem* elems = nullptr;
  const JsonElem* cur = nullptr;  ///< the current element (proteus_unnest_has_next)
  /// The element field names the plan reads (proteus_unnest_read's `names`
  /// blob, split once) and the current element's spans of them, located by
  /// its first read in one scan.
  const char* names_blob = nullptr;
  std::vector<std::string_view> names;
  std::vector<JsonSpan> spans;
  bool located = false;  ///< spans hold the current element's fields
};

/// Errors generated code raises through proteus_runtime_error.
enum class RuntimeError : int32_t { kNone = 0, kDivisionByZero = 1, kModuloByZero = 2 };

/// Query-lifetime state shared by every pipeline invocation. During the
/// morsel-parallel phase everything here is read-only: join tables and
/// group tables are filled only inside proteus_build (chain join builds, a
/// Nest driver leaf's fold, and whatever their subtrees contain), which runs
/// once before the fan-out. Per-task mutable state lives in MorselCtx.
struct QueryRuntime {
  std::vector<std::unique_ptr<JoinTableRt>> joins;
  std::vector<std::unique_ptr<GroupTable>> groups;
  uint32_t num_unnests = 0;
  /// Parallel radix build for join tables (byte-identical layout to the
  /// serial build); null builds serially.
  TaskScheduler* scheduler = nullptr;
  /// The query's cancel flag (ExecContext::cancel), polled by generated
  /// Nest folds through proteus_cancel_requested. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// First error generated code raised (proteus_runtime_error), or kNone.
  /// Concurrent morsel pipelines may raise at once, so the first write wins
  /// atomically; the host checks failed() at every morsel boundary and after
  /// each phase, and returns error().
  std::atomic<int32_t> error_code{static_cast<int32_t>(RuntimeError::kNone)};

  bool failed() const {
    return error_code.load(std::memory_order_acquire) !=
           static_cast<int32_t>(RuntimeError::kNone);
  }
  /// The raised error as the interpreter reports it for the same row
  /// (src/expr/eval.cpp), so both engines fail a query with one status.
  Status error() const;

  uint32_t AddJoin(uint32_t payload_slots, bool partitioned = false) {
    auto t = std::make_unique<JoinTableRt>();
    t->slots_per_row = payload_slots;
    t->table.set_partitioned(partitioned);
    joins.push_back(std::move(t));
    return static_cast<uint32_t>(joins.size() - 1);
  }
  uint32_t AddGroup(GroupLayout layout) {
    groups.push_back(std::make_unique<GroupTable>(std::move(layout)));
    return static_cast<uint32_t>(groups.size() - 1);
  }
  uint32_t AddUnnest() { return num_unnests++; }

  /// Unescaped JSON strings the query's morsel contexts handed over when
  /// they ended (MorselCtx::unescaped): join payloads built in
  /// proteus_build keep pointers into them until the query ends.
  void Keep(std::list<std::string>* strings) {
    MutexLock lk(kept_mu_);
    kept_.splice(kept_.end(), *strings);
  }

 private:
  Mutex kept_mu_;
  std::list<std::string> kept_ GUARDED_BY(kept_mu_);
};

/// Per-invocation mutable state of one generated pipeline call: every
/// runtime helper takes a MorselCtx* so concurrent morsel tasks never write
/// shared state. Unnest cursors and join probe iterators are per-task; the
/// one-shot build and drain functions simply run with a ctx of their own.
struct MorselCtx {
  explicit MorselCtx(QueryRuntime* runtime)
      : rt(runtime), unnests(runtime->num_unnests), probes(runtime->joins.size()) {}
  MorselCtx(const MorselCtx&) = delete;
  MorselCtx& operator=(const MorselCtx&) = delete;
  ~MorselCtx() {
    if (!unescaped.empty()) rt->Keep(&unescaped);
  }

  struct ProbeState {
    std::vector<uint32_t> matches;
    size_t pos = 0;
    uint32_t cur_row = 0;  ///< build row of the last yielded match (outer-join
                           ///< bitmap marking reads it via proteus_join_probe_row)
  };

  QueryRuntime* rt;
  std::vector<UnnestStateRt> unnests;
  std::vector<ProbeState> probes;  ///< one per join table
  /// Bytes of the escaped JSON strings this context read, unescaped (a
  /// list: the strings never move, so the pointers generated code holds
  /// stay valid); handed to rt when the context ends.
  std::list<std::string> unescaped;
};

/// Registers every helper below in `names` -> address pairs so the ORC JIT
/// can resolve them.
std::vector<std::pair<std::string, void*>> RuntimeSymbols();

}  // namespace jit
}  // namespace proteus

// ---------------------------------------------------------------------------
// C ABI helpers callable from generated IR. `ctx` is a jit::MorselCtx* —
// per-task state, so every helper below is safe to call from concurrent
// morsel pipelines over the same QueryRuntime.
// ---------------------------------------------------------------------------
extern "C" {

// Multi-field raw reads: one call reads a set of `n` (<= 64) fields of one
// row or array element — every field one read point of generated code
// needs. `fields` holds the n fields' keys (per helper below), then their n
// TypeKinds (kInt64, kFloat64, kBool or kString). Field i's value lands in
// out[2i] (an int, a double's bits, a bool as 0/1, or a string's address)
// and out[2i + 1] (a string's length); bit i of the result is set when it is
// SQL null (its value slots then hold 0 or ""). Each call adds n to
// raw_field_accesses.
//
// CSV: keys are column indexes, ascending, located in one forward pass
// (CsvPlugin::LocateFields) that continues from `cursor` — the row cursor's
// column and position in two i64 slots, which a scan resets to column -1
// at every row — when it lies closer than the row's positional-map sample.
// An empty field is SQL null; other fields convert as CsvPlugin::ReadValue
// converts them (strings: the text in place).
uint64_t proteus_csv_read(const void* plugin, uint64_t oid, const int64_t* fields, uint32_t n,
                          int64_t* out, int64_t* cursor);
// JSON, through the structural index (JsonPlugin::LocateFields): keys are
// the fields' path hashes. The interpreter's rules hold: an absent field or
// a JSON null is SQL null; strings are unescaped as ReadValue unescapes
// them, in place in the file when they hold no backslash, else in
// ctx->unescaped, which lives as long as the query; bools read `true` as 1.
uint64_t proteus_json_read(void* ctx, const void* plugin, uint64_t oid, const int64_t* fields,
                           uint32_t n, int64_t* out);

// JSON array unnest (unnestInit / unnestHasNext / unnestGetNext). Cursor
// state lives in ctx->unnests[slot].
void proteus_unnest_init(void* ctx, uint32_t slot, const void* plugin, uint64_t oid,
                         uint64_t path_hash);
int32_t proteus_unnest_has_next(void* ctx, uint32_t slot);
void proteus_unnest_advance(void* ctx, uint32_t slot);
// Multi-field read of the current element, with the JSON rules above:
// keys index `names` — the `num_names` element field names the plan reads,
// NUL-terminated back to back — or are -1 for the element itself. An
// element's first read locates every name in one scan (FindJsonFields; the
// first occurrence wins) into ctx->unnests[slot].spans, and every read
// converts from those spans.
uint64_t proteus_unnest_read(void* ctx, uint32_t slot, const char* names, uint32_t num_names,
                             const int64_t* fields, uint32_t n, int64_t* out);

// Radix hash join. Insert/build run in the single-call build pipeline; probe
// iteration state lives in ctx->probes[table] so concurrent morsels can
// probe the same frozen table.
void proteus_join_insert(void* ctx, uint32_t table, int64_t key, const int64_t* payload);
// Null-keyed build row of an outer join: keeps the payload (the unmatched
// drain iterates it) without a radix entry (probes can never match it).
void proteus_join_insert_null(void* ctx, uint32_t table, const int64_t* payload);
void proteus_join_build(void* ctx, uint32_t table);
const int64_t* proteus_join_probe_first(void* ctx, uint32_t table, int64_t key);
const int64_t* proteus_join_probe_next(void* ctx, uint32_t table);
// Build row index of the match probe_next last yielded (per-task state).
int64_t proteus_join_probe_row(void* ctx, uint32_t table);
// Unmatched-drain iteration over a frozen build side: total row count and
// direct payload access by row index.
int64_t proteus_join_rows(void* ctx, uint32_t table);
const int64_t* proteus_join_payload_at(void* ctx, uint32_t table, int64_t row);

// Group tables (GroupTable*, from proteus_group_table for a mid-chain Nest
// or proteus_morsel_groups for a Nest under the root). A fold calls
// proteus_group_upsert once per row — `tag` is a GroupKeyTag, `bits` the
// int/bool value or the double's bit pattern, (str, len) a string key — and
// updates the returned slot row inline; kAggregator outputs (string
// max/min) fold through proteus_group_agg, which boxes (tag, bits, str,
// len) the same way into group `row`'s Aggregator `output`. A group loop
// reads group `g` through proteus_group_row into `out`:
//   out[0] key bits (string keys: the bytes' address), out[1] string key
//   length, out[2] 1 for the null key, out[3] the slot row's address, then
//   per output i: out[4 + 2i] / out[5 + 2i] the address (0 = null) and
//   length of a string extreme held in the Aggregator column.
void* proteus_group_table(void* ctx, uint32_t table);
int64_t* proteus_group_upsert(void* table, int32_t tag, int64_t bits, const char* str,
                              int64_t len);
void proteus_group_agg(void* table, int64_t* row, uint32_t output, int32_t tag, int64_t bits,
                       const char* str, int64_t len);
uint64_t proteus_group_count(void* table);
void proteus_group_row(void* table, uint64_t g, int64_t* out);

// Nonzero once the query's cancel flag is set: the poll of a generated Nest
// fold, which runs as one morsel and so has no morsel boundary of its own.
int32_t proteus_cancel_requested(void* ctx);

// Fails the query with `code` (a jit::RuntimeError): the generated zero
// check of `/` and `%` calls it, then continues with a harmless divisor
// until the host stops the query at the next morsel boundary.
void proteus_runtime_error(void* ctx, int32_t code);

// Strings.
int32_t proteus_str_eq(const char* a, int64_t alen, const char* b, int64_t blen);
int32_t proteus_str_lt(const char* a, int64_t alen, const char* b, int64_t blen);
// HashBytes of a string: the radix-table word of a string join key.
int64_t proteus_hash_bytes(const char* s, int64_t len);

}  // extern "C"
