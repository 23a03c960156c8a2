// Runtime support library for generated code (paper §5.1 "Proteus also uses
// pre-existing (i.e., not generated) C++ code for some of its functionality.
// Proteus wraps these operations in C++ functions and calls them when
// appropriate from the generated code").
//
// Every generated function receives a MorselCtx* over the query's
// QueryRuntime. Join tables, mid-chain Nest group tables, and unnest cursors
// live here; query results live in the per-morsel partial sinks
// (partial_sink.h). Tight per-tuple work (field loads from binary data,
// predicate evaluation, aggregation arithmetic) is emitted as straight LLVM
// IR and never crosses this boundary. CSV/JSON token access crosses it
// through thin helpers, mirroring the paper's plug-in calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// Hash grouping state of a mid-chain Nest: int64 or string keys, packed
/// 8-byte agg slots. Filled by one serial fold in the build pipeline, then
/// read-only while morsel pipelines loop its groups.
struct GroupTableRt {
  uint64_t size() const { return string_keys ? skeys.size() : ikeys.size(); }

  bool string_keys = false;
  std::vector<int64_t> ikeys;
  std::vector<std::string> skeys;
  std::vector<int64_t> slots;  ///< group-major, slots_per_group per group
  uint32_t slots_per_group = 0;
  std::vector<int64_t> init_slots;
  // open addressing over key hash -> group index
  std::vector<uint32_t> buckets;
  uint32_t mask = 0;
};

/// Lazy JSON array iteration state for generated Unnest loops.
struct UnnestStateRt {
  const JsonPlugin* plugin = nullptr;
  const char* obj_base = nullptr;
  uint32_t pos = 0;
  uint32_t end = 0;
  const JsonElem* elems = nullptr;
  // current element span
  const char* elem_start = nullptr;
  const char* elem_end = nullptr;
};

/// Query-lifetime state shared by every pipeline invocation. During the
/// morsel-parallel phase everything here is read-only: join tables and
/// group tables are filled only inside proteus_build (chain join builds, a
/// Nest driver leaf's fold, and whatever their subtrees contain), which runs
/// once before the fan-out. Per-task mutable state lives in MorselCtx.
struct QueryRuntime {
  std::vector<std::unique_ptr<JoinTableRt>> joins;
  std::vector<std::unique_ptr<GroupTableRt>> groups;
  uint32_t num_unnests = 0;
  /// Parallel radix build for join tables (byte-identical layout to the
  /// serial build); null builds serially.
  TaskScheduler* scheduler = nullptr;
  /// The query's cancel flag (ExecContext::cancel), polled by generated
  /// Nest folds through proteus_cancel_requested. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  bool failed = false;
  std::string error;

  uint32_t AddJoin(uint32_t payload_slots, bool partitioned = false) {
    auto t = std::make_unique<JoinTableRt>();
    t->slots_per_row = payload_slots;
    t->table.set_partitioned(partitioned);
    joins.push_back(std::move(t));
    return static_cast<uint32_t>(joins.size() - 1);
  }
  uint32_t AddGroup(bool string_keys, std::vector<int64_t> init) {
    auto t = std::make_unique<GroupTableRt>();
    t->string_keys = string_keys;
    t->slots_per_group = static_cast<uint32_t>(init.size());
    t->init_slots = std::move(init);
    groups.push_back(std::move(t));
    return static_cast<uint32_t>(groups.size() - 1);
  }
  uint32_t AddUnnest() { return num_unnests++; }
};

/// Per-invocation mutable state of one generated pipeline call: every
/// runtime helper takes a MorselCtx* so concurrent morsel tasks never write
/// shared state. Unnest cursors and join probe iterators are per-task; the
/// one-shot build and drain functions simply run with a ctx of their own.
struct MorselCtx {
  explicit MorselCtx(QueryRuntime* runtime)
      : rt(runtime), unnests(runtime->num_unnests), probes(runtime->joins.size()) {}

  struct ProbeState {
    std::vector<uint32_t> matches;
    size_t pos = 0;
    uint32_t cur_row = 0;  ///< build row of the last yielded match (outer-join
                           ///< bitmap marking reads it via proteus_join_probe_row)
  };

  QueryRuntime* rt;
  std::vector<UnnestStateRt> unnests;
  std::vector<ProbeState> probes;  ///< one per join table
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

// CSV field access (the CSV plug-in's generated access path).
int64_t proteus_csv_int(const void* plugin, uint64_t oid, uint32_t col);
double proteus_csv_double(const void* plugin, uint64_t oid, uint32_t col);
const char* proteus_csv_str(const void* plugin, uint64_t oid, uint32_t col, int64_t* len);

// JSON field access through the structural index. proteus_json_has reports
// whether the field is present at all — the generated null check behind the
// interpreter's "null keys never match" join semantics (absent JSON fields
// bind SQL null there; the typed readers below return 0/"" instead).
// proteus_json_int_opt fuses presence + int read into one index lookup for
// the hot join-key path (returns presence, writes the value or 0).
int32_t proteus_json_has(const void* plugin, uint64_t oid, uint64_t path_hash);
int32_t proteus_json_int_opt(const void* plugin, uint64_t oid, uint64_t path_hash,
                             int64_t* out);
int64_t proteus_json_int(const void* plugin, uint64_t oid, uint64_t path_hash);
double proteus_json_double(const void* plugin, uint64_t oid, uint64_t path_hash);
int64_t proteus_json_bool(const void* plugin, uint64_t oid, uint64_t path_hash);
const char* proteus_json_str(const void* plugin, uint64_t oid, uint64_t path_hash,
                             int64_t* len);

// JSON array unnest (unnestInit / unnestHasNext / unnestGetNext). Cursor
// state lives in ctx->unnests[slot].
void proteus_unnest_init(void* ctx, uint32_t slot, const void* plugin, uint64_t oid,
                         uint64_t path_hash);
int32_t proteus_unnest_has_next(void* ctx, uint32_t slot);
void proteus_unnest_advance(void* ctx, uint32_t slot);
int64_t proteus_unnest_elem_int(void* ctx, uint32_t slot, const char* name, int64_t name_len);
double proteus_unnest_elem_double(void* ctx, uint32_t slot, const char* name, int64_t name_len);
const char* proteus_unnest_elem_str(void* ctx, uint32_t slot, const char* name,
                                    int64_t name_len, int64_t* len);

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

// Hash grouping of mid-chain nests: upserts run in the single-call build
// pipeline, the key/slot reads in the morsel pipelines that loop the folded
// groups. Group-bys directly under the root go through the partial-sink
// entry points (partial_sink.h) instead.
int64_t* proteus_group_upsert(void* ctx, uint32_t table, int64_t key);
int64_t* proteus_group_upsert_str(void* ctx, uint32_t table, const char* key, int64_t len);
uint64_t proteus_group_count(void* ctx, uint32_t table);
int64_t proteus_group_key(void* ctx, uint32_t table, uint64_t idx);
const char* proteus_group_key_str(void* ctx, uint32_t table, uint64_t idx, int64_t* len);
int64_t* proteus_group_slots(void* ctx, uint32_t table, uint64_t idx);

// Nonzero once the query's cancel flag is set: the poll of a generated Nest
// fold, which runs as one morsel and so has no morsel boundary of its own.
int32_t proteus_cancel_requested(void* ctx);

// Strings.
int32_t proteus_str_eq(const char* a, int64_t alen, const char* b, int64_t blen);
int32_t proteus_str_lt(const char* a, int64_t alen, const char* b, int64_t blen);

}  // extern "C"
