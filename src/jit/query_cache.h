// Compiled-query cache: shape-keyed reuse of JIT-generated engines
// across executions, threads, and shards.
//
// The paper's per-query engine customization (§5.1) pays an IR-generation +
// LLVM-compilation cost per execution; this module amortizes it for repeated
// plans, the regime a production engine serving heavy repeated traffic lives
// in. A `CompiledModule` is position-independent: every per-execution
// constant the old codegen baked into the instruction stream (data pointers,
// relation sizes, cache-block column bases, plug-in addresses) is hoisted
// into a *parameter table* — an int64 array described by `ParamDesc` entries,
// re-bound from the live catalog/plug-ins/caches before every run and passed
// to the generated functions as an extra argument. The plan's literals live
// there too, bound from the running plan, and so do its cache blocks: a
// cache parameter names its CacheScan leaf by ordinal and binds the block
// that leaf of the running plan reads. Runtime table shapes
// (join payload widths, group-table layouts, unnest slot count) are recorded
// in a `RuntimeLayout` so each execution rebuilds a fresh jit::QueryRuntime
// without touching the codegen.
//
// Keying: the plan's *shape* (ShapeOfPlan — Operator::Signature with every
// literal printed as its kind: ?i, ?f, ?b, ?s) + join strategies + the
// layout fingerprint of every dataset the plan reads. The key holds what
// codegen bakes in and nothing else. Literal values are not in it: codegen
// loads each literal from the parameter table (ParamKind::kLiteral*), so
// one module serves every literal of a shape. Data is not in it either:
// what codegen bakes about a dataset is its layout (a CSV or bincol column
// index, a binrow row width and field offset, a JSON path hash), and
// InputPlugin::LayoutFingerprint covers exactly that, so a dataset rewritten
// with the same layout keeps every module that reads it. A CacheScan's
// signature prints its block's source and column layout, not the block id,
// so a rebuilt block of the same layout is the same shape; a block that
// gains, loses or retypes a column (a field turning raw_only) is another.
// The shape is taken from the optimized, cache-rewritten plan, so a literal
// that changes join order, join strategy or the scan-cache rewrite still
// yields a different key.
//
// Invalidation: QueryEngine::InvalidateDataset drops the plug-in, stats and
// scan caches, and leaves modules alone. The reopen that first sees a new
// layout fingerprint (PluginRegistry's layout-change callback) erases the
// modules that read the dataset (EraseReading): their keys can no longer
// match, and erasing frees their machine code instead of leaving it to age
// out of the LRU.
//
// Concurrency: lookups single-flight — when N shard executors (or any N
// threads) ask for the same key at once, exactly one compiles while the
// rest block on the entry and then share the module. Modules are handed out
// as shared_ptr<const CompiledModule>, so LRU eviction never invalidates a
// module mid-execution.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/engine/partial_sink.h"
#include "src/plugins/plugin.h"

namespace proteus {

struct CacheBlock;
struct ExecContext;
class Expr;
class Operator;

namespace obs {
class TraceRecorder;
}  // namespace obs

namespace jit {

class LinkedCode;
struct QueryRuntime;

/// One hoisted per-execution constant of the generated code: what it is and
/// where to re-resolve it at bind time. Everything the generated code loads
/// from the parameter table instead of carrying as an immediate.
enum class ParamKind : uint8_t {
  kPluginPtr,        ///< InputPlugin* for dataset (CSV/JSON helper calls)
  kNumRecords,       ///< plugin->NumRecords() (non-driver scan loop bound)
  kBinColIntBase,    ///< BinColReader::IntColumn(column)
  kBinColFloatBase,  ///< BinColReader::FloatColumn(column)
  kBinColBoolBase,   ///< BinColReader::BoolColumn(column)
  kBinColStrOffsets, ///< BinColReader::StringOffsets(column)
  kBinColStrData,    ///< BinColReader::StringData(column)
  kBinRowRowsBase,   ///< BinRowReader::rows_base()
  kBinRowHeapBase,   ///< BinRowReader::heap_base()
  kCacheNumRows,     ///< CacheBlock::num_rows (cache-scan loop bound)
  kCacheColIntBase,  ///< CacheColumn::ints.data() (ints / bools / $oid)
  kCacheColFloatBase,///< CacheColumn::floats.data()
  kLiteralInt,       ///< int literal of the running plan
  kLiteralFloat,     ///< float literal, its double's bit pattern
  kLiteralBool,      ///< bool literal, 0 or 1
  kLiteralStr,       ///< string literal: pointer to its bytes in the plan
  kLiteralStrLen,    ///< string literal: byte length
};

struct ParamDesc {
  ParamKind kind;
  std::string dataset;    ///< catalog name (raw-format and hybrid params)
  uint32_t column = 0;    ///< binary reader column index
  /// Cache-block params: ordinal of the CacheScan leaf whose block they
  /// read (PlanShape::cache_leaves).
  uint32_t cache_leaf = 0;
  std::string var;        ///< cache column lookup: binding variable
  FieldPath path;         ///< cache column lookup: field path
  uint32_t literal = 0;   ///< kLiteral*: index into PlanShape::literals

  /// Canonical text form — the ParamTable dedup key.
  std::string ToString() const;
};

/// Grows the parameter-table layout during codegen, deduplicating repeated
/// constants (e.g. a column base referenced by several pipeline functions).
class ParamTable {
 public:
  uint32_t Slot(ParamDesc desc);
  const std::vector<ParamDesc>& descs() const { return descs_; }
  std::vector<ParamDesc> Take() { return std::move(descs_); }

 private:
  std::vector<ParamDesc> descs_;
  std::unordered_map<std::string, uint32_t> index_;
};

/// A plan's compiled-module identity. One walk over the plan — operators in
/// pre-order, each one's expressions (predicate, join keys, group-by,
/// outputs) before its children — yields both the shape signature, which
/// prints every literal as its kind (?i, ?f, ?b, ?s; other literals print
/// their value; a node reached again prints ?@<its position>), and the
/// plan's literal nodes, each once, in that order. Plans with equal
/// signatures list their literals and their CacheScan leaves in the same
/// positions, which is what lets a module compiled for one bind another's
/// literals and cache blocks.
struct PlanShape {
  std::string signature;
  std::vector<const Expr*> literals;          ///< nodes owned by the plan
  std::vector<const Operator*> cache_leaves;  ///< CacheScan leaves, pre-order
};

PlanShape ShapeOfPlan(const Operator& plan);

/// Resolves every descriptor against the live catalog / plug-in registry —
/// and literal and cache descriptors against `shape`, the running plan's
/// PlanShape: its literals, and the blocks its CacheScan leaves read — into
/// the int64 parameter vector the generated functions read. String literals
/// bind as pointers into the plan, which the caller keeps alive for the run.
/// Validates formats, column bounds, cache columns and literal kinds so a
/// module bound to data of another layout fails loudly instead of reading
/// through a dangling base pointer. Thread-safe: only touches the mutex-guarded
/// PluginRegistry and read-only catalog/cache lookups, so N shard threads
/// can bind the same module concurrently. `pinned` (optional) receives
/// shared ownership of every cache block whose column base pointers were
/// baked into the parameter vector — the caller must keep it alive for as
/// long as the generated code may run, so a concurrent eviction cannot free
/// storage mid-execution.
Result<std::vector<int64_t>> BindParams(
    const ExecContext& ctx, const std::vector<ParamDesc>& descs, const PlanShape& shape,
    std::vector<std::shared_ptr<const CacheBlock>>* pinned = nullptr);

/// Shapes of the runtime tables the generated code indexes by slot: enough
/// to rebuild a fresh QueryRuntime for every execution of a cached module.
struct RuntimeLayout {
  struct JoinSpec {
    uint32_t payload_slots = 0;  ///< slots_per_row of the packed payload
    bool partitioned = false;    ///< probe layout of the build RadixTable
  };
  std::vector<JoinSpec> joins;
  std::vector<GroupLayout> groups;  ///< one per mid-chain Nest group table
  uint32_t num_unnests = 0;

  uint32_t AddJoin(uint32_t payload_slots, bool partitioned = false) {
    joins.push_back({payload_slots, partitioned});
    return static_cast<uint32_t>(joins.size() - 1);
  }
  uint32_t AddGroup(GroupLayout layout) {
    groups.push_back(std::move(layout));
    return static_cast<uint32_t>(groups.size() - 1);
  }
  uint32_t AddUnnest() { return num_unnests++; }
};

/// Registers the layout's join/group/unnest tables on a fresh QueryRuntime
/// (scheduler/result state untouched).
void InitRuntimeFromLayout(const RuntimeLayout& layout, QueryRuntime* rt);

/// A compiled-and-linked query engine: its dylib in the shared JIT session
/// (src/jit/session.h) owning the machine code, the resolved entry points,
/// codegen metadata, and everything needed to re-bind it to fresh data
/// (layout + parameter descriptors). Immutable after compilation — all
/// mutable execution state lives in the per-run QueryRuntime / MorselCtx /
/// parameter vector, which is what makes one module shareable across
/// executions, threads, and shards.
struct CompiledModule {
  CompiledModule();
  ~CompiledModule();
  CompiledModule(CompiledModule&&) noexcept;
  CompiledModule& operator=(CompiledModule&&) noexcept;

  using BuildFn = void (*)(void*, const int64_t*);
  using PipelineFn = void (*)(void*, void*, const int64_t*, uint64_t, uint64_t);
  /// Outer-join unmatched-drain pass: (ctx, sink, merged_matched_bitmap,
  /// params). Run once per outer chain join — deepest first — after every
  /// probe morsel reported its matched-build bitmap. The bitmap is per-run
  /// state (host-side OR of the per-morsel sink bitmaps), never part of the
  /// instruction stream, so cached modules stay position-independent.
  using DrainFn = void (*)(void*, void*, const uint8_t*, const int64_t*);

  std::unique_ptr<LinkedCode> code;  ///< owns the machine code
  std::vector<std::string> columns;
  bool row_records = false;
  std::string ir;  ///< unoptimized IR, for inspection
  BuildFn build_fn = nullptr;
  PipelineFn pipeline_fn = nullptr;
  /// Group table the pipeline function's morsels range over when the main
  /// chain's driver leaf is a mid-chain Nest (build_fn folds it), or -1 for
  /// a scan driver leaf.
  int32_t driver_group = -1;
  /// One drain function per outer chain join, deepest-first, with the
  /// matching join-table ids (bitmap sizing + OR source).
  std::vector<DrainFn> drain_fns;
  std::vector<uint32_t> outer_join_tables;
  RuntimeLayout layout;
  std::vector<ParamDesc> params;
  /// True when the generated-code contract verifier (src/jit/ir_verifier.h)
  /// ran on this module's IR and passed. Surfaced through
  /// jit::RegionStats and QueryTelemetry::ir_verified so a
  /// silently-skipped verifier is detectable, not assumed.
  bool ir_verified = false;
};

/// One dataset a plan's leaves read, with the layout fingerprint of its open
/// plug-in (InputPlugin::LayoutFingerprint).
struct DatasetLayout {
  std::string name;
  uint64_t fingerprint = 0;

  bool operator==(const DatasetLayout& o) const {
    return fingerprint == o.fingerprint && name == o.name;
  }
};

/// Cache key: plan shape signature + join strategies + dataset layouts. The
/// join strategies are part of the key (not of the signature — the logical
/// plan is unchanged) because a module's RuntimeLayout bakes each build table's
/// probe layout: the same plan optimized to a different strategy mix must
/// compile its own module. The dataset layouts are there because codegen
/// bakes each scanned dataset's column positions; a module is valid for
/// exactly the layouts it was compiled against, whatever rows they hold.
struct QueryCacheKey {
  std::string signature;  ///< PlanShape::signature
  std::string join_strategies;  ///< comma-joined per-join strategy, plan order
  /// Every dataset a Scan or CacheScan leaf reads, sorted by name, each once.
  std::vector<DatasetLayout> datasets;

  bool operator==(const QueryCacheKey& o) const {
    return join_strategies == o.join_strategies && datasets == o.datasets &&
           signature == o.signature;
  }

  /// True when the plan behind this key reads `dataset` (in any layout).
  bool Reads(const std::string& dataset) const;
};

struct QueryCacheKeyHash {
  size_t operator()(const QueryCacheKey& k) const;
};

/// Thread-safe LRU cache of ready-to-run compiled query modules.
class CompiledQueryCache {
 public:
  /// `capacity` is the entry cap (>= 1); LRU entries are evicted past it.
  explicit CompiledQueryCache(size_t capacity = kDefaultCapacity);

  static constexpr size_t kDefaultCapacity = 32;

  struct Stats {
    uint64_t hits = 0;        ///< lookups served by a ready module (incl. waits)
    uint64_t misses = 0;      ///< lookups that had to compile
    uint64_t compiles = 0;    ///< successful compilations
    uint64_t evictions = 0;   ///< entries dropped by the LRU
    uint64_t single_flight_waits = 0;  ///< lookups that blocked on another
                                       ///< thread's in-progress compile
    double compile_ms_total = 0;       ///< wall ms spent inside compile fns
  };

  using CompileFn = std::function<Result<std::shared_ptr<const CompiledModule>>()>;

  /// Returns the module for `key`, compiling it via `compile` on a miss.
  /// Concurrent misses of the same key single-flight: one caller runs
  /// `compile` (unlocked), the rest block and share its module. Failed
  /// compilations are not cached — the error is returned to the compiling
  /// caller and to every waiter of that flight. `*cache_hit` reports whether
  /// this call was served without compiling (waiters count as hits).
  /// `trace` (nullable) records any single-flight block as a
  /// "single_flight_wait" span.
  Result<std::shared_ptr<const CompiledModule>> GetOrCompile(
      const QueryCacheKey& key, const CompileFn& compile, bool* cache_hit,
      obs::TraceRecorder* trace = nullptr) EXCLUDES(mu_);

  /// Non-blocking probe: returns `key`'s module when a ready entry exists
  /// (counted as a hit, LRU-touched), nullptr when the key is absent *or*
  /// another thread is still compiling it. The tiered controller uses this
  /// at query start — and at every morsel boundary — because it must never
  /// wait on a compile: not-ready simply means "keep interpreting".
  std::shared_ptr<const CompiledModule> TryGet(const QueryCacheKey& key) EXCLUDES(mu_);

  /// Drops every ready entry whose key reads `dataset` (in-flight compiles
  /// are left to finish and publish) and returns how many it removed; the
  /// modules it drops are destroyed after the cache lock is released.
  size_t EraseReading(const std::string& dataset) EXCLUDES(mu_);

  size_t size() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }
  Stats stats() const EXCLUDES(mu_);

 private:
  struct Entry {
    enum class State { kCompiling, kReady };
    State state = State::kCompiling;
    std::shared_ptr<const CompiledModule> module;
    std::list<QueryCacheKey>::iterator lru_it;  ///< valid when kReady
  };

  void EvictOverCapacityLocked() REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar cv_;
  /// front = most recently used (ready entries only)
  std::list<QueryCacheKey> lru_ GUARDED_BY(mu_);
  std::unordered_map<QueryCacheKey, Entry, QueryCacheKeyHash> map_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace jit
}  // namespace proteus
