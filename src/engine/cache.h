// Adaptive caching structures (paper §6).
//
// Proteus materializes caches of algebraic expressions as a side-effect of
// query execution (implicitly at blocking operators, or explicitly via
// caching operators placed near the leaves). A cache block stores evaluated
// field expressions of one plan subtree in compact *binary columns*, so that
// later queries touching the same subtree read binary data instead of
// re-navigating CSV/JSON. Caches are exposed back to the engine as an extra
// input: the plan rewrite replaces the matched subtree with a CacheScan.
//
// Cache matching keys on the subtree's canonical Signature(); eviction uses
// a format-biased LRU (JSON ≻ CSV ≻ binary: drop cheap-to-rebuild caches
// first — paper: "favoring data from inputs that are more costly to access").
//
// Blocks are immutable and their ids are never reused. A CacheScan's
// Signature() prints its block's source subtree and column layout
// (CacheBlock::Layout), not the id: a compiled module binds the block of
// the running plan's CacheScan leaf on every run, so a block rebuilt with
// the same layout (a refreshed silo) keeps the plan's shape and its module,
// while a block that gains, loses or retypes a column is a new shape.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/algebra.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/task_scheduler.h"
#include "src/common/value.h"
#include "src/plugins/plugin.h"

namespace proteus {

/// One materialized column of a cache block: the evaluated values of a
/// var-rooted field path (e.g. "l.l_orderkey") in compact typed storage.
struct CacheColumn {
  std::string var;    ///< bound variable the path is rooted at
  FieldPath path;     ///< path within the variable's record
  TypeKind type = TypeKind::kInt64;
  std::vector<int64_t> ints;       // int64 / date / bool(0|1)
  std::vector<double> floats;
  std::vector<std::string> strs;

  std::string DottedName() const { return var + "." + DottedPath(path); }
  size_t bytes() const {
    size_t b = ints.capacity() * 8 + floats.capacity() * 8;
    for (const auto& s : strs) b += s.size() + sizeof(std::string);
    return b;
  }
};

/// A materialized cache: the signature of the plan subtree it replaces, the
/// source format that produced it (for biased eviction), and its columns.
struct CacheBlock {
  uint64_t id = 0;
  std::string signature;
  DataFormat source_format = DataFormat::kBinaryColumn;
  uint64_t num_rows = 0;
  std::vector<CacheColumn> cols;
  /// Cacheable fields left out of `cols` because some record holds no value
  /// for them (an absent field or a JSON null, which a binary cell cannot
  /// tell from 0) or a value of another kind than the declared one: scans
  /// read them raw through the OID column.
  std::vector<FieldPath> raw_only;
  uint64_t last_used_tick = 0;

  size_t bytes() const {
    size_t b = 0;
    for (const auto& c : cols) b += c.bytes();
    return b;
  }
  /// What generated code bakes about this block: each column's var, path
  /// and type ($oid included) and the raw_only fields, each list sorted so
  /// the order the fields were first requested in does not matter.
  std::string Layout() const;
  const CacheColumn* Find(const std::string& var, const FieldPath& path) const {
    for (const auto& c : cols) {
      if (c.var == var && c.path == path) return &c;
    }
    return nullptr;
  }
};

/// Policy knobs (paper: "different caching policies depending on the
/// expected workload").
struct CachePolicy {
  bool enabled = false;
  /// Skip variable-length string fields (paper: "Proteus avoids caching
  /// variable-length string fields from CSV and JSON files").
  bool cache_strings = false;
  /// Only cache values read from raw text formats (CSV/JSON); binary inputs
  /// are already cheap.
  bool raw_formats_only = true;
  size_t memory_budget_bytes = 256ull << 20;
};

/// Thread-safe for concurrent queries sharing one engine: block metadata
/// mutates under an internal mutex, and lookups hand out shared ownership of
/// immutable blocks — an Install/eviction/invalidation by one query cannot
/// free column storage another in-flight query is still reading. Policy is
/// setup-time state: set_policy() must not race live executions.
class CachingManager {
 public:
  explicit CachingManager(CachePolicy policy = {}) : policy_(policy) {}

  const CachePolicy& policy() const { return policy_; }
  void set_policy(CachePolicy p) { policy_ = std::move(p); }

  /// Registers a freshly built block; evicts LRU (format-biased) blocks if
  /// over budget. Returns the assigned cache id.
  uint64_t Install(CacheBlock block);

  /// Looks up a cache whose signature matches the subtree rooted at `op`.
  /// The returned block is shared: it stays readable even if replaced or
  /// evicted while the caller executes against it.
  std::shared_ptr<const CacheBlock> FindMatch(const Operator& op) const;
  std::shared_ptr<const CacheBlock> FindById(uint64_t id) const;

  /// True when `block` covers scan `scan` over records of `record_type`:
  /// every scan field BuildScanCache would cache is one of its columns or
  /// raw_only fields. The fields it would not cache (strings unless
  /// cache_strings, collections, unresolvable paths) and the raw_only ones
  /// are read raw through the block's OID column. The
  /// one coverage rule: QueryEngine::PopulateCaches widens a block that
  /// fails it, RewriteWithCaches rewrites a scan only onto a block that
  /// passes it.
  bool Covers(const CacheBlock& block, const Operator& scan, const Type& record_type) const;

  /// Rewrites `plan`, replacing every cached subtree with a CacheScan leaf
  /// (full sub-tree matching, bottom-up — paper §6 "Cache Matching"). A scan
  /// is replaced only when its block Covers() it; uncached fields fall back
  /// to hybrid raw reads via the cached OID column.
  OpPtr RewriteWithCaches(OpPtr plan, const Catalog& catalog) const;

  /// Builds a scan-shaped cache for `dataset`: evaluates the cacheable leaf
  /// fields in `fields` (CachedLeafType) for every record of `plugin` into
  /// binary columns, always including the OID column; a field some record
  /// holds no value for is listed raw_only instead. This is the paper's
  /// leaf-level caching operator ("convert input raw values to a binary
  /// format"). With a `scheduler`, the cold-access drain runs
  /// morsel-parallel: the record range is split via the plug-in Split() API
  /// and workers fill disjoint slices of the preallocated columns — the
  /// built block is byte-identical to a serial build.
  Result<uint64_t> BuildScanCache(InputPlugin* plugin, const DatasetInfo& info,
                                  const std::string& binding,
                                  const std::vector<FieldPath>& fields,
                                  TaskScheduler* scheduler = nullptr);

  /// Drops all caches built from dataset `name` (append invalidation).
  void InvalidateDataset(const std::string& name);

  size_t total_bytes() const;
  size_t num_blocks() const {
    MutexLock lk(mu_);
    return blocks_.size();
  }
  /// Shared snapshots of every live block (observability / tests).
  std::vector<std::shared_ptr<const CacheBlock>> blocks() const;

 private:
  /// The column type `path`'s leaf in `record_type` caches as under this
  /// policy — numeric and bool leaves, strings only with cache_strings — or
  /// nullopt when BuildScanCache leaves it to raw reads.
  std::optional<TypeKind> CachedLeafType(const Type& record_type, const FieldPath& path) const;

  void MaybeEvictLocked() REQUIRES(mu_);
  size_t TotalBytesLocked() const REQUIRES(mu_);

  CachePolicy policy_;
  mutable Mutex mu_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  uint64_t tick_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, std::shared_ptr<CacheBlock>> blocks_ GUARDED_BY(mu_);
};

}  // namespace proteus
