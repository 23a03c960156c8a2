// The nested relational algebra (paper Table 1).
//
// Operators: Scan (leaf), Select σp, (Outer)Join ⋈p, (Outer)Unnest μpath,
// Reduce Δ⊕/e/p, and (Outer)Nest Γ⊕/e/f/p. Reduce and Nest are overloaded
// versions of relational projection and grouping: they fold the stream into
// an output monoid (an aggregate like sum/max, or a collection like bag).
//
// Each operator propagates an *environment* of bound variables: a scan binds
// one variable per record, unnest adds a binding for the unnested element,
// join merges both sides' environments, nest replaces the environment with a
// single binding for the grouped record.
//
// Practical extension: Reduce/Nest carry a *list* of (monoid, expression)
// outputs so multi-aggregate queries (the paper benchmarks up to 4
// aggregates) evaluate in one pass. Formally this is a product of monoids.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/expr/expr.h"
#include "src/plugins/plugin.h"

namespace proteus {

enum class OpKind {
  kScan,
  kSelect,
  kJoin,
  kUnnest,
  kReduce,
  kNest,
  kCacheScan,  ///< leaf replaced by the CachingManager: reads a cache block
};

enum class Monoid { kSum, kCount, kMax, kMin, kAnd, kOr, kBag, kList, kSet };

/// Physical probe layout of a hash join's build table, chosen per join by
/// the optimizer (skew/cardinality heuristic over dataset statistics):
///   kShared      — one clustered array + uniform bucket directory; best for
///                  small, uniform build sides.
///   kPartitioned — per-radix-partition sub-tables with partition-local
///                  memory and bucket sizing; best for large or skewed
///                  build sides.
/// Results are cell-identical across strategies by construction; only the
/// table's memory layout differs. Deliberately NOT part of the plan
/// Signature() (the logical plan is the same) — but it IS part of the
/// compiled-query cache key, because generated modules bake the layout
/// choice into their runtime layout.
enum class JoinStrategy : uint8_t { kShared, kPartitioned };

const char* JoinStrategyName(JoinStrategy s);

const char* MonoidName(Monoid m);
/// True for collection monoids (bag/list/set); false for aggregates.
bool IsCollectionMonoid(Monoid m);

/// One (monoid, expression, output name) output of a Reduce or Nest.
struct AggOutput {
  Monoid monoid;
  ExprPtr expr;          ///< null for kCount
  std::string name;      ///< output column name
};

class Operator;
using OpPtr = std::shared_ptr<Operator>;

class Operator {
 public:
  // ---- Builders ------------------------------------------------------------
  /// Scan of a registered dataset; binds each record to `binding`.
  static OpPtr Scan(std::string dataset, std::string binding);
  static OpPtr Select(OpPtr child, ExprPtr pred);
  static OpPtr Join(OpPtr left, OpPtr right, ExprPtr pred, bool outer = false);
  /// Unnests collection `path` (rooted at bound variable path[0]); binds each
  /// element to `binding`. Outer unnest emits a null element when empty.
  static OpPtr Unnest(OpPtr child, FieldPath path_from_var, std::string binding,
                      ExprPtr pred = nullptr, bool outer = false);
  static OpPtr Reduce(OpPtr child, std::vector<AggOutput> outputs, ExprPtr pred = nullptr);
  /// Groups by `group_by` (named `group_name` in the output record).
  static OpPtr Nest(OpPtr child, ExprPtr group_by, std::string group_name,
                    std::vector<AggOutput> outputs, ExprPtr pred = nullptr,
                    std::string binding = "");

  // ---- Accessors -----------------------------------------------------------
  OpKind kind() const { return kind_; }
  const std::vector<OpPtr>& children() const { return children_; }
  const OpPtr& child(size_t i = 0) const { return children_[i]; }
  OpPtr* mutable_child(size_t i = 0) { return &children_[i]; }

  const std::string& dataset() const { return dataset_; }
  const std::string& binding() const { return binding_; }
  const ExprPtr& pred() const { return pred_; }
  void set_pred(ExprPtr p) { pred_ = std::move(p); }
  bool outer() const { return outer_; }
  const FieldPath& unnest_path() const { return path_; }
  const std::vector<AggOutput>& outputs() const { return outputs_; }
  const ExprPtr& group_by() const { return group_by_; }
  const std::string& group_name() const { return group_name_; }

  /// Pushed-down projection for scans (set by the optimizer; the input
  /// plug-in extracts only these fields).
  const std::vector<FieldPath>& scan_fields() const { return scan_fields_; }
  void set_scan_fields(std::vector<FieldPath> f) { scan_fields_ = std::move(f); }

  /// Equi-join keys extracted by the optimizer for the radix hash join.
  const ExprPtr& left_key() const { return left_key_; }
  const ExprPtr& right_key() const { return right_key_; }
  void set_join_keys(ExprPtr l, ExprPtr r) {
    left_key_ = std::move(l);
    right_key_ = std::move(r);
  }

  /// Probe layout of this join's build table (kJoin only; set by the
  /// optimizer's strategy pass, defaults to the shared table).
  JoinStrategy join_strategy() const { return join_strategy_; }
  void set_join_strategy(JoinStrategy s) { join_strategy_ = s; }

  /// Cache-scan payload (kCacheScan only): id of the cache block to read.
  /// `dataset` names the raw source so that fields absent from the cache
  /// (e.g. strings, which policy excludes) are read hybridly through the
  /// input plug-in using the cached OID column. `signature` is the block's
  /// source subtree and `layout` its column layout (CacheBlock::Layout):
  /// Signature() prints both and not the id, so a rebuilt block of the same
  /// layout keeps the plan's shape.
  uint64_t cache_id() const { return cache_id_; }
  static OpPtr CacheScan(uint64_t cache_id, std::string binding, std::string signature,
                         std::string dataset = "", std::string layout = "");

  /// Variables bound in this operator's output and their record types.
  /// Scans/unnests consult `catalog` for dataset schemas.
  Result<TypeEnv> OutputEnv(const Catalog& catalog) const;

  /// Canonical plan signature: structurally equal subtrees print identically.
  /// Used by the CachingManager as a matching key (paper §6). Operators
  /// print in pre-order, each one's expressions before its children (a
  /// join's hash keys after its predicate); `literal`, when set, prints
  /// every literal node in that order in place of its value.
  std::string Signature(const LiteralPrinter& literal = nullptr) const;
  /// Indented human-readable plan.
  std::string ToString(int indent = 0) const;

  /// Deep structural equality (signature-based).
  bool Equals(const Operator& other) const { return Signature() == other.Signature(); }

 private:
  explicit Operator(OpKind k) : kind_(k) {}

  OpKind kind_;
  std::vector<OpPtr> children_;
  std::string dataset_;             // kScan
  std::string binding_;             // kScan/kUnnest/kNest/kCacheScan
  ExprPtr pred_;                    // kSelect/kJoin/kUnnest/kReduce/kNest
  bool outer_ = false;              // kJoin/kUnnest
  FieldPath path_;                  // kUnnest (path[0] = source variable)
  std::vector<AggOutput> outputs_;  // kReduce/kNest
  ExprPtr group_by_;                // kNest
  std::string group_name_;          // kNest
  std::vector<FieldPath> scan_fields_;
  ExprPtr left_key_, right_key_;    // kJoin (optimizer)
  JoinStrategy join_strategy_ = JoinStrategy::kShared;  // kJoin (optimizer)
  uint64_t cache_id_ = 0;           // kCacheScan
  std::string cache_signature_;     // kCacheScan: signature of replaced subtree
  std::string cache_layout_;        // kCacheScan: the block's column layout
};

}  // namespace proteus
