// Monoid accumulators: the one fold behind every Reduce and Nest partial
// sink — the interpreter's, and the generated engine's boxed per-morsel
// sinks (partial_sink.h).
#pragma once

#include <memory>
#include <unordered_map>

#include "src/algebra/algebra.h"
#include "src/common/value.h"
#include "src/common/wire.h"

namespace proteus {

/// Folds values into one monoid. Value-boxed; generated code keeps scalar
/// accumulators in registers and installs them per morsel (LoadScalar).
class Aggregator {
 public:
  explicit Aggregator(Monoid m) : monoid_(m) {}
  Aggregator(Aggregator&&) = default;
  Aggregator& operator=(Aggregator&&) = default;
  // The set-dedup index is lazily allocated; copies deep-copy it.
  Aggregator(const Aggregator& o)
      : monoid_(o.monoid_),
        count_(o.count_),
        seen_(o.seen_),
        all_int_(o.all_int_),
        int_acc_(o.int_acc_),
        float_acc_(o.float_acc_),
        bool_acc_(o.bool_acc_),
        extreme_(o.extreme_),
        items_(o.items_),
        set_index_(o.set_index_ ? std::make_unique<SetIndex>(*o.set_index_) : nullptr) {}
  Aggregator& operator=(const Aggregator& o) {
    if (this != &o) *this = Aggregator(o);
    return *this;
  }

  Monoid monoid() const { return monoid_; }

  void Add(const Value& v);
  void AddCount() { count_++; }

  /// Installs the scalar fold state a generated (JIT) per-morsel pipeline
  /// computed in CPU registers, leaving this accumulator indistinguishable
  /// from one that Add()ed the same rows: count installs the row count, sum
  /// the running total (int or float per `v`'s kind — the register fold and
  /// Add() share init value and operation order, so the bits match), max/min
  /// the extreme, and/or the folded bool. Callers must skip the call when no
  /// row contributed (the accumulator then stays in its empty state, exactly
  /// like an interpreter partial that saw no rows). Collection monoids are
  /// not scalar-loadable.
  void LoadScalar(const Value& v);

  /// Folds another partial accumulator of the same monoid into this one —
  /// the merge step of morsel-parallel aggregation. Merging partials in
  /// morsel order keeps results deterministic regardless of worker count
  /// (collection monoids concatenate in order; set union keeps first-seen
  /// order; numeric merges are order-fixed by the caller).
  void Merge(const Aggregator& other);
  /// Move-aware overload: splices collection payloads out of an expiring
  /// partial instead of copying them (scalar monoids defer to the copy).
  void Merge(Aggregator&& other);

  /// The folded result; the monoid's zero element if nothing was added.
  Value Final() const;

  /// Encodes the complete accumulator state (monoid included) so a partial
  /// aggregate can cross the shard wire; Deserialize rebuilds an accumulator
  /// that is indistinguishable from the original — Merge and Final behave
  /// bit-identically (doubles travel as bit patterns).
  void Serialize(WireWriter* w) const;
  static Result<Aggregator> Deserialize(WireReader* r);

 private:
  /// Single home of the set monoid's dedup: appends `v` unless an equal
  /// element exists. Returns whether it was added. Hash-indexed (boxed-item
  /// hash -> candidate indices, equality-checked), so per-morsel dedup and
  /// the morsel-order merge stay O(1) amortized per item instead of O(n) —
  /// the dedup behind JIT set-output sinks as well as the interpreter's.
  bool InsertSetItem(Value v);

  Monoid monoid_;
  int64_t count_ = 0;
  bool seen_ = false;
  bool all_int_ = true;
  int64_t int_acc_ = 0;
  double float_acc_ = 0;
  bool bool_acc_ = false;
  Value extreme_;     // max/min
  ValueList items_;   // bag/list/set
  /// kSet only: item hash -> indices into items_ (rebuilt on deserialize).
  /// Lazily allocated so the overwhelmingly more common non-set
  /// accumulators — e.g. every group × output cell of a group-by partial —
  /// don't carry an empty hash map.
  using SetIndex = std::unordered_map<uint64_t, std::vector<uint32_t>>;
  std::unique_ptr<SetIndex> set_index_;
};

}  // namespace proteus
