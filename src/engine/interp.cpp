#include "src/engine/interp.h"

#include <unordered_map>

#include "src/common/counters.h"
#include "src/engine/aggregator.h"
#include "src/engine/partial_sink.h"
#include "src/engine/radix_table.h"
#include "src/obs/trace.h"

namespace proteus {

void CollectBoundVars(const OpPtr& op, std::vector<std::string>* out) {
  switch (op->kind()) {
    case OpKind::kScan:
    case OpKind::kCacheScan:
      out->push_back(op->binding());
      return;
    case OpKind::kUnnest:
      CollectBoundVars(op->child(0), out);
      out->push_back(op->binding());
      return;
    case OpKind::kNest:
      out->push_back(op->binding().empty() ? "$group" : op->binding());
      return;
    default:
      for (const auto& c : op->children()) CollectBoundVars(c, out);
      return;
  }
}

namespace {

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Scans the OIDs of one morsel `range` (clamped to the relation).
class ScanCursor : public Cursor {
 public:
  ScanCursor(const ExecContext& ctx, const Operator& op, ScanRange range)
      : ctx_(ctx), op_(op), range_(range) {}

  Status Open() override {
    PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, ctx_.catalog->Get(op_.dataset()));
    PROTEUS_ASSIGN_OR_RETURN(plugin_, ctx_.plugins->GetOrOpen(*info, ctx_.stats));
    // The optimizer lists every field the plan reads: none for count(*).
    fields_ = op_.scan_fields();
    n_ = std::min(plugin_->NumRecords(), range_.end);
    oid_ = range_.begin;
    return Status::OK();
  }

  Result<bool> Next(EvalEnv* row) override {
    GlobalCounters().virtual_calls++;
    if (oid_ >= n_) return false;
    GlobalCounters().tuples_scanned++;
    PROTEUS_ASSIGN_OR_RETURN(Value rec, plugin_->ReadRecord(oid_, fields_));
    (*row)[op_.binding()] = std::move(rec);
    ++oid_;
    return true;
  }

 private:
  const ExecContext& ctx_;
  const Operator& op_;
  ScanRange range_;
  InputPlugin* plugin_ = nullptr;
  std::vector<FieldPath> fields_;
  uint64_t n_ = 0;
  uint64_t oid_ = 0;
};

// ---------------------------------------------------------------------------
// CacheScan
// ---------------------------------------------------------------------------

/// Cache-block lookup shared by the cursor and the morsel splitter, so both
/// resolve (and report) blocks identically.
Result<std::shared_ptr<const CacheBlock>> ResolveCacheBlock(const ExecContext& ctx,
                                                            uint64_t cache_id) {
  if (ctx.caches == nullptr) return Status::Internal("cache scan without CachingManager");
  std::shared_ptr<const CacheBlock> block = ctx.caches->FindById(cache_id);
  if (block == nullptr) {
    return Status::NotFound("cache block #" + std::to_string(cache_id) + " evicted");
  }
  return block;
}

/// Reads the block rows of one morsel `range` (clamped to the block).
class CacheScanCursor : public Cursor {
 public:
  CacheScanCursor(const ExecContext& ctx, const Operator& op, ScanRange range)
      : ctx_(ctx), op_(op), range_(range) {}

  Status Open() override {
    PROTEUS_ASSIGN_OR_RETURN(block_, ResolveCacheBlock(ctx_, op_.cache_id()));
    // The fields the plan reads, as for a raw scan.
    fields_ = op_.scan_fields();
    // Hybrid raw access for fields missing from the block (e.g. strings).
    for (const auto& p : fields_) {
      if (block_->Find(op_.binding(), p) == nullptr) {
        auto info = ctx_.catalog->Get(op_.dataset());
        if (!info.ok()) return info.status();
        PROTEUS_ASSIGN_OR_RETURN(plugin_, ctx_.plugins->GetOrOpen(**info, ctx_.stats));
        oid_col_ = block_->Find(op_.binding(), {"$oid"});
        if (oid_col_ == nullptr) {
          return Status::Internal("hybrid cache scan requires an OID column");
        }
        break;
      }
    }
    row_ = range_.begin;
    limit_ = std::min(block_->num_rows, range_.end);
    return Status::OK();
  }

  Result<bool> Next(EvalEnv* row) override {
    GlobalCounters().virtual_calls++;
    if (row_ >= limit_) return false;
    auto read = [&](const FieldPath& p) -> Result<Value> {
      const CacheColumn* c = block_->Find(op_.binding(), p);
      if (c == nullptr) {
        // Raw fallback through the OID (paper: caching only the OID can be
        // sufficient; Q12-style string predicates still touch the file).
        return plugin_->ReadValue(static_cast<uint64_t>(oid_col_->ints[row_]), p);
      }
      GlobalCounters().cache_field_accesses++;
      switch (c->type) {
        case TypeKind::kInt64:
        case TypeKind::kDate: return Value::Int(c->ints[row_]);
        case TypeKind::kBool: return Value::Boolean(c->ints[row_] != 0);
        case TypeKind::kFloat64: return Value::Float(c->floats[row_]);
        case TypeKind::kString: return Value::Str(c->strs[row_]);
        default: return Status::Internal("bad cache column type");
      }
    };
    PROTEUS_ASSIGN_OR_RETURN((*row)[op_.binding()], AssembleRecord(fields_, read));
    ++row_;
    return true;
  }

 private:
  const ExecContext& ctx_;
  const Operator& op_;
  ScanRange range_;
  std::shared_ptr<const CacheBlock> block_;  ///< shared: survives eviction mid-query
  std::vector<FieldPath> fields_;
  InputPlugin* plugin_ = nullptr;
  const CacheColumn* oid_col_ = nullptr;
  uint64_t row_ = 0;
  uint64_t limit_ = 0;
};

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

class SelectCursor : public Cursor {
 public:
  SelectCursor(std::unique_ptr<Cursor> child, const Operator& op)
      : child_(std::move(child)), op_(op) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(EvalEnv* row) override {
    GlobalCounters().virtual_calls++;
    while (true) {
      PROTEUS_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(op_.pred(), *row));
      if (pass) return true;
    }
  }

 private:
  std::unique_ptr<Cursor> child_;
  const Operator& op_;
};

// ---------------------------------------------------------------------------
// Unnest
// ---------------------------------------------------------------------------

class UnnestCursorOp : public Cursor {
 public:
  UnnestCursorOp(std::unique_ptr<Cursor> child, const Operator& op)
      : child_(std::move(child)), op_(op) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(EvalEnv* row) override {
    GlobalCounters().virtual_calls++;
    while (true) {
      if (pos_ < current_.size()) {
        (*row) = outer_row_;
        (*row)[op_.binding()] = current_[pos_++];
        PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(op_.pred(), *row));
        if (!pass) continue;
        return true;
      }
      if (pending_outer_emit_) {
        pending_outer_emit_ = false;
        (*row) = outer_row_;
        (*row)[op_.binding()] = Value::Null();
        return true;
      }
      PROTEUS_ASSIGN_OR_RETURN(bool has, child_->Next(&outer_row_));
      if (!has) return false;
      // Resolve the collection through the bound record value.
      const FieldPath& p = op_.unnest_path();
      auto it = outer_row_.find(p[0]);
      if (it == outer_row_.end()) {
        return Status::Internal("unnest source '" + p[0] + "' missing at runtime");
      }
      Value v = it->second;
      for (size_t i = 1; i < p.size() && !v.is_null(); ++i) {
        PROTEUS_ASSIGN_OR_RETURN(v, v.GetField(p[i]));
      }
      current_.clear();
      pos_ = 0;
      if (v.is_null()) {
        // absent collection
      } else if (v.is_list()) {
        current_ = v.list();
      } else {
        return Status::TypeError("unnest path " + DottedPath(p) + " is not a collection");
      }
      if (current_.empty() && op_.outer()) pending_outer_emit_ = true;
    }
  }

 private:
  std::unique_ptr<Cursor> child_;
  const Operator& op_;
  EvalEnv outer_row_;
  ValueList current_;
  size_t pos_ = 0;
  bool pending_outer_emit_ = false;
};

// ---------------------------------------------------------------------------
// Join (radix hash for equi-joins, block nested loop otherwise)
// ---------------------------------------------------------------------------

/// A materialized join build side, filled once up front and shared
/// read-only across all worker pipelines.
struct SharedJoinBuild {
  std::vector<EvalEnv> rows;
  std::vector<Value> keys;  ///< parallel to rows when has_key
  RadixTable table;
  bool has_key = false;
};

/// Match set of `probe_row` against a build side (equi probe via the radix
/// table with key-equality check; nested loop otherwise). A null probe key
/// matches nothing.
Status FindJoinMatches(const Operator& op, const SharedJoinBuild& build,
                       const EvalEnv& probe_row, std::vector<uint32_t>* matches) {
  matches->clear();
  if (build.has_key) {
    PROTEUS_ASSIGN_OR_RETURN(Value k, Eval(op.right_key(), probe_row));
    if (k.is_null()) return Status::OK();
    build.table.Probe(k.Hash(), [&](uint32_t idx) {
      if (build.keys[idx].Equals(k)) matches->push_back(idx);
    });
  } else {
    // Nested loop: every build row is a candidate; predicate filters.
    matches->resize(build.rows.size());
    for (uint32_t i = 0; i < build.rows.size(); ++i) (*matches)[i] = i;
  }
  return Status::OK();
}

/// Emits build row `idx` overlaid with the probe row's bindings, then runs
/// the join predicate (with hash keys, equality was already verified via
/// build.keys; the full predicate still covers residual conjuncts).
Result<bool> EmitJoinRow(const Operator& op, const SharedJoinBuild& build, uint32_t idx,
                         const EvalEnv& probe_row, EvalEnv* row) {
  *row = build.rows[idx];
  for (const auto& [k, v] : probe_row) (*row)[k] = v;
  return EvalPredicate(op.pred(), *row);
}

// ---------------------------------------------------------------------------
// Nest as a driver leaf — GroupTable and NestBinding live in partial_sink.h,
// shared with the shard subsystem, which serializes per-morsel group tables
// across the shard boundary.
// ---------------------------------------------------------------------------

/// Emits the group records of one morsel `range` of a folded mid-chain
/// Nest's group table (clamped to the group count), in group order.
class GroupCursor : public Cursor {
 public:
  GroupCursor(const GroupTable& groups, const Operator& op, ScanRange range)
      : groups_(groups), op_(op), pos_(range.begin),
        end_(std::min<uint64_t>(range.end, groups.size())) {}

  Status Open() override { return Status::OK(); }

  Result<bool> Next(EvalEnv* row) override {
    GlobalCounters().virtual_calls++;
    if (pos_ >= end_) return false;
    row->clear();
    (*row)[NestBinding(op_)] = groups_.GroupRecord(op_, pos_);
    ++pos_;
    return true;
  }

 private:
  const GroupTable& groups_;
  const Operator& op_;
  uint64_t pos_;
  uint64_t end_;
};

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution (Leis et al., adapted to this engine)
//
// Every plan runs as pipeline regions: chains of Select / Unnest / Join ops
// between the Reduce root (optionally through one Nest directly under it)
// and a driver leaf — a splittable Scan or CacheScan, or a mid-chain Nest.
// Blocking operators split regions. Join build sides are materialized once
// up front — themselves as pipeline regions — into SharedJoinBuild
// structures that worker pipelines probe read-only. A mid-chain Nest is a
// pipeline breaker too: its input region folds first into one GroupTable,
// and the region above is driven over that table's groups. The driver leaf
// is split into morsels (plug-in Split() for raw scans, an even split of
// cache rows or groups otherwise); each morsel runs a private pipeline
// instance feeding a per-morsel partial sink (Reduce accumulators or Nest
// group tables), merged in morsel order. Outer joins track per-morsel
// matched-build bitmaps, OR-merged after the probe morsels; the unmatched
// build rows then drain — serially, once — through the ops above the join
// into a trailing partial slot: probe stream first, then unmatched build
// rows, bottom-up.
//
// Determinism: morsel boundaries, radix-build layout, and merge order all
// depend only on the data — never on the worker count — so a query returns
// bit-identical results for num_threads = 1 and num_threads = N.
// ---------------------------------------------------------------------------

/// Upper bound on morsels per pipeline (merge cost stays negligible).
constexpr uint64_t kMaxMorsels = 1024;

/// Probe side of a join over a shared, pre-built build side. For outer joins
/// the cursor records matched build rows in `matched` (this partial's
/// private bitmap); the unmatched drain itself runs later, once, after every
/// probe partial has reported its bitmap.
class SharedJoinProbeCursor : public Cursor {
 public:
  SharedJoinProbeCursor(std::unique_ptr<Cursor> probe, const SharedJoinBuild* build,
                        const Operator& op, std::vector<uint8_t>* matched = nullptr)
      : probe_(std::move(probe)), build_(build), op_(op), matched_(matched) {}

  Status Open() override { return probe_->Open(); }

  Result<bool> Next(EvalEnv* row) override {
    GlobalCounters().virtual_calls++;
    while (true) {
      if (match_pos_ < matches_.size()) {
        uint32_t idx = matches_[match_pos_++];
        PROTEUS_ASSIGN_OR_RETURN(bool pass, EmitJoinRow(op_, *build_, idx, probe_row_, row));
        if (!pass) continue;
        if (matched_ != nullptr) (*matched_)[idx] = 1;
        return true;
      }
      PROTEUS_ASSIGN_OR_RETURN(bool has, probe_->Next(&probe_row_));
      if (!has) return false;
      match_pos_ = 0;
      PROTEUS_RETURN_NOT_OK(FindJoinMatches(op_, *build_, probe_row_, &matches_));
    }
  }

 private:
  std::unique_ptr<Cursor> probe_;
  const SharedJoinBuild* build_;
  const Operator& op_;
  std::vector<uint8_t>* matched_;
  EvalEnv probe_row_;
  std::vector<uint32_t> matches_;
  size_t match_pos_ = 0;
};

/// Cursor over a materialized row vector — the source feeding an outer
/// join's unmatched-drain pass through the ops above the join.
class VectorRowCursor : public Cursor {
 public:
  explicit VectorRowCursor(std::vector<EvalEnv> rows) : rows_(std::move(rows)) {}

  Status Open() override { return Status::OK(); }

  Result<bool> Next(EvalEnv* row) override {
    GlobalCounters().virtual_calls++;
    if (pos_ >= rows_.size()) return false;
    *row = std::move(rows_[pos_++]);
    return true;
  }

 private:
  std::vector<EvalEnv> rows_;
  size_t pos_ = 0;
};

/// Runs one plan's pipeline regions. The main region — the chain under the
/// Reduce root (or under a Nest directly under it) — is prepared once, then
/// run over any subset of its morsels; every other region (join build
/// sides, a Nest leaf's input) runs in full while the main one prepares.
class MorselRunner {
 public:
  explicit MorselRunner(const ExecContext& ctx) : ctx_(ctx) {}

  /// Prepares `plan`'s main region — every scanned dataset opened on this
  /// thread (cold index and stats before any fan-out, so workers only hit
  /// the warm path), join builds and a Nest leaf's fold materialized — and
  /// returns its global morsel decomposition. `chunked` callers run subsets
  /// of the morsels (shard slices, tiered chunks), which rules out outer
  /// chain joins: their unmatched-build drain needs every probe morsel.
  Result<std::vector<ScanRange>> Prepare(const OpPtr& plan, bool chunked) {
    if (!CollectPlanPipeline(plan, &main_)) {
      return Status::InvalidArgument("plan has no pipeline chain under its Reduce root");
    }
    if (chunked && !OuterChainJoins(main_).empty()) {
      return Status::InvalidArgument(
          "outer joins cannot run in morsel chunks: the unmatched-build drain is global");
    }
    PROTEUS_RETURN_NOT_OK(PreOpenPlanPlugins(ctx_, plan));
    PROTEUS_RETURN_NOT_OK(PrepareRegion(main_));
    return SplitLeaf(*main_.leaf);
  }

  /// Runs worker pipelines of the prepared main region over `morsels` — the
  /// global morsels `first`, `first + 1`, ... — into fresh per-slot partial
  /// sinks (one slot per morsel plus one trailing slot per outer-join
  /// drain).
  Result<PlanPartials> RunMain(const OpPtr& plan, const std::vector<ScanRange>& morsels,
                               uint64_t first) {
    const Operator* nest = RootNest(plan);
    const uint64_t slots = PlanPartialSlots(main_, morsels.size());
    PlanPartials partials;
    partials.nest = nest != nullptr;
    if (nest != nullptr) {
      partials.group_morsels.assign(slots, GroupTable(GroupLayout::ForNest(*nest)));
      PROTEUS_RETURN_NOT_OK(RunPipelines(
          main_, morsels,
          [&](EvalEnv& row, uint64_t m) { return partials.group_morsels[m].AddRow(*nest, row); },
          first));
    } else {
      partials.agg_morsels.reserve(slots);
      for (uint64_t m = 0; m < slots; ++m) partials.agg_morsels.push_back(MakeReduceAggs(*plan));
      PROTEUS_RETURN_NOT_OK(RunPipelines(
          main_, morsels,
          [&](EvalEnv& row, uint64_t m) {
            return AccumulateReduceRow(*plan, row, &partials.agg_morsels[m]);
          },
          first));
    }
    return partials;
  }

 private:
  /// The region's pipeline breakers below its chain: every chain join's
  /// build side, then a mid-chain Nest driver leaf's group table. Both
  /// materialize once; the region's morsels then only read them.
  Status PrepareRegion(const MorselPipeline& desc) {
    for (const Operator* j : desc.joins) {
      PROTEUS_RETURN_NOT_OK(MaterializeBuild(*j));
    }
    if (desc.leaf->kind() == OpKind::kNest) {
      PROTEUS_RETURN_NOT_OK(FoldNest(*desc.leaf));
    }
    return Status::OK();
  }

  /// The morsel decomposition of a prepared region's driver leaf: a Nest
  /// leaf splits its folded groups evenly, scans go through
  /// SplitLeafMorsels.
  Result<std::vector<ScanRange>> SplitLeaf(const Operator& leaf) {
    if (leaf.kind() == OpKind::kNest) return SplitRowMorsels(ctx_, nests_.at(&leaf)->size());
    return SplitLeafMorsels(ctx_, leaf);
  }

  /// Folds the input region of mid-chain Nest `nest` into nests_[nest] —
  /// as a single morsel, in row order, into the GroupTable the generated
  /// engine's fold fills too (outer-join drains of the region
  /// follow its probe rows). The cancel flag is checked every
  /// kDefaultMorselRows folded rows, the promptness of a morsel boundary.
  Status FoldNest(const Operator& nest) {
    MorselPipeline desc;
    if (!CollectMorselPipeline(nest.child(0), &desc)) {
      return Status::InvalidArgument("nest input has no pipeline chain");
    }
    PROTEUS_RETURN_NOT_OK(PrepareRegion(desc));
    auto groups = std::make_shared<GroupTable>(GroupLayout::ForNest(nest));
    uint64_t rows = 0;
    auto fold = [&](EvalEnv& row, uint64_t) -> Status {
      if (rows++ % kDefaultMorselRows == 0) PROTEUS_RETURN_NOT_OK(CheckCancelled(ctx_));
      return groups->AddRow(nest, row);
    };
    PROTEUS_RETURN_NOT_OK(RunPipelines(desc, {ScanRange{0, UINT64_MAX}}, fold));
    // Materialization estimate: 48 bytes per distinct group.
    GlobalCounters().bytes_materialized += 48 * groups->size();
    nests_[&nest] = std::move(groups);
    return Status::OK();
  }

  /// Materializes the build side of `join` into builds_[join]; the subtree
  /// runs as a morsel-parallel pipeline region itself.
  Status MaterializeBuild(const Operator& join) {
    obs::TraceSpan span(ctx_.trace, "join_build");
    PROTEUS_ASSIGN_OR_RETURN(std::vector<EvalEnv> rows, MaterializeRows(join.child(0)));
    span.set_arg0("rows", static_cast<int64_t>(rows.size()));
    auto build = std::make_shared<SharedJoinBuild>();
    if (join.left_key()) {
      build->has_key = true;
      build->table.set_partitioned(join.join_strategy() == JoinStrategy::kPartitioned);
      build->rows.reserve(rows.size());
      build->keys.reserve(rows.size());
      build->table.Reserve(rows.size());
      for (auto& row : rows) {
        PROTEUS_ASSIGN_OR_RETURN(Value k, Eval(join.left_key(), row));
        if (k.is_null()) {
          // Null keys never match; outer joins still keep the row (with no
          // radix entry) so the unmatched drain can emit it, in build order.
          if (join.outer()) {
            build->rows.push_back(std::move(row));
            build->keys.push_back(Value::Null());
          }
          continue;
        }
        build->table.Insert(k.Hash(), static_cast<uint32_t>(build->rows.size()));
        build->rows.push_back(std::move(row));
        build->keys.push_back(std::move(k));
        GlobalCounters().bytes_materialized += 64;  // boxed row estimate
      }
      build->table.Build(ctx_.scheduler);
    } else {
      GlobalCounters().bytes_materialized += 64 * rows.size();
      build->rows = std::move(rows);
    }
    builds_[&join] = std::move(build);
    return Status::OK();
  }

  /// Materializes all rows produced by `subtree`, run as a morsel-parallel
  /// pipeline region and concatenated in morsel order.
  Result<std::vector<EvalEnv>> MaterializeRows(const OpPtr& subtree) {
    MorselPipeline desc;
    if (!CollectMorselPipeline(subtree, &desc)) {
      return Status::InvalidArgument("join build side has no pipeline chain");
    }
    PROTEUS_RETURN_NOT_OK(PrepareRegion(desc));
    PROTEUS_ASSIGN_OR_RETURN(std::vector<ScanRange> morsels, SplitLeaf(*desc.leaf));
    std::vector<std::vector<EvalEnv>> per_morsel(PlanPartialSlots(desc, morsels.size()));
    PROTEUS_RETURN_NOT_OK(RunPipelines(desc, morsels, [&](EvalEnv& row, uint64_t m) {
      per_morsel[m].push_back(row);
      return Status::OK();
    }));
    std::vector<EvalEnv> rows;
    for (auto& chunk : per_morsel) {
      for (auto& row : chunk) rows.push_back(std::move(row));
    }
    return rows;
  }

  /// Matched-build bitmaps of one probe partial (morsel or drain pass),
  /// keyed by outer-join op. unordered_map nodes are pointer-stable, so
  /// cursors hold direct pointers into their partial's entry.
  using MatchedBitmaps = std::unordered_map<const Operator*, std::vector<uint8_t>>;

  /// Wraps `cursor` in the pipeline op `op` (shared by the per-morsel
  /// pipelines and the outer-join drain passes). Outer joins register a
  /// matched bitmap in `bitmaps`.
  Result<std::unique_ptr<Cursor>> WrapOp(std::unique_ptr<Cursor> cursor, const Operator& op,
                                         MatchedBitmaps* bitmaps) {
    switch (op.kind()) {
      case OpKind::kSelect:
        return std::unique_ptr<Cursor>(new SelectCursor(std::move(cursor), op));
      case OpKind::kUnnest:
        return std::unique_ptr<Cursor>(new UnnestCursorOp(std::move(cursor), op));
      case OpKind::kJoin: {
        const SharedJoinBuild* build = builds_.at(&op).get();
        std::vector<uint8_t>* matched = nullptr;
        if (op.outer()) {
          auto& bm = (*bitmaps)[&op];
          bm.assign(build->rows.size(), 0);
          matched = &bm;
        }
        return std::unique_ptr<Cursor>(
            new SharedJoinProbeCursor(std::move(cursor), build, op, matched));
      }
      default:
        return Status::Internal("unexpected op in morsel pipeline");
    }
  }

  /// Builds one private pipeline instance over `range` (leaf up to root).
  Result<std::unique_ptr<Cursor>> MakePipeline(const MorselPipeline& desc, ScanRange range,
                                               MatchedBitmaps* bitmaps) {
    std::unique_ptr<Cursor> cursor;
    for (size_t i = desc.ops.size(); i-- > 0;) {
      const Operator& op = *desc.ops[i];
      switch (op.kind()) {
        case OpKind::kScan:
          cursor.reset(new ScanCursor(ctx_, op, range));
          break;
        case OpKind::kCacheScan:
          cursor.reset(new CacheScanCursor(ctx_, op, range));
          break;
        case OpKind::kNest:
          cursor.reset(new GroupCursor(*nests_.at(&op), op, range));
          break;
        default: {
          PROTEUS_ASSIGN_OR_RETURN(cursor, WrapOp(std::move(cursor), op, bitmaps));
          break;
        }
      }
    }
    return cursor;
  }

  /// Builds the drain pipeline of outer join `join`: its unmatched build
  /// rows run through only the ops *above* the join (they already carry the
  /// build side's bindings; the probe side is nulled).
  Result<std::unique_ptr<Cursor>> MakeDrainPipeline(const MorselPipeline& desc,
                                                    const Operator* join,
                                                    std::vector<EvalEnv> rows,
                                                    MatchedBitmaps* bitmaps) {
    size_t pos = desc.ops.size();
    for (size_t i = 0; i < desc.ops.size(); ++i) {
      if (desc.ops[i] == join) {
        pos = i;
        break;
      }
    }
    if (pos == desc.ops.size()) return Status::Internal("outer join missing from pipeline");
    std::unique_ptr<Cursor> cursor(new VectorRowCursor(std::move(rows)));
    for (size_t i = pos; i-- > 0;) {
      PROTEUS_ASSIGN_OR_RETURN(cursor, WrapOp(std::move(cursor), *desc.ops[i], bitmaps));
    }
    return cursor;
  }

  /// Outer-join unmatched drains: OR the per-partial matched bitmaps of each
  /// outer join and run its unmatched build rows — serially, once — through
  /// the ops above it into trailing partial slot `next_slot`,
  /// `next_slot + 1`, ... Deepest joins drain first, and each drain pass
  /// records the matches it produces on outer joins above it (its bitmaps
  /// join the pool for later drains), so the emitted row order is fixed:
  /// probe stream first, then unmatched build rows, bottom-up.
  Status DrainOuterJoins(const MorselPipeline& desc, std::vector<MatchedBitmaps>* bitmaps,
                         uint64_t next_slot,
                         const std::function<Status(EvalEnv&, uint64_t)>& sink) {
    for (const Operator* j : OuterChainJoins(desc)) {
      OBS_SPAN(ctx_.trace, "outer_drain");
      const SharedJoinBuild& build = *builds_.at(j);
      std::vector<uint8_t> matched(build.rows.size(), 0);
      for (const MatchedBitmaps& bm : *bitmaps) {
        auto f = bm.find(j);
        if (f == bm.end()) continue;
        for (size_t i = 0; i < matched.size(); ++i) matched[i] |= f->second[i];
      }
      std::vector<std::string> right_vars;
      CollectBoundVars(j->child(1), &right_vars);
      std::vector<EvalEnv> rows;
      for (size_t i = 0; i < build.rows.size(); ++i) {
        if (matched[i] != 0) continue;
        EvalEnv row = build.rows[i];
        for (const auto& v : right_vars) row[v] = Value::Null();
        rows.push_back(std::move(row));
      }
      bitmaps->emplace_back();
      PROTEUS_ASSIGN_OR_RETURN(
          std::unique_ptr<Cursor> cursor,
          MakeDrainPipeline(desc, j, std::move(rows), &bitmaps->back()));
      PROTEUS_RETURN_NOT_OK(cursor->Open());
      EvalEnv row;
      while (true) {
        PROTEUS_ASSIGN_OR_RETURN(bool has, cursor->Next(&row));
        if (!has) break;
        PROTEUS_RETURN_NOT_OK(sink(row, next_slot));
      }
      ++next_slot;
    }
    return Status::OK();
  }

  /// Runs one pipeline instance per morsel, fanning out over the scheduler;
  /// `sink(row, slot)` receives every produced row (workers write disjoint
  /// per-morsel slots, so sinks need no locking). Outer-join drains follow
  /// serially, feeding the trailing slots. Every morsel checks for
  /// cancellation; only the main region's (`main_first` set: the global
  /// index of morsels[0]) call the morsel hook and open an interp_morsel
  /// span, with the global index — as the generated engine does.
  Status RunPipelines(const MorselPipeline& desc, const std::vector<ScanRange>& morsels,
                      const std::function<Status(EvalEnv&, uint64_t)>& sink,
                      std::optional<uint64_t> main_first = std::nullopt) {
    std::vector<MatchedBitmaps> bitmaps(morsels.size());
    PROTEUS_RETURN_NOT_OK(ctx_.scheduler->ParallelFor(
        morsels.size(), [&](uint64_t m, int) -> Status {
          PROTEUS_RETURN_NOT_OK(CheckCancelled(ctx_));
          const uint64_t global = main_first.value_or(0) + m;
          if (main_first && ctx_.morsel_hook != nullptr) (*ctx_.morsel_hook)(global);
          obs::TraceSpan span(main_first ? ctx_.trace : nullptr, "interp_morsel", "morsel",
                              static_cast<int64_t>(global));
          PROTEUS_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor,
                                   MakePipeline(desc, morsels[m], &bitmaps[m]));
          PROTEUS_RETURN_NOT_OK(cursor->Open());
          EvalEnv row;
          while (true) {
            PROTEUS_ASSIGN_OR_RETURN(bool has, cursor->Next(&row));
            if (!has) break;
            PROTEUS_RETURN_NOT_OK(sink(row, m));
          }
          return Status::OK();
        }));
    return DrainOuterJoins(desc, &bitmaps, morsels.size(), sink);
  }

  const ExecContext& ctx_;
  MorselPipeline main_;
  std::unordered_map<const Operator*, std::shared_ptr<SharedJoinBuild>> builds_;
  /// Folded group tables of mid-chain Nest driver leaves.
  std::unordered_map<const Operator*, std::shared_ptr<GroupTable>> nests_;
};

/// InterpPartialSession implementation: one MorselRunner whose prepared
/// main region (join builds, folded nest) persists across chunks. The
/// context is held by value (the session may outlive the caller's frame)
/// and must be declared before the runner, which borrows it by reference.
class PartialSessionImpl final : public InterpPartialSession {
 public:
  PartialSessionImpl(const ExecContext& ctx, OpPtr plan)
      : ctx_(ctx), plan_(std::move(plan)), runner_(ctx_) {}

  Status Prepare() {
    PROTEUS_ASSIGN_OR_RETURN(morsels_, runner_.Prepare(plan_, /*chunked=*/true));
    return Status::OK();
  }

  uint64_t num_morsels() const override { return morsels_.size(); }

  Status RunChunk(uint64_t morsel_begin, uint64_t morsel_end, PlanPartials* out) override {
    PROTEUS_ASSIGN_OR_RETURN(std::vector<ScanRange> mine,
                             MorselSlice(morsels_, morsel_begin, morsel_end));
    PROTEUS_ASSIGN_OR_RETURN(PlanPartials chunk, runner_.RunMain(plan_, mine, morsel_begin));
    out->nest = chunk.nest;
    out->Append(std::move(chunk));
    return Status::OK();
  }

 private:
  ExecContext ctx_;
  OpPtr plan_;
  MorselRunner runner_;
  std::vector<ScanRange> morsels_;
};

}  // namespace

Result<std::unique_ptr<InterpPartialSession>> MakeInterpPartialSession(const ExecContext& ctx,
                                                                       const OpPtr& plan) {
  if (plan == nullptr || plan->kind() != OpKind::kReduce) {
    return Status::InvalidArgument("plan root must be Reduce");
  }
  if (ctx.scheduler == nullptr) {
    return Status::InvalidArgument("interp session requires a scheduler");
  }
  auto session = std::make_unique<PartialSessionImpl>(ctx, plan);
  PROTEUS_RETURN_NOT_OK(session->Prepare());
  return std::unique_ptr<InterpPartialSession>(std::move(session));
}

// ---------------------------------------------------------------------------
// Shared morsel decomposition (interpreter morsels, JIT pipelines, shards)
// ---------------------------------------------------------------------------

const Operator* RootNest(const OpPtr& plan) {
  const OpPtr& top = plan->child(0);
  return top->kind() == OpKind::kNest ? top.get() : nullptr;
}

bool CollectPlanPipeline(const OpPtr& plan, MorselPipeline* out) {
  const OpPtr& top = plan->child(0);
  return CollectMorselPipeline(top->kind() == OpKind::kNest ? top->child(0) : top, out);
}

bool CollectMorselPipeline(const OpPtr& op, MorselPipeline* out) {
  switch (op->kind()) {
    case OpKind::kScan:
    case OpKind::kCacheScan:
    case OpKind::kNest:
      // A Nest here is a pipeline breaker: its input region folds first,
      // and this chain is driven over its groups.
      out->ops.push_back(op.get());
      out->leaf = op.get();
      return true;
    case OpKind::kSelect:
    case OpKind::kUnnest:
      out->ops.push_back(op.get());
      return CollectMorselPipeline(op->child(0), out);
    case OpKind::kJoin:
      // Outer joins are eligible too: matched-build bits are tracked per
      // morsel and the unmatched drain runs once after the probe morsels.
      out->ops.push_back(op.get());
      out->joins.push_back(op.get());
      return CollectMorselPipeline(op->child(1), out);
    default:
      return false;  // Reduce
  }
}

std::vector<const Operator*> OuterChainJoins(const MorselPipeline& pipe) {
  // pipe.joins is collected root-first; drains run deepest-first.
  std::vector<const Operator*> outer;
  for (size_t k = pipe.joins.size(); k-- > 0;) {
    if (pipe.joins[k]->outer()) outer.push_back(pipe.joins[k]);
  }
  return outer;
}

uint64_t PlanPartialSlots(const MorselPipeline& pipe, uint64_t num_morsels) {
  uint64_t outer = 0;
  for (const Operator* j : pipe.joins) outer += j->outer() ? 1 : 0;
  return num_morsels + outer;
}

namespace {

/// Morsel count target for `n` leaf rows: ctx.morsel_rows rows per morsel,
/// at least one and at most kMaxMorsels morsels.
uint64_t MorselTarget(const ExecContext& ctx, uint64_t n) {
  const uint64_t per_morsel = ctx.morsel_rows == 0 ? kDefaultMorselRows : ctx.morsel_rows;
  return std::max<uint64_t>(1, std::min(kMaxMorsels, (n + per_morsel - 1) / per_morsel));
}

}  // namespace

Result<std::vector<ScanRange>> MorselSlice(const std::vector<ScanRange>& morsels,
                                           uint64_t morsel_begin, uint64_t morsel_end) {
  if (morsel_begin > morsel_end || morsel_end > morsels.size()) {
    return Status::InvalidArgument("morsel range [" + std::to_string(morsel_begin) + ", " +
                                   std::to_string(morsel_end) + ") out of bounds for " +
                                   std::to_string(morsels.size()) + " morsels");
  }
  return std::vector<ScanRange>(morsels.begin() + morsel_begin, morsels.begin() + morsel_end);
}

std::vector<ScanRange> SplitRowMorsels(const ExecContext& ctx, uint64_t rows) {
  return EvenSplit(rows, MorselTarget(ctx, rows));
}

Result<std::vector<ScanRange>> SplitLeafMorsels(const ExecContext& ctx, const Operator& leaf) {
  if (leaf.kind() == OpKind::kNest) {
    return Status::InvalidArgument(
        "a mid-chain Nest's morsels depend on its group count, known only after its fold");
  }
  if (leaf.kind() == OpKind::kScan) {
    PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, ctx.catalog->Get(leaf.dataset()));
    PROTEUS_ASSIGN_OR_RETURN(InputPlugin * plugin, ctx.plugins->GetOrOpen(*info, ctx.stats));
    uint64_t n = plugin->NumRecords();
    std::vector<ScanRange> morsels = plugin->Split(MorselTarget(ctx, n));
    // The Split contract does not promise non-emptiness; the merge phase
    // indexes partials[0], so guarantee at least one morsel here.
    if (morsels.empty()) morsels.push_back({0, n});
    return morsels;
  }
  // CacheScan: evenly split the block's row range.
  PROTEUS_ASSIGN_OR_RETURN(const auto block, ResolveCacheBlock(ctx, leaf.cache_id()));
  return SplitRowMorsels(ctx, block->num_rows);
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

bool PlanIsMorselParallelizable(const OpPtr& plan) {
  if (plan == nullptr || plan->kind() != OpKind::kReduce) return false;
  MorselPipeline desc;
  return CollectPlanPipeline(plan, &desc) && desc.leaf->kind() != OpKind::kNest;
}

Status PreOpenPlanPlugins(const ExecContext& ctx, const OpPtr& op) {
  if (op->kind() == OpKind::kScan ||
      (op->kind() == OpKind::kCacheScan && !op->dataset().empty())) {
    PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, ctx.catalog->Get(op->dataset()));
    PROTEUS_RETURN_NOT_OK(ctx.plugins->GetOrOpen(*info, ctx.stats).status());
  }
  for (const auto& c : op->children()) PROTEUS_RETURN_NOT_OK(PreOpenPlanPlugins(ctx, c));
  return Status::OK();
}

bool PlanIsShardable(const OpPtr& plan) {
  if (!PlanIsMorselParallelizable(plan)) return false;
  MorselPipeline desc;
  CollectPlanPipeline(plan, &desc);
  // The unmatched drain of an outer chain join needs a global view.
  return OuterChainJoins(desc).empty();
}

Result<uint64_t> InterpExecutor::CountPlanMorsels(const OpPtr& plan) {
  if (!PlanIsMorselParallelizable(plan)) {
    return Status::InvalidArgument(
        "plan's morsel decomposition is not known before execution (root must be Reduce "
        "over a chain with a scan driver leaf)");
  }
  MorselPipeline desc;
  CollectPlanPipeline(plan, &desc);
  PROTEUS_ASSIGN_OR_RETURN(std::vector<ScanRange> morsels, SplitLeafMorsels(ctx_, *desc.leaf));
  return static_cast<uint64_t>(morsels.size());
}

Result<PlanPartials> InterpExecutor::ExecutePartials(const OpPtr& plan,
                                                     std::optional<ScanRange> slice) {
  if (plan->kind() != OpKind::kReduce) {
    return Status::InvalidArgument("physical plan root must be Reduce, got:\n" +
                                   plan->ToString());
  }
  if (ctx_.scheduler == nullptr) {
    return Status::InvalidArgument("InterpExecutor requires a TaskScheduler");
  }
  exec_stats_ = ExecStats{};
  // Morsel-driven at every thread count, num_threads == 1 included:
  // cross-thread-count result identity requires every worker count to use
  // the same per-morsel partial sums (float addition is not associative), so
  // the worker count may only change who runs a morsel, never the fold shape.
  MorselRunner runner(ctx_);
  PROTEUS_ASSIGN_OR_RETURN(std::vector<ScanRange> morsels,
                           runner.Prepare(plan, /*chunked=*/slice.has_value()));
  if (slice.has_value()) {
    PROTEUS_ASSIGN_OR_RETURN(morsels, MorselSlice(morsels, slice->begin, slice->end));
  }
  PROTEUS_ASSIGN_OR_RETURN(PlanPartials partials,
                           runner.RunMain(plan, morsels, slice ? slice->begin : 0));
  exec_stats_.morsels = morsels.size();
  exec_stats_.threads_used = static_cast<int>(std::min<uint64_t>(
      ctx_.scheduler->num_threads(), std::max<uint64_t>(morsels.size(), 1)));
  return partials;
}

Result<QueryResult> InterpExecutor::Execute(const OpPtr& plan) {
  PROTEUS_ASSIGN_OR_RETURN(PlanPartials partials, ExecutePartials(plan, std::nullopt));
  return FinalizePlanPartials(*plan, RootNest(plan), std::move(partials), ctx_.trace);
}

}  // namespace proteus
