#include "src/engine/cache.h"

#include <algorithm>
#include <atomic>

#include "src/common/counters.h"

namespace proteus {

uint64_t CacheBlockFormatRank(DataFormat f) {
  // Eviction priority: cheap-to-rebuild caches go first
  // (JSON > CSV > Binary in retention value — paper §6 "Cache Policies").
  switch (f) {
    case DataFormat::kJSON: return 3;
    case DataFormat::kCSV: return 2;
    default: return 1;
  }
}

uint64_t CachingManager::Install(CacheBlock block) {
  MutexLock lk(mu_);
  block.id = next_id_++;
  block.last_used_tick = ++tick_;
  // Replace an older block for the same subtree if this one covers at least
  // as many columns. Erasing only drops the map's reference — an in-flight
  // query holding the shared_ptr keeps reading the old block safely.
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->second->signature == block.signature &&
        it->second->cols.size() <= block.cols.size()) {
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
  uint64_t id = block.id;
  blocks_.emplace(id, std::make_shared<CacheBlock>(std::move(block)));
  MaybeEvictLocked();
  return id;
}

void CachingManager::MaybeEvictLocked() {
  while (TotalBytesLocked() > policy_.memory_budget_bytes && blocks_.size() > 1) {
    // Format-biased LRU: evict the lowest (format rank, last_used) block.
    auto victim = blocks_.end();
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
      if (victim == blocks_.end()) {
        victim = it;
        continue;
      }
      uint64_t a = CacheBlockFormatRank(it->second->source_format);
      uint64_t b = CacheBlockFormatRank(victim->second->source_format);
      if (a < b || (a == b && it->second->last_used_tick < victim->second->last_used_tick)) {
        victim = it;
      }
    }
    blocks_.erase(victim);
  }
}

std::shared_ptr<const CacheBlock> CachingManager::FindMatch(const Operator& op) const {
  std::string sig = op.Signature();
  MutexLock lk(mu_);
  for (const auto& [id, b] : blocks_) {
    if (b->signature == sig) {
      b->last_used_tick = ++const_cast<CachingManager*>(this)->tick_;
      return b;
    }
  }
  return nullptr;
}

std::shared_ptr<const CacheBlock> CachingManager::FindById(uint64_t id) const {
  MutexLock lk(mu_);
  auto it = blocks_.find(id);
  return it == blocks_.end() ? nullptr : it->second;
}

std::optional<TypeKind> CachingManager::CachedLeafType(const Type& record_type,
                                                       const FieldPath& path) const {
  const Type* t = &record_type;
  TypePtr leaf;
  for (const auto& name : path) {
    auto ft = t->FieldType(name);
    if (!ft.ok()) return std::nullopt;
    leaf = *ft;
    if (leaf->kind() == TypeKind::kRecord) t = leaf.get();
  }
  if (leaf == nullptr) return std::nullopt;
  if (leaf->kind() == TypeKind::kString) {
    return policy_.cache_strings ? std::optional<TypeKind>(TypeKind::kString) : std::nullopt;
  }
  if (leaf->kind() == TypeKind::kDate) return TypeKind::kInt64;
  if (leaf->is_numeric() || leaf->kind() == TypeKind::kBool) return leaf->kind();
  return std::nullopt;
}

bool CachingManager::Covers(const CacheBlock& block, const Operator& scan,
                            const Type& record_type) const {
  for (const auto& p : scan.scan_fields()) {
    if (block.Find(scan.binding(), p) == nullptr && CachedLeafType(record_type, p) &&
        std::find(block.raw_only.begin(), block.raw_only.end(), p) == block.raw_only.end()) {
      return false;
    }
  }
  return true;
}

OpPtr CachingManager::RewriteWithCaches(OpPtr plan, const Catalog& catalog) const {
  if (plan->kind() == OpKind::kScan) {
    const auto b = FindMatch(*plan);
    if (b == nullptr) return plan;
    auto info = catalog.Get(plan->dataset());
    if (!info.ok() || !Covers(*b, *plan, (*info)->record_type())) return plan;
    OpPtr cs = Operator::CacheScan(b->id, plan->binding(), b->signature, plan->dataset());
    cs->set_scan_fields(plan->scan_fields());
    return cs;
  }
  if (plan->kind() == OpKind::kCacheScan) return plan;
  for (size_t i = 0; i < plan->children().size(); ++i) {
    *plan->mutable_child(i) = RewriteWithCaches(plan->child(i), catalog);
  }
  return plan;
}

namespace {

/// Converts one raw read into its cache-column slot. Returns false, leaving
/// the slot untouched, when the record holds no value there (NotFound: an
/// absent JSON field; or null).
Result<bool> StoreCacheValue(InputPlugin* plugin, const FieldPath& path, uint64_t oid,
                             CacheColumn* col) {
  auto v = plugin->ReadValue(oid, path);
  if (!v.ok()) {
    if (v.status().code() == StatusCode::kNotFound) return false;
    return v.status();
  }
  if (v->is_null()) return false;
  switch (col->type) {
    case TypeKind::kInt64: col->ints[oid] = v->i(); return true;
    case TypeKind::kBool: col->ints[oid] = v->b() ? 1 : 0; return true;
    case TypeKind::kFloat64: col->floats[oid] = v->AsFloat(); return true;
    case TypeKind::kString: col->strs[oid] = v->s(); return true;
    default: return Status::Internal("unexpected cache column type");
  }
}

}  // namespace

Result<uint64_t> CachingManager::BuildScanCache(InputPlugin* plugin, const DatasetInfo& info,
                                                const std::string& binding,
                                                const std::vector<FieldPath>& fields,
                                                TaskScheduler* scheduler) {
  CacheBlock block;
  block.signature = Operator::Scan(info.name, binding)->Signature();
  block.source_format = info.format;
  uint64_t n = plugin->NumRecords();
  block.num_rows = n;

  // OID column (always): enables hybrid raw reads and partial reuse.
  CacheColumn oid_col;
  oid_col.var = binding;
  oid_col.path = {"$oid"};
  oid_col.type = TypeKind::kInt64;
  oid_col.ints.reserve(n);
  for (uint64_t i = 0; i < n; ++i) oid_col.ints.push_back(static_cast<int64_t>(i));
  block.cols.push_back(std::move(oid_col));

  // Resolve leaf types first; only cacheable leaves get (zero-filled,
  // full-size) columns. Preallocating lets the parallel drain below write
  // disjoint OID slices without locks — and the result is byte-identical to
  // a serial build, whatever the morsel boundaries.
  std::vector<CacheColumn> cols;
  for (const auto& p : fields) {
    const std::optional<TypeKind> type = CachedLeafType(info.record_type(), p);
    if (!type) continue;
    CacheColumn col;
    col.var = binding;
    col.path = p;
    col.type = *type;
    if (col.type == TypeKind::kFloat64) {
      col.floats.assign(n, 0.0);
    } else if (col.type == TypeKind::kString) {
      col.strs.assign(n, "");
    } else {
      col.ints.assign(n, 0);
    }
    cols.push_back(std::move(col));
  }

  // missing[c]: some record holds no value for column c (any worker may set
  // it; ParallelFor's join orders the writes before the reads below).
  std::vector<std::atomic<bool>> missing(cols.size());
  if (!cols.empty() && n > 0) {
    // Cold-access drain, morsel-parallel when a scheduler is available
    // (ROADMAP item "parallel cache population"): the plug-in Split() API
    // yields the same byte-balanced ranges the scan pipelines use.
    std::vector<ScanRange> morsels;
    if (scheduler != nullptr && scheduler->num_threads() > 1) {
      morsels = plugin->Split(std::max<uint64_t>(
          1, std::min<uint64_t>(1024, static_cast<uint64_t>(scheduler->num_threads()) * 8)));
    }
    if (morsels.empty()) morsels.push_back({0, n});
    auto fill = [&](uint64_t m, int) -> Status {
      for (uint64_t oid = morsels[m].begin; oid < morsels[m].end; ++oid) {
        for (size_t c = 0; c < cols.size(); ++c) {
          PROTEUS_ASSIGN_OR_RETURN(bool stored,
                                   StoreCacheValue(plugin, cols[c].path, oid, &cols[c]));
          if (!stored) missing[c].store(true, std::memory_order_relaxed);
        }
      }
      return Status::OK();
    };
    if (scheduler != nullptr) {
      PROTEUS_RETURN_NOT_OK(scheduler->ParallelFor(morsels.size(), fill));
    } else {
      for (uint64_t m = 0; m < morsels.size(); ++m) PROTEUS_RETURN_NOT_OK(fill(m, 0));
    }
  }

  for (size_t c = 0; c < cols.size(); ++c) {
    if (missing[c].load(std::memory_order_relaxed)) {
      block.raw_only.push_back(cols[c].path);
      continue;
    }
    GlobalCounters().bytes_materialized += cols[c].bytes();
    block.cols.push_back(std::move(cols[c]));
  }
  return Install(std::move(block));
}

void CachingManager::InvalidateDataset(const std::string& name) {
  MutexLock lk(mu_);
  // Dataset scans embed the dataset name in their signature.
  std::string needle = "scan(" + name + " ";
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->second->signature.find(needle) != std::string::npos) {
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t CachingManager::TotalBytesLocked() const {
  size_t b = 0;
  for (const auto& [id, block] : blocks_) b += block->bytes();
  return b;
}

size_t CachingManager::total_bytes() const {
  MutexLock lk(mu_);
  return TotalBytesLocked();
}

std::vector<std::shared_ptr<const CacheBlock>> CachingManager::blocks() const {
  std::vector<std::shared_ptr<const CacheBlock>> out;
  MutexLock lk(mu_);
  out.reserve(blocks_.size());
  for (const auto& [id, b] : blocks_) out.push_back(b);
  return out;
}

}  // namespace proteus
