#include "src/jit/query_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>

#include "src/algebra/algebra.h"
#include "src/common/hash.h"
#include "src/engine/interp.h"
#include "src/jit/runtime.h"
#include "src/jit/session.h"
#include "src/obs/trace.h"
#include "src/plugins/binary_plugins.h"

namespace proteus {
namespace jit {

namespace {

const char* ParamKindName(ParamKind k) {
  switch (k) {
    case ParamKind::kPluginPtr: return "plugin";
    case ParamKind::kNumRecords: return "num_records";
    case ParamKind::kBinColIntBase: return "bincol_int";
    case ParamKind::kBinColFloatBase: return "bincol_float";
    case ParamKind::kBinColBoolBase: return "bincol_bool";
    case ParamKind::kBinColStrOffsets: return "bincol_stroff";
    case ParamKind::kBinColStrData: return "bincol_strdata";
    case ParamKind::kBinRowRowsBase: return "binrow_rows";
    case ParamKind::kBinRowHeapBase: return "binrow_heap";
    case ParamKind::kCacheNumRows: return "cache_rows";
    case ParamKind::kCacheColIntBase: return "cache_int";
    case ParamKind::kCacheColFloatBase: return "cache_float";
    case ParamKind::kLiteralInt: return "lit_int";
    case ParamKind::kLiteralFloat: return "lit_float";
    case ParamKind::kLiteralBool: return "lit_bool";
    case ParamKind::kLiteralStr: return "lit_str";
    case ParamKind::kLiteralStrLen: return "lit_strlen";
  }
  return "?";
}

/// True for the kLiteral* kinds: bound from the running plan's literals,
/// not from the catalog, plug-ins or caches.
bool IsLiteralParam(ParamKind kind) {
  switch (kind) {
    case ParamKind::kLiteralInt:
    case ParamKind::kLiteralFloat:
    case ParamKind::kLiteralBool:
    case ParamKind::kLiteralStr:
    case ParamKind::kLiteralStrLen:
      return true;
    default:
      return false;
  }
}

/// The bound value of literal descriptor `d`: the running plan's literal
/// at the same shape position, checked against the kind the module loads.
Result<int64_t> BindLiteral(const ParamDesc& d, const std::vector<const Expr*>& literals) {
  if (d.literal >= literals.size()) {
    return Status::Internal("jit bind: the running plan has no literal #" +
                            std::to_string(d.literal));
  }
  const Value& v = literals[d.literal]->literal();
  switch (d.kind) {
    case ParamKind::kLiteralInt:
      if (v.is_int()) return v.i();
      break;
    case ParamKind::kLiteralFloat:
      if (v.is_float()) {
        const double f = v.f();
        int64_t bits;
        std::memcpy(&bits, &f, sizeof(bits));
        return bits;
      }
      break;
    case ParamKind::kLiteralBool:
      if (v.is_bool()) return v.b() ? 1 : 0;
      break;
    case ParamKind::kLiteralStr:
      if (v.is_string()) {
        return static_cast<int64_t>(reinterpret_cast<uintptr_t>(v.s().data()));
      }
      break;
    case ParamKind::kLiteralStrLen:
      if (v.is_string()) return static_cast<int64_t>(v.s().size());
      break;
    default:
      break;
  }
  return Status::Internal("jit bind: literal #" + std::to_string(d.literal) +
                          " of the running plan changed kind under a module");
}

}  // namespace

PlanShape ShapeOfPlan(const Operator& plan) {
  PlanShape shape;
  // Codegen gives each literal node one parameter slot, so a node the plan
  // reaches twice (a join key is a subtree of its predicate) prints as a
  // reference to its first position: a plan with two distinct literals
  // there is another shape.
  std::unordered_map<const Expr*, size_t> position;
  std::function<void(const Operator&)> leaves = [&](const Operator& op) {
    if (op.kind() == OpKind::kCacheScan) shape.cache_leaves.push_back(&op);
    for (const auto& c : op.children()) leaves(*c);
  };
  leaves(plan);
  shape.signature = plan.Signature([&](const Expr& lit) -> std::string {
    const auto [it, first] = position.emplace(&lit, shape.literals.size());
    if (!first) return "?@" + std::to_string(it->second);
    shape.literals.push_back(&lit);
    const Value& v = lit.literal();
    if (v.is_int()) return "?i";
    if (v.is_float()) return "?f";
    if (v.is_bool()) return "?b";
    if (v.is_string()) return "?s";
    return v.ToString();  // no generated form (codegen declines it): keyed by value
  });
  return shape;
}

std::string ParamDesc::ToString() const {
  std::ostringstream os;
  if (IsLiteralParam(kind)) {
    os << ParamKindName(kind) << "[" << literal << "]";
    return os.str();
  }
  os << ParamKindName(kind) << "(" << dataset << "#" << cache_leaf << "." << var;
  if (!path.empty()) os << "." << DottedPath(path);
  os << "@" << column << ")";
  return os.str();
}

uint32_t ParamTable::Slot(ParamDesc desc) {
  std::string key = desc.ToString();
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  uint32_t slot = static_cast<uint32_t>(descs_.size());
  descs_.push_back(std::move(desc));
  index_.emplace(std::move(key), slot);
  return slot;
}

Result<std::vector<int64_t>> BindParams(
    const ExecContext& ctx, const std::vector<ParamDesc>& descs, const PlanShape& shape,
    std::vector<std::shared_ptr<const CacheBlock>>* pinned) {
  std::vector<int64_t> out;
  out.reserve(descs.size());
  auto as_i64 = [](const void* p) { return static_cast<int64_t>(reinterpret_cast<uintptr_t>(p)); };
  for (const ParamDesc& d : descs) {
    if (IsLiteralParam(d.kind)) {
      PROTEUS_ASSIGN_OR_RETURN(int64_t v, BindLiteral(d, shape.literals));
      out.push_back(v);
      continue;
    }
    switch (d.kind) {
      case ParamKind::kCacheNumRows:
      case ParamKind::kCacheColIntBase:
      case ParamKind::kCacheColFloatBase: {
        if (ctx.caches == nullptr) {
          return Status::Internal("jit bind: cache param without a CachingManager");
        }
        if (d.cache_leaf >= shape.cache_leaves.size()) {
          return Status::Internal("jit bind: the running plan has no cache leaf #" +
                                  std::to_string(d.cache_leaf));
        }
        const uint64_t id = shape.cache_leaves[d.cache_leaf]->cache_id();
        const auto blk = ctx.caches->FindById(id);
        if (blk == nullptr) {
          return Status::NotFound("jit bind: cache block #" + std::to_string(id) + " evicted");
        }
        if (pinned != nullptr) pinned->push_back(blk);
        if (d.kind == ParamKind::kCacheNumRows) {
          out.push_back(static_cast<int64_t>(blk->num_rows));
          break;
        }
        const CacheColumn* col = blk->Find(d.var, d.path);
        if (col == nullptr) {
          return Status::NotFound("jit bind: cache column " + d.var + "." +
                                  DottedPath(d.path) + " missing from block #" +
                                  std::to_string(id));
        }
        if (d.kind == ParamKind::kCacheColFloatBase) {
          if (col->type != TypeKind::kFloat64) {
            return Status::Internal("jit bind: cache column type changed under a module");
          }
          out.push_back(as_i64(col->floats.data()));
        } else {
          if (col->type == TypeKind::kFloat64 || col->type == TypeKind::kString) {
            return Status::Internal("jit bind: cache column type changed under a module");
          }
          out.push_back(as_i64(col->ints.data()));
        }
        break;
      }
      default: {
        if (ctx.catalog == nullptr || ctx.plugins == nullptr) {
          return Status::Internal("jit bind: no catalog/plugin registry");
        }
        PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, ctx.catalog->Get(d.dataset));
        PROTEUS_ASSIGN_OR_RETURN(InputPlugin * plugin,
                                 ctx.plugins->GetOrOpen(*info, ctx.stats));
        switch (d.kind) {
          case ParamKind::kPluginPtr:
            out.push_back(as_i64(plugin));
            break;
          case ParamKind::kNumRecords:
            out.push_back(static_cast<int64_t>(plugin->NumRecords()));
            break;
          case ParamKind::kBinColIntBase:
          case ParamKind::kBinColFloatBase:
          case ParamKind::kBinColBoolBase:
          case ParamKind::kBinColStrOffsets:
          case ParamKind::kBinColStrData: {
            if (info->format != DataFormat::kBinaryColumn) {
              return Status::Internal("jit bind: dataset " + d.dataset +
                                      " is no longer binary-columnar");
            }
            const BinColReader* r = static_cast<BinColPlugin*>(plugin)->reader();
            if (r == nullptr || d.column >= r->num_cols()) {
              return Status::Internal("jit bind: bincol column " + std::to_string(d.column) +
                                      " out of range for " + d.dataset);
            }
            const void* p = nullptr;
            switch (d.kind) {
              case ParamKind::kBinColIntBase: p = r->IntColumn(d.column); break;
              case ParamKind::kBinColFloatBase: p = r->FloatColumn(d.column); break;
              case ParamKind::kBinColBoolBase: p = r->BoolColumn(d.column); break;
              case ParamKind::kBinColStrOffsets: p = r->StringOffsets(d.column); break;
              default: p = r->StringData(d.column); break;
            }
            out.push_back(as_i64(p));
            break;
          }
          case ParamKind::kBinRowRowsBase:
          case ParamKind::kBinRowHeapBase: {
            if (info->format != DataFormat::kBinaryRow) {
              return Status::Internal("jit bind: dataset " + d.dataset +
                                      " is no longer binary-row");
            }
            const BinRowReader* r = static_cast<BinRowPlugin*>(plugin)->reader();
            if (r == nullptr) {
              return Status::Internal("jit bind: binrow reader missing for " + d.dataset);
            }
            out.push_back(as_i64(d.kind == ParamKind::kBinRowRowsBase ? r->rows_base()
                                                                      : r->heap_base()));
            break;
          }
          default:
            return Status::Internal("jit bind: unreachable param kind");
        }
      }
    }
  }
  return out;
}

void InitRuntimeFromLayout(const RuntimeLayout& layout, QueryRuntime* rt) {
  for (const auto& j : layout.joins) rt->AddJoin(j.payload_slots, j.partitioned);
  for (const GroupLayout& g : layout.groups) rt->AddGroup(g);
  rt->num_unnests = layout.num_unnests;
}

CompiledModule::CompiledModule() = default;
CompiledModule::~CompiledModule() = default;
CompiledModule::CompiledModule(CompiledModule&&) noexcept = default;
CompiledModule& CompiledModule::operator=(CompiledModule&&) noexcept = default;

bool QueryCacheKey::Reads(const std::string& dataset) const {
  return std::any_of(datasets.begin(), datasets.end(),
                     [&](const DatasetLayout& d) { return d.name == dataset; });
}

size_t QueryCacheKeyHash::operator()(const QueryCacheKey& k) const {
  uint64_t h = HashString(k.signature);
  h = HashCombine(h, HashString(k.join_strategies));
  for (const DatasetLayout& d : k.datasets) {
    h = HashCombine(HashCombine(h, HashString(d.name)), d.fingerprint);
  }
  return static_cast<size_t>(h);
}

CompiledQueryCache::CompiledQueryCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Result<std::shared_ptr<const CompiledModule>> CompiledQueryCache::GetOrCompile(
    const QueryCacheKey& key, const CompileFn& compile, bool* cache_hit,
    obs::TraceRecorder* trace) {
  if (cache_hit != nullptr) *cache_hit = false;
  // Manual Lock/Unlock (not MutexLock): the single-flight protocol
  // deliberately drops the lock around the long compile below, and the
  // thread-safety analysis checks that every return path balances.
  mu_.Lock();
  bool waited = false;
  const double wait_start_us = trace != nullptr ? trace->NowUs() : 0;
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) break;  // miss: this thread compiles
    if (it->second.state == Entry::State::kReady) {
      stats_.hits++;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (cache_hit != nullptr) *cache_hit = true;
      std::shared_ptr<const CompiledModule> module = it->second.module;
      mu_.Unlock();
      if (waited && trace != nullptr) {
        trace->Emit("single_flight_wait", wait_start_us, trace->NowUs() - wait_start_us);
      }
      return module;
    }
    // Another thread is compiling this key: single-flight — wait for it to
    // publish (or fail and erase), then re-check.
    if (!waited) {
      waited = true;
      stats_.single_flight_waits++;
    }
    cv_.Wait(mu_);
  }

  stats_.misses++;
  map_.emplace(key, Entry{});  // state = kCompiling
  mu_.Unlock();
  if (waited && trace != nullptr) {
    // The waited-on compile failed and this thread fell through to its own
    // compile; the wait still happened, so it still gets its span.
    trace->Emit("single_flight_wait", wait_start_us, trace->NowUs() - wait_start_us);
  }

  auto t0 = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const CompiledModule>> compiled = compile();
  double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  mu_.Lock();
  stats_.compile_ms_total += ms;
  auto it = map_.find(key);
  if (it == map_.end() || it->second.state != Entry::State::kCompiling) {
    // The in-flight entry is gone or was replaced (cannot happen today:
    // Erase/Clear/eviction all skip compiling entries) — hand the module to
    // the caller without publishing rather than corrupt the LRU.
    if (compiled.ok() && *compiled != nullptr) stats_.compiles++;
    mu_.Unlock();
    cv_.NotifyAll();
    return compiled;
  }
  if (!compiled.ok() || *compiled == nullptr) {
    // Failures are not cached: erase the in-flight entry so waiters (and
    // later lookups) retry — a plan outside the generated fast path keeps
    // today's fall-back behavior instead of pinning a dead LRU slot.
    map_.erase(it);
    mu_.Unlock();
    cv_.NotifyAll();
    return compiled.ok() ? Status::Internal("jit cache: compile returned null module")
                         : compiled.status();
  }
  stats_.compiles++;
  it->second.state = Entry::State::kReady;
  it->second.module = *compiled;
  lru_.push_front(key);
  it->second.lru_it = lru_.begin();
  EvictOverCapacityLocked();
  mu_.Unlock();
  cv_.NotifyAll();
  return *compiled;
}

std::shared_ptr<const CompiledModule> CompiledQueryCache::TryGet(const QueryCacheKey& key) {
  MutexLock lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second.state != Entry::State::kReady) return nullptr;
  stats_.hits++;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.module;
}

void CompiledQueryCache::EvictOverCapacityLocked() {
  // Only ready entries live on the LRU list, so in-flight compiles are never
  // evicted from under their waiters.
  while (lru_.size() > capacity_) {
    const QueryCacheKey& victim = lru_.back();
    map_.erase(victim);
    lru_.pop_back();
    stats_.evictions++;
  }
}

size_t CompiledQueryCache::EraseReading(const std::string& dataset) {
  // Moved out and released after the unlock: removing a module's dylib is
  // not free, and concurrent lookups need not wait for it.
  std::vector<std::shared_ptr<const CompiledModule>> dropped;
  MutexLock lk(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.state == Entry::State::kReady && it->first.Reads(dataset)) {
      dropped.push_back(std::move(it->second.module));
      lru_.erase(it->second.lru_it);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped.size();
}

size_t CompiledQueryCache::size() const {
  MutexLock lk(mu_);
  return lru_.size();
}

CompiledQueryCache::Stats CompiledQueryCache::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

}  // namespace jit
}  // namespace proteus
