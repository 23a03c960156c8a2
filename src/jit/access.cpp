#include "src/jit/access.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "src/common/hash.h"
#include "src/plugins/binary_plugins.h"
#include "src/plugins/csv_plugin.h"

namespace proteus {
namespace jit {

ParamDesc DataParam(ParamKind kind, std::string dataset, uint32_t column) {
  ParamDesc d;
  d.kind = kind;
  d.dataset = std::move(dataset);
  d.column = column;
  return d;
}

ParamDesc CacheParam(ParamKind kind, uint64_t cache_id, std::string var, FieldPath path) {
  ParamDesc d;
  d.kind = kind;
  d.cache_id = cache_id;
  d.var = std::move(var);
  d.path = std::move(path);
  return d;
}

namespace {

llvm::Value* LoadAt(EmitEnv& env, llvm::Type* ty, llvm::Value* addr_i64) {
  llvm::IRBuilder<>& b = env.builder();
  return b.CreateLoad(ty, b.CreateIntToPtr(addr_i64, ty->getPointerTo()));
}

/// Address of 8-byte element `i` of the array at `base` (both i64).
llvm::Value* At8(EmitEnv& env, llvm::Value* base, llvm::Value* i) {
  llvm::IRBuilder<>& b = env.builder();
  return b.CreateAdd(base, b.CreateMul(i, b.getInt64(8)));
}

/// A value of `kind` from its raw 8-byte slot `raw` (ints, double bits,
/// bools as 0/nonzero).
CgValue FromRaw(EmitEnv& env, TypeKind kind, llvm::Value* raw) {
  llvm::IRBuilder<>& b = env.builder();
  CgValue cv;
  cv.kind = kind;
  if (kind == TypeKind::kFloat64) {
    cv.v = b.CreateBitCast(raw, b.getDoubleTy());
  } else if (kind == TypeKind::kBool) {
    cv.v = b.CreateICmpNE(raw, b.getInt64(0));
  } else {
    cv.v = raw;
  }
  return cv;
}

/// Emits a multi-field read helper call (runtime.h's proteus_*_read
/// contract) per 64 fields: `call(fields, n, out)` emits the call for one
/// chunk — `fields` its keys, then its kinds — and returns its null mask.
/// Values come back in `fields` order.
using ReadCall =
    std::function<llvm::Value*(llvm::Value* fields, llvm::Value* n, llvm::Value* out)>;
std::vector<CgValue> EmitReadCalls(EmitEnv& env, const std::vector<FieldRead>& fields,
                                   const std::vector<int64_t>& keys, const ReadCall& call) {
  llvm::IRBuilder<>& b = env.builder();
  llvm::Type* i64 = b.getInt64Ty();
  std::vector<CgValue> values;
  for (size_t begin = 0; begin < fields.size(); begin += 64) {
    const size_t n = std::min<size_t>(64, fields.size() - begin);
    std::vector<int64_t> desc(keys.begin() + begin, keys.begin() + begin + n);
    for (size_t i = 0; i < n; ++i) desc.push_back(static_cast<int64_t>(fields[begin + i].kind));
    llvm::Value* out = env.EntryAlloca(i64, b.getInt64(2 * n), "read");
    llvm::Value* nulls =
        call(env.ConstI64Array(desc), b.getInt32(static_cast<uint32_t>(n)), out);
    for (size_t i = 0; i < n; ++i) {
      const TypeKind kind = fields[begin + i].kind;
      auto slot = [&](size_t k) {
        return b.CreateLoad(i64, b.CreateConstInBoundsGEP1_64(i64, out, 2 * i + k));
      };
      CgValue cv;
      if (kind == TypeKind::kString) {
        cv.kind = kind;
        cv.v = b.CreateIntToPtr(slot(0), b.getInt8PtrTy());
        cv.len = slot(1);
      } else {
        cv = FromRaw(env, kind, slot(0));
      }
      cv.null = b.CreateICmpNE(b.CreateAnd(nulls, b.getInt64(uint64_t{1} << i)), b.getInt64(0));
      values.push_back(cv);
    }
  }
  return values;
}

// ---- binary columns: one load per field -----------------------------------

class BinColAccess : public AccessEmitter {
 public:
  BinColAccess(const BinColReader* reader, std::string dataset)
      : reader_(reader), dataset_(std::move(dataset)) {}

  Result<std::vector<CgValue>> Read(EmitEnv& env, llvm::Value* oid,
                                    const std::vector<FieldRead>& fields) override {
    llvm::IRBuilder<>& b = env.builder();
    std::vector<CgValue> values;
    for (const FieldRead& f : fields) {
      const int ci = reader_->ColumnIndex(f.path[0]);
      if (ci < 0) return Status::Internal("jit: missing bincol column " + f.path[0]);
      auto base = [&](ParamKind k) {
        return env.ParamI64(DataParam(k, dataset_, static_cast<uint32_t>(ci)));
      };
      CgValue cv;
      cv.kind = f.kind;
      if (f.kind == TypeKind::kInt64) {
        cv.v = LoadAt(env, b.getInt64Ty(), At8(env, base(ParamKind::kBinColIntBase), oid));
      } else if (f.kind == TypeKind::kFloat64) {
        cv.v = LoadAt(env, b.getDoubleTy(), At8(env, base(ParamKind::kBinColFloatBase), oid));
      } else if (f.kind == TypeKind::kBool) {
        llvm::Value* byte =
            LoadAt(env, b.getInt8Ty(), b.CreateAdd(base(ParamKind::kBinColBoolBase), oid));
        cv.v = b.CreateICmpNE(byte, b.getInt8(0));
      } else {  // string: offsets + data
        llvm::Value* offs = base(ParamKind::kBinColStrOffsets);
        llvm::Value* o1 = LoadAt(env, b.getInt64Ty(), At8(env, offs, oid));
        llvm::Value* o2 =
            LoadAt(env, b.getInt64Ty(), At8(env, offs, b.CreateAdd(oid, b.getInt64(1))));
        cv.v = b.CreateIntToPtr(b.CreateAdd(base(ParamKind::kBinColStrData), o1),
                                b.getInt8PtrTy());
        cv.len = b.CreateSub(o2, o1);
      }
      values.push_back(cv);
    }
    return values;
  }

 private:
  const BinColReader* reader_;
  std::string dataset_;
};

// ---- binary rows: one load per field at its fixed row offset ---------------

class BinRowAccess : public AccessEmitter {
 public:
  BinRowAccess(const BinRowReader* reader, std::string dataset)
      : reader_(reader), dataset_(std::move(dataset)) {}

  Result<std::vector<CgValue>> Read(EmitEnv& env, llvm::Value* oid,
                                    const std::vector<FieldRead>& fields) override {
    llvm::IRBuilder<>& b = env.builder();
    llvm::Value* row = b.CreateAdd(env.ParamI64(DataParam(ParamKind::kBinRowRowsBase, dataset_)),
                                   b.CreateMul(oid, b.getInt64(reader_->row_width())));
    std::vector<CgValue> values;
    for (const FieldRead& f : fields) {
      const int ci = reader_->ColumnIndex(f.path[0]);
      if (ci < 0) return Status::Internal("jit: missing binrow column " + f.path[0]);
      llvm::Value* addr = b.CreateAdd(row, b.getInt64(8 * static_cast<uint64_t>(ci)));
      if (f.kind != TypeKind::kString) {
        values.push_back(FromRaw(env, f.kind, LoadAt(env, b.getInt64Ty(), addr)));
        continue;
      }
      // Packed (u32 off, u32 len) into the heap.
      CgValue cv;
      cv.kind = f.kind;
      llvm::Value* off = b.CreateZExt(LoadAt(env, b.getInt32Ty(), addr), b.getInt64Ty());
      cv.len = b.CreateZExt(LoadAt(env, b.getInt32Ty(), b.CreateAdd(addr, b.getInt64(4))),
                            b.getInt64Ty());
      llvm::Value* heap = env.ParamI64(DataParam(ParamKind::kBinRowHeapBase, dataset_));
      cv.v = b.CreateIntToPtr(b.CreateAdd(heap, off), b.getInt8PtrTy());
      values.push_back(cv);
    }
    return values;
  }

 private:
  const BinRowReader* reader_;
  std::string dataset_;
};

// ---- CSV: one forward pass per read point, continuing along the row --------

class CsvAccess : public AccessEmitter {
 public:
  CsvAccess(const CsvPlugin* plugin, std::string dataset)
      : plugin_(plugin), dataset_(std::move(dataset)) {}

  llvm::Value* BeginRow(EmitEnv& env, llvm::Value* oid) override {
    llvm::IRBuilder<>& b = env.builder();
    if (cursor_ == nullptr) cursor_ = env.EntryAlloca(b.getInt64Ty(), b.getInt64(2), "csv_cursor");
    b.CreateStore(b.getInt64(-1), cursor_);
    b.CreateStore(b.getInt64(0), b.CreateConstInBoundsGEP1_64(b.getInt64Ty(), cursor_, 1));
    return oid;
  }

  Result<std::vector<CgValue>> Read(EmitEnv& env, llvm::Value* oid,
                                    const std::vector<FieldRead>& fields) override {
    if (cursor_ == nullptr) return Status::Internal("jit: CSV read before its row began");
    // The pass walks columns in ascending order; values return in `fields`
    // order.
    std::vector<int64_t> cols;
    for (const FieldRead& f : fields) {
      const int ci = plugin_->ColumnIndex(f.path[0]);
      if (ci < 0) return Status::Internal("jit: missing csv column " + f.path[0]);
      cols.push_back(ci);
    }
    std::vector<size_t> order(fields.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t c) { return cols[a] < cols[c]; });
    std::vector<FieldRead> sorted;
    std::vector<int64_t> keys;
    for (size_t i : order) {
      sorted.push_back(fields[i]);
      keys.push_back(cols[i]);
    }
    llvm::IRBuilder<>& b = env.builder();
    llvm::Type* i8p = b.getInt8PtrTy();
    llvm::Type* i64 = b.getInt64Ty();
    llvm::Type* i64p = i64->getPointerTo();
    llvm::Value* plugin = b.CreateIntToPtr(
        env.ParamI64(DataParam(ParamKind::kPluginPtr, dataset_)), i8p);
    llvm::Function* fn =
        env.Helper("proteus_csv_read", i64, {i8p, i64, i64p, b.getInt32Ty(), i64p, i64p});
    std::vector<CgValue> in_order =
        EmitReadCalls(env, sorted, keys, [&](llvm::Value* desc, llvm::Value* n, llvm::Value* out) {
          return b.CreateCall(fn, {plugin, oid, desc, n, out, cursor_});
        });
    std::vector<CgValue> values(fields.size());
    for (size_t i = 0; i < order.size(); ++i) values[order[i]] = in_order[i];
    return values;
  }

 private:
  const CsvPlugin* plugin_;
  std::string dataset_;
  llvm::Value* cursor_ = nullptr;  ///< CsvPlugin::RowCursor, two i64 slots
};

// ---- JSON: one structural-index lookup per field, one call per point -------

class JsonAccess : public AccessEmitter {
 public:
  explicit JsonAccess(std::string dataset) : dataset_(std::move(dataset)) {}

  Result<std::vector<CgValue>> Read(EmitEnv& env, llvm::Value* oid,
                                    const std::vector<FieldRead>& fields) override {
    std::vector<int64_t> keys;
    for (const FieldRead& f : fields) {
      keys.push_back(static_cast<int64_t>(HashString(DottedPath(f.path))));
    }
    llvm::IRBuilder<>& b = env.builder();
    llvm::Type* i8p = b.getInt8PtrTy();
    llvm::Type* i64 = b.getInt64Ty();
    llvm::Type* i64p = i64->getPointerTo();
    llvm::Value* plugin = b.CreateIntToPtr(
        env.ParamI64(DataParam(ParamKind::kPluginPtr, dataset_)), i8p);
    llvm::Function* fn =
        env.Helper("proteus_json_read", i64, {i8p, i8p, i64, i64p, b.getInt32Ty(), i64p});
    return EmitReadCalls(env, fields, keys, [&](llvm::Value* desc, llvm::Value* n,
                                                llvm::Value* out) {
      return b.CreateCall(fn, {env.CtxPtr(), plugin, oid, desc, n, out});
    });
  }

 private:
  std::string dataset_;
};

// ---- cache blocks: column loads, uncached fields raw by OID ----------------

class CacheAccess : public AccessEmitter {
 public:
  CacheAccess(const ScanSource& src, std::string var, std::unique_ptr<AccessEmitter> raw)
      : block_(src.cache.get()), cache_id_(src.cache_id), var_(std::move(var)),
        raw_(std::move(raw)) {}

  llvm::Value* BeginRow(EmitEnv& env, llvm::Value* row) override {
    oid_ = nullptr;
    if (block_->Find(var_, {"$oid"}) != nullptr) {
      llvm::Value* oid_base =
          env.ParamI64(CacheParam(ParamKind::kCacheColIntBase, cache_id_, var_, {"$oid"}));
      oid_ = LoadAt(env, env.builder().getInt64Ty(), At8(env, oid_base, row));
      if (raw_ != nullptr) raw_->BeginRow(env, oid_);
    }
    return oid_;
  }

  Result<std::vector<CgValue>> Read(EmitEnv& env, llvm::Value* row,
                                    const std::vector<FieldRead>& fields) override {
    llvm::IRBuilder<>& b = env.builder();
    std::vector<CgValue> values(fields.size());
    std::vector<FieldRead> hybrid;
    std::vector<size_t> hybrid_at;
    for (size_t i = 0; i < fields.size(); ++i) {
      const FieldRead& f = fields[i];
      const CacheColumn* c = block_->Find(var_, f.path);
      if (c == nullptr || c->type == TypeKind::kString) {
        // Hybrid raw access by OID (an uncached string or raw_only field).
        hybrid.push_back(f);
        hybrid_at.push_back(i);
        continue;
      }
      const bool is_float = c->type == TypeKind::kFloat64;
      llvm::Value* base = env.ParamI64(CacheParam(
          is_float ? ParamKind::kCacheColFloatBase : ParamKind::kCacheColIntBase, cache_id_, var_,
          f.path));
      llvm::Value* raw = LoadAt(env, b.getInt64Ty(), At8(env, base, row));
      values[i] = FromRaw(env, is_float          ? TypeKind::kFloat64
                               : c->type == TypeKind::kBool ? TypeKind::kBool
                                                            : TypeKind::kInt64,
                          raw);
    }
    if (hybrid.empty()) return values;
    if (raw_ == nullptr || oid_ == nullptr) {
      return Status::Unimplemented("jit: cache miss for field " + var_ + "." +
                                   DottedPath(hybrid[0].path));
    }
    PROTEUS_ASSIGN_OR_RETURN(std::vector<CgValue> raw, raw_->Read(env, oid_, hybrid));
    for (size_t i = 0; i < raw.size(); ++i) values[hybrid_at[i]] = raw[i];
    return values;
  }

 private:
  const CacheBlock* block_;
  uint64_t cache_id_;
  std::string var_;
  std::unique_ptr<AccessEmitter> raw_;  ///< the source plug-in's emitter; null without one
  llvm::Value* oid_ = nullptr;          ///< the current row's raw OID (BeginRow)
};

// ---- array elements: one scan of the element locates every name ------------

class ElementAccess : public AccessEmitter {
 public:
  ElementAccess(uint32_t slot, std::vector<std::string> names)
      : slot_(slot), names_(std::move(names)) {}

  Result<std::vector<CgValue>> Read(EmitEnv& env, llvm::Value* /*row*/,
                                    const std::vector<FieldRead>& fields) override {
    std::vector<int64_t> keys;
    for (const FieldRead& f : fields) {
      if (f.path.empty()) {
        keys.push_back(-1);
        continue;
      }
      auto it = std::find(names_.begin(), names_.end(), f.path[0]);
      if (f.path.size() != 1 || it == names_.end()) {
        return Status::Internal("jit: element field " + DottedPath(f.path) +
                                " outside the unnest's name list");
      }
      keys.push_back(it - names_.begin());
    }
    std::string blob;
    for (const std::string& n : names_) blob.append(n).push_back('\0');
    llvm::IRBuilder<>& b = env.builder();
    llvm::Type* i8p = b.getInt8PtrTy();
    llvm::Type* i32 = b.getInt32Ty();
    llvm::Type* i64 = b.getInt64Ty();
    llvm::Type* i64p = i64->getPointerTo();
    llvm::Value* names = env.GlobalString(blob);
    llvm::Function* fn =
        env.Helper("proteus_unnest_read", i64, {i8p, i32, i8p, i32, i64p, i32, i64p});
    return EmitReadCalls(env, fields, keys, [&](llvm::Value* desc, llvm::Value* n,
                                                llvm::Value* out) {
      return b.CreateCall(fn, {env.CtxPtr(), b.getInt32(slot_), names,
                               b.getInt32(static_cast<uint32_t>(names_.size())), desc, n, out});
    });
  }

 private:
  uint32_t slot_;
  std::vector<std::string> names_;
};

}  // namespace

Result<std::unique_ptr<AccessEmitter>> MakeScanAccess(const ScanSource& src,
                                                      const std::string& var) {
  if (src.cache != nullptr) {
    std::unique_ptr<AccessEmitter> raw;
    if (src.plugin != nullptr) {
      PROTEUS_ASSIGN_OR_RETURN(raw, MakeScanAccess({src.plugin, nullptr, src.dataset}, var));
    }
    return std::unique_ptr<AccessEmitter>(new CacheAccess(src, var, std::move(raw)));
  }
  const DataFormat format = src.plugin->info().format;
  switch (format) {
    case DataFormat::kBinaryColumn:
      return std::unique_ptr<AccessEmitter>(
          new BinColAccess(static_cast<BinColPlugin*>(src.plugin)->reader(), src.dataset));
    case DataFormat::kBinaryRow:
      return std::unique_ptr<AccessEmitter>(
          new BinRowAccess(static_cast<BinRowPlugin*>(src.plugin)->reader(), src.dataset));
    case DataFormat::kCSV:
      return std::unique_ptr<AccessEmitter>(
          new CsvAccess(static_cast<CsvPlugin*>(src.plugin), src.dataset));
    case DataFormat::kJSON:
      return std::unique_ptr<AccessEmitter>(new JsonAccess(src.dataset));
    case DataFormat::kCacheBlock:
      break;
  }
  return Status::Internal(std::string("jit: no raw reader for format ") +
                          DataFormatName(format));
}

std::unique_ptr<AccessEmitter> MakeElementAccess(uint32_t slot, std::vector<std::string> names) {
  return std::unique_ptr<AccessEmitter>(new ElementAccess(slot, std::move(names)));
}

}  // namespace jit
}  // namespace proteus
