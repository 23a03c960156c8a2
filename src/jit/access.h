// Raw access emitters: the per-format access code generated scans use
// (paper §5.2, "each input plug-in generates the access code for its own
// format"). One AccessEmitter per source format — binary columns, binary
// rows, CSV, JSON, cache-block columns, and JSON array elements — emits the
// read of a *set* of fields of one row (or element) at a time: IR loads for
// the binary formats and cache columns, and one runtime call per read point
// for CSV, JSON and array elements (proteus_csv_read, proteus_json_read,
// proteus_unnest_read in runtime.h).
//
// Codegen decides *where* reads happen (lazy binding, jit_engine.cpp); the
// emitters decide *how*. Every emitter reads exactly the fields it is asked
// for, so a scan whose plan references no field reads nothing.
#pragma once

#include <llvm/IR/IRBuilder.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/engine/cache.h"
#include "src/jit/query_cache.h"
#include "src/plugins/plugin.h"

namespace proteus {
namespace jit {

/// A value in a virtual buffer: primitive kinds only; strings carry ptr+len.
struct CgValue {
  TypeKind kind = TypeKind::kInt64;
  llvm::Value* v = nullptr;    // i64 / double / i1; strings: i8* data
  llvm::Value* len = nullptr;  // strings only: i64
  /// SQL-null flag (i1), or nullptr when the value is provably non-null.
  /// Set for outer-join/outer-unnest null bindings (constant true) and for
  /// every CSV, JSON and array-element read (an empty CSV field, an absent
  /// JSON field or a JSON null is SQL null), and propagated through
  /// expressions with the interpreter's Eval() semantics: arithmetic and
  /// comparisons yield null if an operand is null, and/or fold null operands
  /// to false, predicates treat null as false, aggregates skip null inputs.
  llvm::Value* null = nullptr;
};

/// Where a scan variable's records come from: a plug-in's raw data, or a
/// cache block (plus, for its uncached fields, the plug-in it was built
/// from; null when the block has no source dataset).
struct ScanSource {
  InputPlugin* plugin = nullptr;
  std::shared_ptr<const CacheBlock> cache;  ///< shared: survives eviction
  std::string dataset;    ///< catalog name (raw formats; hybrid cache reads)
  uint64_t cache_id = 0;  ///< kCacheBlock sources
};

/// ParamDesc builders for the two descriptor families (raw-format data
/// constants vs cache-block constants).
ParamDesc DataParam(ParamKind kind, std::string dataset, uint32_t column = 0);
ParamDesc CacheParam(ParamKind kind, uint64_t cache_id, std::string var = {},
                     FieldPath path = {});

/// The codegen services an emitter builds its IR with (Codegen implements
/// them for the function being emitted).
class EmitEnv {
 public:
  virtual ~EmitEnv() = default;
  virtual llvm::IRBuilder<>& builder() = 0;
  /// The i64 parameter-table entry for `desc`, loaded in the entry block.
  virtual llvm::Value* ParamI64(ParamDesc desc) = 0;
  /// Alloca hoisted into the function's entry block.
  virtual llvm::Value* EntryAlloca(llvm::Type* ty, llvm::Value* array_size = nullptr,
                                   const char* name = "") = 0;
  /// Declaration of runtime helper `name`.
  virtual llvm::Function* Helper(const char* name, llvm::Type* ret,
                                 std::vector<llvm::Type*> args) = 0;
  /// The function's MorselCtx* argument.
  virtual llvm::Value* CtxPtr() = 0;
  /// A private constant i64 array in the module (a read's field list).
  virtual llvm::Value* ConstI64Array(const std::vector<int64_t>& values) = 0;
  /// A private constant string in the module.
  virtual llvm::Value* GlobalString(const std::string& s) = 0;
};

/// One field a read point needs: its path and primitive kind (dates as
/// kInt64).
struct FieldRead {
  FieldPath path;
  TypeKind kind;
};

/// Emits the reads of one source's fields.
class AccessEmitter {
 public:
  virtual ~AccessEmitter() = default;
  /// Emitted at the top of every row `row` before any Read of it (CSV
  /// resets its row cursor there). Returns the row's OID in the raw data:
  /// `row` itself for a raw format; a cache row's `$oid` column value, or
  /// null when the block has none.
  virtual llvm::Value* BeginRow(EmitEnv& env, llvm::Value* row) {
    (void)env;
    return row;
  }
  /// Emits the read of `fields` of row `row` (an OID, a cache row, or
  /// unused for array elements); returns their values in order.
  virtual Result<std::vector<CgValue>> Read(EmitEnv& env, llvm::Value* row,
                                            const std::vector<FieldRead>& fields) = 0;
};

/// The emitter of a scan source: its plug-in's format, or a cache block
/// (whose uncached fields read through the source plug-in's emitter by
/// OID).
Result<std::unique_ptr<AccessEmitter>> MakeScanAccess(const ScanSource& src,
                                                      const std::string& var);

/// The emitter of the current element of unnest cursor `slot`. `names` is
/// the element field-name list the plan reads (fixed by the plan's shape);
/// a read's path is one of them, or empty for the element itself.
std::unique_ptr<AccessEmitter> MakeElementAccess(uint32_t slot, std::vector<std::string> names);

}  // namespace jit
}  // namespace proteus
