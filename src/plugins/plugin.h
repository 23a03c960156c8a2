// Input plug-in API (paper §5.2, Table 2).
//
// Each supported file format has an input plug-in that encapsulates format
// heterogeneity: it "generates" the scan access path, serves lazy field reads
// addressed by OID, iterates nested collections for the Unnest operator, and
// supplies statistics plus cost formulas to the optimizer.
//
// Mapping to the paper's Table 2 API:
//   generate()        -> Open() + the scan loop over [0, NumRecords())
//   readValue()       -> ReadValue(oid, path) for a primitive leaf
//   readPath()        -> ReadValue(oid, path) for nested paths / ReadRecord();
//                        in generated code, the format's access emitter
//                        (src/jit/access.h)
//   hashValue()       -> HashValue(oid, path)
//   flushValue()      -> FlushValue(oid, path, out)
//   unnestInit()      -> UnnestInit(oid, path)
//   unnestHasNext()   -> UnnestCursor::HasNext()
//   unnestGetNext()   -> UnnestCursor::GetNext()
//
// Each engine has one raw-field read path. The interpreter builds every scan
// row through AssembleRecord below (ReadRecord for plug-in scans, the cache
// scan for block rows); generated code reads through one AccessEmitter per
// format (src/jit/access.h), which reads a set of fields per call: direct
// loads for binary data, one multi-field locate-and-convert helper for CSV
// and JSON (src/jit/runtime.h, over CsvPlugin::LocateFields and
// JsonPlugin::LocateFields). Both follow the rules ReadValue sets: an empty
// CSV field, an absent JSON field (NotFound) or a JSON null is SQL null,
// strings are unescaped.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace proteus {

/// A dotted access path into a record, e.g. {"origin", "country"}.
using FieldPath = std::vector<std::string>;

std::string DottedPath(const FieldPath& path);
FieldPath SplitPath(const std::string& dotted);

/// Iterates the elements of one nested collection of one record
/// (unnestInit / unnestHasNext / unnestGetNext).
class UnnestCursor {
 public:
  virtual ~UnnestCursor() = default;
  virtual bool HasNext() = 0;
  virtual Result<Value> GetNext() = 0;
};

/// A half-open OID range [begin, end) — one morsel of a splittable scan.
struct ScanRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t size() const { return end - begin; }
};

/// Reads one leaf of a record being assembled.
using LeafReader = std::function<Result<Value>(const FieldPath&)>;

/// Builds the record of the access paths `fields`, reading each leaf through
/// `read`. Paths that share a prefix nest recursively into one sub-record,
/// so `o.p.x` and `o.p.y` land in one `p`; a path naming a whole prefix
/// wins over deeper paths under it. A NotFound leaf (an absent JSON field)
/// binds SQL null. The one path-to-record assembler: plug-in scans and
/// cache scans both build their rows here.
Result<Value> AssembleRecord(const std::vector<FieldPath>& fields, const LeafReader& read);

class InputPlugin {
 public:
  virtual ~InputPlugin() = default;

  virtual const DatasetInfo& info() const = 0;
  virtual const char* name() const = 0;

  /// Prepares the dataset for scanning; builds the structural index on the
  /// first (cold) access for raw formats. Idempotent.
  virtual Status Open() = 0;

  /// Number of records / "tuples"; valid after Open(). OIDs are [0, n).
  virtual uint64_t NumRecords() const = 0;

  /// Lazily reads a (possibly nested) field of record `oid` and converts it
  /// to a boxed value. Raw formats count a raw_field_access.
  virtual Result<Value> ReadValue(uint64_t oid, const FieldPath& path) = 0;

  /// Reads record `oid` restricted to `fields` (the pushed-down projection
  /// set) through AssembleRecord: the interpreter's one raw record reader.
  virtual Result<Value> ReadRecord(uint64_t oid, const std::vector<FieldPath>& fields);

  /// Opens a cursor over the nested collection at `path` of record `oid`.
  virtual Result<std::unique_ptr<UnnestCursor>> UnnestInit(uint64_t oid,
                                                           const FieldPath& path);

  /// Hash of a field value, for join/group keys.
  virtual Result<uint64_t> HashValue(uint64_t oid, const FieldPath& path);

  /// Appends the textual form of a field value to `out` (result flushing).
  virtual Status FlushValue(uint64_t oid, const FieldPath& path, std::string* out);

  /// Collects dataset statistics into `store` (cardinality, min/max per
  /// numeric leaf). Called on the cold access / by the idle daemon.
  virtual Status CollectStats(StatsStore* store);

  /// Cost formula inputs used by the optimizer (paper: each plug-in provides
  /// costing for its data source). Units are abstract "work per tuple".
  virtual double CostPerTuple() const = 0;
  virtual double CostPerField() const = 0;

  /// Bytes of auxiliary structural index memory (0 for binary formats).
  virtual size_t StructuralIndexBytes() const { return 0; }

  /// Splits [0, NumRecords()) into at most `max_morsels` contiguous ranges
  /// for morsel-driven parallel scans. Raw formats override this to balance
  /// *bytes* per morsel using their structural index (JSON objects and CSV
  /// rows vary in width); the default splits record counts evenly. Must be
  /// deterministic for a given dataset — parallel results are required to be
  /// identical across thread counts, so morsel boundaries may depend only on
  /// the data, never on the worker count. Valid after Open().
  virtual std::vector<ScanRange> Split(uint64_t max_morsels) const;
};

/// Even record-count split of [0, n) into at most `max_morsels` contiguous
/// ranges, the remainder spread over the first ranges. The default
/// InputPlugin::Split and the cache-block split share this so morsel
/// boundaries stay identical across code paths.
std::vector<ScanRange> EvenSplit(uint64_t n, uint64_t max_morsels);

/// Byte-balanced morsel split over a structural index: `starts[i]` is the
/// byte offset of record i (`starts` holds at least `n` entries), `end_byte`
/// the end of the last record. Returns at most `max_morsels` OID ranges
/// cut so each covers roughly equal bytes — raw records vary in width, and
/// balancing bytes instead of record counts is what keeps morsel run times
/// even. Shared by the JSON and CSV plug-ins.
std::vector<ScanRange> SplitByByteOffsets(const std::vector<uint64_t>& starts, uint64_t n,
                                          uint64_t end_byte, uint64_t max_morsels);

/// Creates the plug-in matching `info.format`. Adding a format = adding a
/// case here plus an InputPlugin subclass (paper: "adding a plug-in suffices
/// to support a new data format").
Result<std::unique_ptr<InputPlugin>> CreateInputPlugin(const DatasetInfo& info);

/// Keeps plug-ins (and their structural indexes) alive across queries.
/// GetOrOpen/Evict are mutex-guarded so pool workers can look up plug-ins
/// concurrently; the parallel executor still pre-opens every scanned dataset
/// before fanning out, keeping index construction (and its stats pass) on
/// the submitting thread.
class PluginRegistry {
 public:
  /// Returns the opened plug-in for `info.name`, creating it on first use
  /// (the cold access, where index construction and stats gathering happen).
  Result<InputPlugin*> GetOrOpen(const DatasetInfo& info, StatsStore* stats);

  /// Drops the plug-in (e.g. after an append invalidates its index).
  void Evict(const std::string& dataset);

 private:
  Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<InputPlugin>> open_ GUARDED_BY(mu_);
};

/// Shared default implementation: builds an UnnestCursor over a ValueList.
class ValueListUnnestCursor : public UnnestCursor {
 public:
  explicit ValueListUnnestCursor(ValueList values) : values_(std::move(values)) {}
  bool HasNext() override { return pos_ < values_.size(); }
  Result<Value> GetNext() override { return values_[pos_++]; }

 private:
  ValueList values_;
  size_t pos_ = 0;
};

}  // namespace proteus
