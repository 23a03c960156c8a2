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
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace proteus {

namespace obs {
class TraceRecorder;
}  // namespace obs

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

/// One field of one record as a typed multi-column read
/// (InputPlugin::ReadColumns) delivers it: no boxed Value, and a string is a
/// view valid only during the sink call. kNull covers an empty CSV field, an
/// absent JSON field and a JSON null, the cells ReadValue reads as null or
/// NotFound.
struct TypedCell {
  enum class Kind : uint8_t { kNull, kInt, kFloat, kBool, kString };
  Kind kind = Kind::kNull;
  int64_t i = 0;        ///< kInt (dates too) and kBool (0 or 1)
  double f = 0;         ///< kFloat
  std::string_view s;   ///< kString, unescaped

  double AsFloat() const { return kind == Kind::kFloat ? f : static_cast<double>(i); }
  /// Equals the Hash() of the Value ReadValue returns for this field.
  uint64_t Hash() const;
};

/// Receives one record of a typed multi-column read: `cells[c]` is the
/// c-th requested field of record `oid`.
using TypedRowSink = std::function<void(uint64_t oid, const TypedCell* cells)>;

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

  /// Reads the leaf fields `paths` of every record in `range`, handing each
  /// record's cells to `sink` in OID order: the one typed multi-column pass
  /// behind scan-cache builds and the CSV/JSON statistics. Cells follow
  /// ReadValue's rules, and each read counts as ReadValue's would. CSV and
  /// JSON override it with one pass per row that resolves every path once
  /// per call; this default reads through ReadValue.
  virtual Status ReadColumns(const std::vector<FieldPath>& paths, ScanRange range,
                             const TypedRowSink& sink);

  /// Collects dataset statistics into `store` (cardinality, min/max per
  /// numeric leaf). Called on the cold access / by the idle daemon. This
  /// default reads every value through ReadValue; CSV and JSON override it
  /// with CollectStatsByColumns, which must publish the same statistics.
  virtual Status CollectStats(StatsStore* store);

  /// Cost formula inputs used by the optimizer (paper: each plug-in provides
  /// costing for its data source). Units are abstract "work per tuple".
  virtual double CostPerTuple() const = 0;
  virtual double CostPerField() const = 0;

  /// Bytes of auxiliary structural index memory (0 for binary formats).
  virtual size_t StructuralIndexBytes() const { return 0; }

  /// Fingerprint of everything generated code bakes in about this dataset:
  /// its format, registered type, CSV delimiter and header flag, and (the
  /// binary formats override this) the file header's column names, types
  /// and row width. Rows, values and byte offsets are not part of it, so a
  /// rewrite that keeps the layout keeps the fingerprint. Valid after
  /// Open(); PluginRegistry computes it once per open.
  virtual uint64_t LayoutFingerprint() const;

  /// Splits [0, NumRecords()) into at most `max_morsels` contiguous ranges
  /// for morsel-driven parallel scans. Raw formats override this to balance
  /// *bytes* per morsel using their structural index (JSON objects and CSV
  /// rows vary in width); the default splits record counts evenly. Must be
  /// deterministic for a given dataset — parallel results are required to be
  /// identical across thread counts, so morsel boundaries may depend only on
  /// the data, never on the worker count. Valid after Open().
  virtual std::vector<ScanRange> Split(uint64_t max_morsels) const;
};

/// CollectStats through one ReadColumns pass over every numeric leaf of
/// `plugin`'s record type (opened first).
Status CollectStatsByColumns(InputPlugin* plugin, StatsStore* store);

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
  /// Called with a dataset's name at the open that first sees its layout
  /// fingerprint differ from the previous open's.
  using LayoutChangeFn = std::function<void(const std::string& dataset)>;

  /// Returns the opened plug-in for `info.name`, creating it on first use
  /// (the cold access, where index construction and stats gathering happen,
  /// traced as the `plugin_open` and `collect_stats` spans).
  Result<InputPlugin*> GetOrOpen(const DatasetInfo& info, StatsStore* stats);

  /// The open plug-in's LayoutFingerprint(), opening it first if needed.
  Result<uint64_t> Layout(const DatasetInfo& info, StatsStore* stats);

  /// Drops the plug-in (e.g. after an append invalidates its index). Its
  /// layout fingerprint is kept, so the next open can tell whether the
  /// rewritten file kept the layout.
  void Evict(const std::string& dataset);

  /// Setup-time wiring (before the first open): the layout-change callback,
  /// run after the registry lock is released, and the recorder for the
  /// cold-access spans (null: untraced).
  void set_on_layout_change(LayoutChangeFn fn) { on_layout_change_ = std::move(fn); }
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<InputPlugin>> open_ GUARDED_BY(mu_);
  /// Fingerprint of each dataset's latest open; survives Evict.
  std::unordered_map<std::string, uint64_t> layouts_ GUARDED_BY(mu_);
  LayoutChangeFn on_layout_change_;
  obs::TraceRecorder* trace_ = nullptr;
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
