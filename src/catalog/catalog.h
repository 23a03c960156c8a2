// Dataset registry and metadata store.
//
// Proteus queries data in situ: registering a dataset records its format,
// location, and schema, but moves no data. Statistics are collected lazily by
// the input plug-ins (first cold scan / materialization points / idle daemon,
// paper §5.2 "Enabling Cost-based Optimizations").
#pragma once

#include <bitset>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/types/type.h"

namespace proteus {

enum class DataFormat { kCSV, kJSON, kBinaryRow, kBinaryColumn, kCacheBlock };

const char* DataFormatName(DataFormat f);

struct CSVOptions {
  char delimiter = ',';
  bool has_header = false;
  /// Structural index stride: the position of every Nth field of each row is
  /// indexed (paper §5.2: "Proteus stores the position of every Nth field").
  int index_stride = 10;
};

struct JSONOptions {
  /// When true, the plug-in verifies all objects share one field order during
  /// index construction and, if so, drops Level 0 in favour of deterministic
  /// slot positions (paper §5.2 "Specializing per Dataset Contents").
  bool exploit_fixed_schema = true;
};

struct DatasetInfo {
  std::string name;
  DataFormat format = DataFormat::kCSV;
  std::string path;   ///< file (CSV/JSON/binrow) or directory (bincol)
  TypePtr type;       ///< bag<record<...>>; the element record is the schema
  CSVOptions csv;
  JSONOptions json;

  const Type& record_type() const { return *type->elem(); }
};

/// Per-column statistics gathered by input plug-ins.
struct ColumnStats {
  bool valid = false;
  double min = 0.0;
  double max = 0.0;
  /// Crude distinct-count estimate (linear counting on a small bitmap).
  uint64_t ndv = 0;
};

/// The linear-counting estimator behind ColumnStats::ndv: one bit per value
/// hash, ndv ≈ -m·ln(zeros/m). Near-exact far below m distinct values —
/// plenty for the optimizer's duplication-ratio test (build rows / ndv),
/// which only needs order-of-magnitude fidelity.
class NdvSketch {
 public:
  void Add(uint64_t hash) { bits_.set((hash ^ (hash >> 23)) % kBits); }
  uint64_t Estimate() const {
    const uint64_t zeros = kBits - bits_.count();
    if (zeros == 0) return kBits;
    const double est = -static_cast<double>(kBits) *
                       std::log(static_cast<double>(zeros) / static_cast<double>(kBits));
    return static_cast<uint64_t>(est + 0.5);
  }

 private:
  static constexpr uint64_t kBits = 1 << 14;
  std::bitset<kBits> bits_;
};

struct DatasetStats {
  bool valid = false;
  uint64_t cardinality = 0;
  std::map<std::string, ColumnStats> columns;  ///< keyed by dotted field path
};

/// Metadata store: statistics per data source (paper §5.2). Thread-safe:
/// with concurrent queries on one engine, one query's optimizer can read a
/// dataset's stats while another query's cold scan is publishing them.
/// Writers build a complete DatasetStats locally and Publish() it in one
/// step; readers get an immutable shared snapshot that stays valid even if
/// the entry is invalidated or republished underneath them.
class StatsStore {
 public:
  /// Atomically installs a fully-built statistics object for `dataset`,
  /// replacing any previous one.
  void Publish(const std::string& dataset, DatasetStats stats) {
    auto sp = std::make_shared<const DatasetStats>(std::move(stats));
    MutexLock lk(mu_);
    stats_[dataset] = std::move(sp);
  }

  /// Immutable snapshot (null when absent).
  std::shared_ptr<const DatasetStats> Find(const std::string& dataset) const {
    MutexLock lk(mu_);
    auto it = stats_.find(dataset);
    return it == stats_.end() ? nullptr : it->second;
  }

  void Invalidate(const std::string& dataset) {
    MutexLock lk(mu_);
    stats_.erase(dataset);
  }

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const DatasetStats>> stats_
      GUARDED_BY(mu_);
};

/// Dataset registry. Thread-safe for the serving workload: registrations
/// are expected at setup time, but lookups may race a late registration.
/// Entries are never erased (InvalidateDataset drops plug-ins/stats/caches,
/// not the registration), so the DatasetInfo pointers Get() hands out stay
/// valid for the catalog's lifetime. The catalog keeps no data version:
/// compiled modules are keyed by the layout of each dataset's open plug-in
/// (InputPlugin::LayoutFingerprint), which a rewrite of the file with the
/// same layout leaves unchanged, so refreshed data reuses them.
class Catalog {
 public:
  Status Register(DatasetInfo info);
  Result<const DatasetInfo*> Get(const std::string& name) const;
  bool Contains(const std::string& name) const {
    MutexLock lk(mu_);
    return datasets_.count(name) > 0;
  }
  std::vector<std::string> ListDatasets() const;

  StatsStore& stats() { return stats_; }
  const StatsStore& stats() const { return stats_; }

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, DatasetInfo> datasets_ GUARDED_BY(mu_);
  StatsStore stats_;
};

}  // namespace proteus
