// CSV input plug-in with positional structural index (paper §5.2).
//
// The index stores, for each row, the byte positions of every Nth field
// (N = CSVOptions::index_stride). A field read locates the closest indexed
// position at or before the wanted field and scans forward from there,
// instead of re-parsing the row from its start. As in NoDB/RAW, this trades
// a small amount of memory for large savings on repeated selective access.
//
// Specialization per dataset contents: if all rows turn out to be
// fixed-length with identical field offsets, the plug-in drops the per-row
// samples entirely and computes positions deterministically
// (paper: "if a CSV file contains fixed-length entries, Proteus
// deterministically computes field positions").
#pragma once

#include <optional>

#include "src/common/mmap_file.h"
#include "src/plugins/plugin.h"

namespace proteus {

class CsvPlugin : public InputPlugin {
 public:
  explicit CsvPlugin(DatasetInfo info) : info_(std::move(info)) {}

  const DatasetInfo& info() const override { return info_; }
  const char* name() const override { return "csv"; }
  Status Open() override;
  uint64_t NumRecords() const override { return num_rows_; }
  Result<Value> ReadValue(uint64_t oid, const FieldPath& path) override;
  double CostPerTuple() const override { return 4.0; }   // parsing + navigation
  double CostPerField() const override { return 6.0; }   // text-to-binary conversion
  size_t StructuralIndexBytes() const override;
  /// Morsels balanced by row bytes via the positional index; fixed-width
  /// files (per-row offsets dropped) use the even record split.
  std::vector<ScanRange> Split(uint64_t max_morsels) const override;

  /// True when the fixed-length fast path replaced the per-row samples.
  bool fixed_width() const { return fixed_width_; }

  /// Where a row's last read point stopped: the next field to scan from
  /// (`col` < 0: nothing located in this row yet). Generated code keeps one
  /// per scan in two i64 stack slots and resets it at every row.
  struct RowCursor {
    int64_t col = -1;
    const char* pos = nullptr;
  };

  /// Locates fields `cols` (ascending) of row `oid` in one forward pass,
  /// starting from the nearest positional-map sample — or from `cursor`,
  /// a read point earlier in the same row, when it lies closer — and
  /// leaves `cursor` past the last located field. This is the plug-in's
  /// access code for generated reads (proteus_csv_read) and for ReadValue.
  void LocateFields(uint64_t oid, const int64_t* cols, size_t n, std::string_view* out,
                    RowCursor* cursor) const;

  int ColumnIndex(const std::string& name) const;
  TypeKind ColumnType(uint32_t col) const { return col_types_[col]; }
  const MmapFile& file() const { return file_; }

 private:
  Status BuildIndex();

  DatasetInfo info_;
  MmapFile file_;
  bool opened_ = false;

  std::vector<std::string> col_names_;
  std::vector<TypeKind> col_types_;

  uint64_t num_rows_ = 0;
  std::vector<uint64_t> row_offsets_;   // + sentinel end offset
  int stride_ = 10;
  uint32_t samples_per_row_ = 0;
  std::vector<uint16_t> samples_;       // relative field-start offsets, every Nth field

  bool fixed_width_ = false;
  uint64_t fixed_row_width_ = 0;        // including newline
  uint64_t first_row_offset_ = 0;
  std::vector<uint16_t> fixed_field_off_;  // per column, relative to row start
};

}  // namespace proteus
