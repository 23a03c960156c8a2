#include "src/plugins/binary_plugins.h"

#include "src/common/hash.h"

namespace proteus {

namespace {

Status CheckFlatPath(const FieldPath& path, const char* fmt) {
  if (path.size() != 1) {
    return Status::InvalidArgument(std::string(fmt) + " stores flat records; bad path " +
                                   DottedPath(path));
  }
  return Status::OK();
}

/// Distributes whole `block`-row blocks evenly over the morsels (the final
/// morsel absorbs the partial tail block), so no two morsels share a
/// partially-covered block of the fixed-width layout and no morsel is empty
/// while blocks remain.
std::vector<ScanRange> BlockAlignedSplit(uint64_t n, uint64_t max_morsels, uint64_t block) {
  const uint64_t blocks = n == 0 ? 1 : (n + block - 1) / block;
  // EvenSplit over whole blocks, scaled back to rows (the final morsel's
  // partial tail block clamps to n) — one home for the split arithmetic.
  std::vector<ScanRange> out = EvenSplit(blocks, max_morsels);
  for (auto& r : out) {
    r.begin = std::min(n, r.begin * block);
    r.end = std::min(n, r.end * block);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// BinColPlugin
// ---------------------------------------------------------------------------

Status BinColPlugin::Open() {
  if (reader_) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(BinColReader r, BinColReader::Open(info_.path));
  reader_ = std::move(r);
  return Status::OK();
}

Result<Value> BinColPlugin::ReadValue(uint64_t oid, const FieldPath& path) {
  PROTEUS_RETURN_NOT_OK(CheckFlatPath(path, "bincol"));
  int j = reader_->ColumnIndex(path[0]);
  if (j < 0) return Status::NotFound("bincol has no column '" + path[0] + "'");
  auto col = static_cast<uint32_t>(j);
  switch (reader_->col_type(col)) {
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return Value::Int(reader_->ReadInt(oid, col));
    case TypeKind::kFloat64:
      return Value::Float(reader_->ReadFloat(oid, col));
    case TypeKind::kBool:
      return Value::Boolean(reader_->ReadBool(oid, col));
    case TypeKind::kString:
      return Value::Str(std::string(reader_->ReadString(oid, col)));
    default:
      return Status::Internal("unexpected bincol type");
  }
}

uint64_t BinColPlugin::LayoutFingerprint() const {
  uint64_t h = InputPlugin::LayoutFingerprint();
  for (uint32_t j = 0; reader_ && j < reader_->num_cols(); ++j) {
    h = HashCombine(h, HashString(reader_->col_name(j)));
    h = HashCombine(h, static_cast<uint64_t>(reader_->col_type(j)));
  }
  return h;
}

Status BinColPlugin::CollectStats(StatsStore* store) {
  PROTEUS_RETURN_NOT_OK(Open());
  DatasetStats ds;
  ds.cardinality = reader_->num_rows();
  for (uint32_t j = 0; j < reader_->num_cols(); ++j) {
    TypeKind k = reader_->col_type(j);
    if (k != TypeKind::kInt64 && k != TypeKind::kDate && k != TypeKind::kFloat64) continue;
    ColumnStats& cs = ds.columns[reader_->col_name(j)];
    uint64_t n = reader_->num_rows();
    if (n == 0) continue;
    double mn = 0, mx = 0;
    NdvSketch sketch;
    if (k == TypeKind::kFloat64) {
      const double* col = reader_->FloatColumn(j);
      mn = mx = col[0];
      sketch.Add(Value::Float(col[0]).Hash());
      for (uint64_t i = 1; i < n; ++i) {
        if (col[i] < mn) mn = col[i];
        if (col[i] > mx) mx = col[i];
        sketch.Add(Value::Float(col[i]).Hash());
      }
    } else {
      const int64_t* col = reader_->IntColumn(j);
      mn = mx = static_cast<double>(col[0]);
      sketch.Add(Value::Int(col[0]).Hash());
      for (uint64_t i = 1; i < n; ++i) {
        double d = static_cast<double>(col[i]);
        if (d < mn) mn = d;
        if (d > mx) mx = d;
        sketch.Add(Value::Int(col[i]).Hash());
      }
    }
    cs.min = mn;
    cs.max = mx;
    cs.ndv = sketch.Estimate();
    cs.valid = true;
  }
  ds.valid = true;
  store->Publish(info_.name, std::move(ds));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// BinRowPlugin
// ---------------------------------------------------------------------------

Status BinRowPlugin::Open() {
  if (reader_) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(BinRowReader r, BinRowReader::Open(info_.path));
  reader_ = std::move(r);
  return Status::OK();
}

Result<Value> BinRowPlugin::ReadValue(uint64_t oid, const FieldPath& path) {
  PROTEUS_RETURN_NOT_OK(CheckFlatPath(path, "binrow"));
  int j = reader_->ColumnIndex(path[0]);
  if (j < 0) return Status::NotFound("binrow has no column '" + path[0] + "'");
  auto col = static_cast<uint32_t>(j);
  switch (reader_->col_types()[col]) {
    case binrow::kTypeInt64:
    case binrow::kTypeDate:
      return Value::Int(reader_->ReadInt(oid, col));
    case binrow::kTypeFloat64:
      return Value::Float(reader_->ReadFloat(oid, col));
    case binrow::kTypeBool:
      return Value::Boolean(reader_->ReadBool(oid, col));
    case binrow::kTypeString:
      return Value::Str(std::string(reader_->ReadString(oid, col)));
    default:
      return Status::Internal("unexpected binrow type code");
  }
}

uint64_t BinRowPlugin::LayoutFingerprint() const {
  uint64_t h = InputPlugin::LayoutFingerprint();
  if (!reader_) return h;
  for (uint32_t j = 0; j < reader_->num_cols(); ++j) {
    h = HashCombine(h, HashString(reader_->col_names()[j]));
    h = HashCombine(h, reader_->col_types()[j]);
  }
  return HashCombine(h, reader_->row_width());
}

std::vector<ScanRange> BinColPlugin::Split(uint64_t max_morsels) const {
  return BlockAlignedSplit(NumRecords(), max_morsels, 1024);
}

std::vector<ScanRange> BinRowPlugin::Split(uint64_t max_morsels) const {
  return BlockAlignedSplit(NumRecords(), max_morsels, 1024);
}

}  // namespace proteus
