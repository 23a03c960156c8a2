#include "src/plugins/csv_plugin.h"

#include <charconv>
#include <cstring>

#include "src/common/counters.h"

namespace proteus {

Status CsvPlugin::Open() {
  if (opened_) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(file_, MmapFile::Open(info_.path));
  for (const auto& f : info_.record_type().fields()) {
    if (!f.type->is_primitive()) {
      return Status::InvalidArgument("CSV dataset '" + info_.name +
                                     "' must have a flat schema; field '" + f.name +
                                     "' is " + f.type->ToString());
    }
    col_names_.push_back(f.name);
    col_types_.push_back(f.type->kind());
  }
  stride_ = info_.csv.index_stride > 0 ? info_.csv.index_stride : 10;
  PROTEUS_RETURN_NOT_OK(BuildIndex());
  opened_ = true;
  return Status::OK();
}

Status CsvPlugin::BuildIndex() {
  const char* base = file_.data();
  const char* end = base + file_.size();
  const char delim = info_.csv.delimiter;
  const uint32_t ncols = static_cast<uint32_t>(col_names_.size());
  samples_per_row_ = (ncols + stride_ - 1) / static_cast<uint32_t>(stride_);

  const char* p = base;
  if (info_.csv.has_header) {
    while (p < end && *p != '\n') ++p;
    if (p < end) ++p;
  }

  bool maybe_fixed = true;
  uint64_t first_width = 0;
  std::vector<uint16_t> first_offsets;

  while (p < end) {
    uint64_t row_start = static_cast<uint64_t>(p - base);
    row_offsets_.push_back(row_start);
    const char* q = p;
    std::vector<uint16_t> offsets_this_row;
    offsets_this_row.reserve(ncols);
    offsets_this_row.push_back(0);
    while (p < end && *p != '\n') {
      if (*p == delim) {
        uint64_t rel = static_cast<uint64_t>(p + 1 - q);
        if (rel > 0xFFFF) {
          return Status::ParseError("CSV row longer than 64KB at offset " +
                                    std::to_string(row_start));
        }
        offsets_this_row.push_back(static_cast<uint16_t>(rel));
      }
      ++p;
    }
    const char* line_end = p;
    if (offsets_this_row.size() != ncols) {
      return Status::ParseError("CSV row " + std::to_string(row_offsets_.size() - 1) +
                                " has " + std::to_string(offsets_this_row.size()) +
                                " fields, schema expects " + std::to_string(ncols));
    }
    for (uint32_t s = 0; s < samples_per_row_; ++s) {
      samples_.push_back(offsets_this_row[s * static_cast<uint32_t>(stride_)]);
    }

    uint64_t width = static_cast<uint64_t>(line_end - q) + 1;  // + newline
    if (row_offsets_.size() == 1) {
      first_width = width;
      first_offsets = offsets_this_row;
    } else if (maybe_fixed && (width != first_width || offsets_this_row != first_offsets)) {
      maybe_fixed = false;
    }
    if (p < end) ++p;  // skip newline
  }
  num_rows_ = row_offsets_.size();
  row_offsets_.push_back(static_cast<uint64_t>(end - base));
  row_offsets_.shrink_to_fit();
  samples_.shrink_to_fit();

  if (maybe_fixed && num_rows_ > 0) {
    // Specialize per dataset contents: deterministic positions, no samples.
    fixed_width_ = true;
    fixed_row_width_ = first_width;
    first_row_offset_ = row_offsets_[0];
    fixed_field_off_ = first_offsets;
    samples_.clear();
    samples_.shrink_to_fit();
    row_offsets_.clear();
    row_offsets_.shrink_to_fit();
  }
  return Status::OK();
}

size_t CsvPlugin::StructuralIndexBytes() const {
  return row_offsets_.capacity() * sizeof(uint64_t) + samples_.capacity() * sizeof(uint16_t) +
         fixed_field_off_.capacity() * sizeof(uint16_t);
}

std::vector<ScanRange> CsvPlugin::Split(uint64_t max_morsels) const {
  if (fixed_width_) return InputPlugin::Split(max_morsels);  // rows equal by construction
  return SplitByByteOffsets(row_offsets_, num_rows_, row_offsets_.back(), max_morsels);
}

int CsvPlugin::ColumnIndex(const std::string& name) const {
  for (size_t j = 0; j < col_names_.size(); ++j) {
    if (col_names_[j] == name) return static_cast<int>(j);
  }
  return -1;
}

namespace {

/// End of the field starting at `p`: its delimiter, or `row_end`.
const char* FieldEnd(const char* p, const char* row_end, char delim) {
  const void* d = std::memchr(p, delim, static_cast<size_t>(row_end - p));
  return d != nullptr ? static_cast<const char*>(d) : row_end;
}

}  // namespace

void CsvPlugin::LocateFields(uint64_t oid, const int64_t* cols, size_t n, std::string_view* out,
                             RowCursor* cursor) const {
  const char* base = file_.data();
  const char delim = info_.csv.delimiter;
  if (fixed_width_) {
    // Every delimiter sits at the same offset in every row.
    const char* row = base + first_row_offset_ + oid * fixed_row_width_;
    const char* row_end = row + fixed_row_width_ - 1;
    for (size_t i = 0; i < n; ++i) {
      const auto c = static_cast<size_t>(cols[i]);
      const char* field = row + fixed_field_off_[c];
      const char* fe =
          c + 1 < fixed_field_off_.size() ? row + fixed_field_off_[c + 1] - 1 : row_end;
      out[i] = {field, static_cast<size_t>(fe - field)};
    }
    return;
  }
  const char* row = base + row_offsets_[oid];
  const char* row_end = base + row_offsets_[oid + 1];
  if (row_end > row && row_end[-1] == '\n') --row_end;
  const uint16_t* samples = samples_.data() + oid * samples_per_row_;
  const auto stride = static_cast<uint32_t>(stride_);
  int64_t col = cursor->col;
  const char* p = cursor->pos;
  for (size_t i = 0; i < n; ++i) {
    const int64_t c = cols[i];
    // Closest start at or before `c`: the cursor, or the field's sample.
    const uint32_t sample = static_cast<uint32_t>(c) / stride;
    const int64_t sample_col = sample * stride;
    if (col < 0 || col > c || col < sample_col) {
      p = row + samples[sample];
      col = sample_col;
    }
    const char* fe = FieldEnd(p, row_end, delim);
    for (; col < c && fe < row_end; ++col) {
      p = fe + 1;
      fe = FieldEnd(p, row_end, delim);
    }
    if (col < c) p = fe;  // past the row's last field: empty
    out[i] = {p, static_cast<size_t>(fe - p)};
    if (fe < row_end) {  // the last field keeps the cursor at its own start
      p = fe + 1;
      col = c + 1;
    }
  }
  cursor->col = col;
  cursor->pos = p;
}

Result<Value> CsvPlugin::ReadValue(uint64_t oid, const FieldPath& path) {
  if (path.size() != 1) {
    return Status::InvalidArgument("CSV is flat; bad path " + DottedPath(path));
  }
  int j = ColumnIndex(path[0]);
  if (j < 0) return Status::NotFound("CSV has no column '" + path[0] + "'");
  GlobalCounters().raw_field_accesses++;
  const int64_t col = j;
  RowCursor cursor;
  std::string_view text;
  LocateFields(oid, &col, 1, &text, &cursor);
  if (text.empty()) return Value::Null();
  switch (col_types_[j]) {
    case TypeKind::kInt64:
    case TypeKind::kDate: {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::ParseError("bad int '" + std::string(text) + "' in " + info_.name);
      }
      return Value::Int(v);
    }
    case TypeKind::kFloat64: {
      double v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::ParseError("bad float '" + std::string(text) + "' in " + info_.name);
      }
      return Value::Float(v);
    }
    case TypeKind::kBool:
      return Value::Boolean(text == "true" || text == "1");
    case TypeKind::kString:
      return Value::Str(std::string(text));
    default:
      return Status::Internal("unexpected CSV column type");
  }
}

}  // namespace proteus
