#include "src/plugins/plugin.h"

#include <algorithm>
#include <sstream>

#include "src/common/hash.h"
#include "src/obs/trace.h"

namespace proteus {

std::string DottedPath(const FieldPath& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i) out += '.';
    out += path[i];
  }
  return out;
}

FieldPath SplitPath(const std::string& dotted) {
  FieldPath out;
  std::string cur;
  for (char c : dotted) {
    if (c == '.') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

namespace {

/// The record of `paths` below `depth`: paths sharing their name at `depth`
/// nest into one sub-record, in first-request order.
Result<Value> AssembleLevel(const std::vector<const FieldPath*>& paths, size_t depth,
                            const LeafReader& read) {
  std::vector<std::string> names;
  std::vector<Value> values;
  for (size_t i = 0; i < paths.size(); ++i) {
    const std::string& name = (*paths[i])[depth];
    if (std::find(names.begin(), names.end(), name) != names.end()) continue;
    const FieldPath* whole = nullptr;
    std::vector<const FieldPath*> under;
    for (size_t j = i; j < paths.size(); ++j) {
      const FieldPath& p = *paths[j];
      if (p[depth] != name) continue;
      if (p.size() == depth + 1) {
        whole = &p;
      } else {
        under.push_back(&p);
      }
    }
    Value v;
    if (whole != nullptr) {
      auto leaf = read(*whole);
      if (leaf.ok()) {
        v = std::move(*leaf);
      } else if (leaf.status().code() == StatusCode::kNotFound) {
        v = Value::Null();
      } else {
        return leaf.status();
      }
    } else {
      PROTEUS_ASSIGN_OR_RETURN(v, AssembleLevel(under, depth + 1, read));
    }
    names.push_back(name);
    values.push_back(std::move(v));
  }
  return Value::MakeRecord(std::move(names), std::move(values));
}

}  // namespace

Result<Value> AssembleRecord(const std::vector<FieldPath>& fields, const LeafReader& read) {
  std::vector<const FieldPath*> paths;
  paths.reserve(fields.size());
  for (const auto& p : fields) {
    if (!p.empty()) paths.push_back(&p);
  }
  return AssembleLevel(paths, 0, read);
}

Result<Value> InputPlugin::ReadRecord(uint64_t oid, const std::vector<FieldPath>& fields) {
  return AssembleRecord(fields, [&](const FieldPath& p) { return ReadValue(oid, p); });
}

Result<std::unique_ptr<UnnestCursor>> InputPlugin::UnnestInit(uint64_t oid,
                                                              const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, path));
  if (v.is_null()) {
    return std::unique_ptr<UnnestCursor>(new ValueListUnnestCursor({}));
  }
  if (!v.is_list()) {
    return Status::TypeError("unnest path " + DottedPath(path) + " is not a collection");
  }
  return std::unique_ptr<UnnestCursor>(new ValueListUnnestCursor(v.list()));
}

Result<uint64_t> InputPlugin::HashValue(uint64_t oid, const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, path));
  return v.Hash();
}

Status InputPlugin::FlushValue(uint64_t oid, const FieldPath& path, std::string* out) {
  PROTEUS_ASSIGN_OR_RETURN(Value v, ReadValue(oid, path));
  out->append(v.ToString());
  return Status::OK();
}

namespace {

/// Recursively enumerates numeric leaf paths of a record type, skipping
/// collection contents (array stats are the unnest operator's concern).
void NumericLeafPaths(const Type& rec, FieldPath* prefix, std::vector<FieldPath>* out) {
  for (const auto& f : rec.fields()) {
    prefix->push_back(f.name);
    if (f.type->is_numeric()) {
      out->push_back(*prefix);
    } else if (f.type->kind() == TypeKind::kRecord) {
      NumericLeafPaths(*f.type, prefix, out);
    }
    prefix->pop_back();
  }
}

}  // namespace

uint64_t TypedCell::Hash() const {
  switch (kind) {
    case Kind::kNull: return Value::Null().Hash();
    case Kind::kInt: return Value::HashInt(i);
    case Kind::kFloat: return Value::HashFloat(f);
    case Kind::kBool: return Value::Boolean(i != 0).Hash();
    case Kind::kString: return HashString(s);
  }
  return 0;
}

Status InputPlugin::ReadColumns(const std::vector<FieldPath>& paths, ScanRange range,
                                const TypedRowSink& sink) {
  std::vector<TypedCell> cells(paths.size());
  std::vector<Value> values(paths.size());  // keeps string cells' bytes alive
  for (uint64_t oid = range.begin; oid < range.end; ++oid) {
    for (size_t c = 0; c < paths.size(); ++c) {
      TypedCell& cell = cells[c];
      cell = TypedCell{};
      auto v = ReadValue(oid, paths[c]);
      if (!v.ok()) {
        if (v.status().code() == StatusCode::kNotFound) continue;
        return v.status();
      }
      values[c] = std::move(*v);
      const Value& val = values[c];
      if (val.is_int()) {
        cell.kind = TypedCell::Kind::kInt;
        cell.i = val.i();
      } else if (val.is_float()) {
        cell.kind = TypedCell::Kind::kFloat;
        cell.f = val.f();
      } else if (val.is_bool()) {
        cell.kind = TypedCell::Kind::kBool;
        cell.i = val.b() ? 1 : 0;
      } else if (val.is_string()) {
        cell.kind = TypedCell::Kind::kString;
        cell.s = val.s();
      } else if (!val.is_null()) {
        return Status::TypeError("field " + DottedPath(paths[c]) + " is not a primitive leaf");
      }
    }
    sink(oid, cells.data());
  }
  return Status::OK();
}

Status InputPlugin::CollectStats(StatsStore* store) {
  PROTEUS_RETURN_NOT_OK(Open());
  // Build locally, publish atomically: a concurrent query's optimizer must
  // never observe a half-filled DatasetStats.
  DatasetStats ds;
  ds.cardinality = NumRecords();
  std::vector<FieldPath> paths;
  FieldPath prefix;
  NumericLeafPaths(info().record_type(), &prefix, &paths);
  for (const auto& p : paths) {
    ColumnStats& cs = ds.columns[DottedPath(p)];
    cs.valid = false;
    bool first = true;
    NdvSketch sketch;
    for (uint64_t oid = 0; oid < NumRecords(); ++oid) {
      auto v = ReadValue(oid, p);
      if (!v.ok()) {
        // Optional JSON fields: an absent leaf is a null, not an error —
        // the same leniency the scan cursors apply.
        if (v.status().code() == StatusCode::kNotFound) continue;
        return v.status();
      }
      if (v->is_null()) continue;
      double d = v->AsFloat();
      if (first || d < cs.min) cs.min = d;
      if (first || d > cs.max) cs.max = d;
      first = false;
      sketch.Add(v->Hash());
    }
    cs.valid = !first;
    cs.ndv = sketch.Estimate();
  }
  ds.valid = true;
  store->Publish(info().name, std::move(ds));
  return Status::OK();
}

Status CollectStatsByColumns(InputPlugin* plugin, StatsStore* store) {
  PROTEUS_RETURN_NOT_OK(plugin->Open());
  std::vector<FieldPath> paths;
  FieldPath prefix;
  NumericLeafPaths(plugin->info().record_type(), &prefix, &paths);
  struct Acc {
    bool seen = false;
    double min = 0;
    double max = 0;
    NdvSketch sketch;
  };
  std::vector<Acc> acc(paths.size());
  PROTEUS_RETURN_NOT_OK(plugin->ReadColumns(
      paths, {0, plugin->NumRecords()}, [&](uint64_t, const TypedCell* cells) {
        for (size_t c = 0; c < acc.size(); ++c) {
          const TypedCell& cell = cells[c];
          if (cell.kind == TypedCell::Kind::kNull) continue;
          Acc& a = acc[c];
          const double d = cell.AsFloat();
          if (!a.seen || d < a.min) a.min = d;
          if (!a.seen || d > a.max) a.max = d;
          a.seen = true;
          a.sketch.Add(cell.Hash());
        }
      }));
  DatasetStats ds;
  ds.cardinality = plugin->NumRecords();
  for (size_t c = 0; c < paths.size(); ++c) {
    ColumnStats& cs = ds.columns[DottedPath(paths[c])];
    cs.valid = acc[c].seen;
    cs.min = acc[c].min;
    cs.max = acc[c].max;
    cs.ndv = acc[c].sketch.Estimate();
  }
  ds.valid = true;
  store->Publish(plugin->info().name, std::move(ds));
  return Status::OK();
}

std::vector<ScanRange> EvenSplit(uint64_t n, uint64_t max_morsels) {
  if (max_morsels == 0) max_morsels = 1;
  const uint64_t morsels = std::min<uint64_t>(max_morsels, n == 0 ? 1 : n);
  std::vector<ScanRange> out;
  out.reserve(morsels);
  uint64_t begin = 0;
  for (uint64_t m = 0; m < morsels; ++m) {
    // Even split with the remainder spread over the first ranges.
    uint64_t end = begin + n / morsels + (m < n % morsels ? 1 : 0);
    out.push_back({begin, end});
    begin = end;
  }
  return out;
}

std::vector<ScanRange> InputPlugin::Split(uint64_t max_morsels) const {
  return EvenSplit(NumRecords(), max_morsels);
}

std::vector<ScanRange> SplitByByteOffsets(const std::vector<uint64_t>& starts, uint64_t n,
                                          uint64_t end_byte, uint64_t max_morsels) {
  std::vector<ScanRange> out;
  if (n == 0 || max_morsels == 0) {
    out.push_back({0, n});
    return out;
  }
  const uint64_t total = end_byte - starts[0];
  const uint64_t target = std::max<uint64_t>(1, total / std::min(max_morsels, n));
  uint64_t begin = 0;
  uint64_t cut_bytes = starts[0] + target;
  for (uint64_t i = 1; i < n; ++i) {
    if (starts[i] >= cut_bytes && out.size() + 1 < max_morsels) {
      out.push_back({begin, i});
      begin = i;
      cut_bytes = starts[i] + target;
    }
  }
  out.push_back({begin, n});
  return out;
}

uint64_t InputPlugin::LayoutFingerprint() const {
  const DatasetInfo& i = info();
  uint64_t h = HashString(DataFormatName(i.format));
  h = HashCombine(h, HashString(i.type->ToString()));
  if (i.format == DataFormat::kCSV) {
    h = HashCombine(h, static_cast<uint64_t>(static_cast<unsigned char>(i.csv.delimiter)));
    h = HashCombine(h, i.csv.has_header ? 1 : 0);
  }
  return h;
}

Result<InputPlugin*> PluginRegistry::GetOrOpen(const DatasetInfo& info, StatsStore* stats) {
  bool layout_changed = false;
  InputPlugin* raw = nullptr;
  {
    MutexLock lk(mu_);
    auto it = open_.find(info.name);
    if (it != open_.end()) return it->second.get();
    PROTEUS_ASSIGN_OR_RETURN(std::unique_ptr<InputPlugin> plugin, CreateInputPlugin(info));
    {
      OBS_SPAN(trace_, "plugin_open");
      PROTEUS_RETURN_NOT_OK(plugin->Open());
    }
    // Cold access: gather statistics while I/O is warm (paper §5.2).
    if (stats != nullptr && stats->Find(info.name) == nullptr) {
      OBS_SPAN(trace_, "collect_stats");
      PROTEUS_RETURN_NOT_OK(plugin->CollectStats(stats));
    }
    const uint64_t layout = plugin->LayoutFingerprint();
    const auto [prev, first] = layouts_.emplace(info.name, layout);
    if (!first && prev->second != layout) {
      prev->second = layout;
      layout_changed = true;
    }
    raw = plugin.get();
    open_.emplace(info.name, std::move(plugin));
  }
  if (layout_changed && on_layout_change_) on_layout_change_(info.name);
  return raw;
}

Result<uint64_t> PluginRegistry::Layout(const DatasetInfo& info, StatsStore* stats) {
  PROTEUS_RETURN_NOT_OK(GetOrOpen(info, stats).status());
  MutexLock lk(mu_);
  return layouts_.at(info.name);
}

void PluginRegistry::Evict(const std::string& dataset) {
  MutexLock lk(mu_);
  open_.erase(dataset);
}

}  // namespace proteus
