#include "src/plugins/plugin.h"

#include <algorithm>
#include <sstream>

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

Result<InputPlugin*> PluginRegistry::GetOrOpen(const DatasetInfo& info, StatsStore* stats) {
  MutexLock lk(mu_);
  auto it = open_.find(info.name);
  if (it != open_.end()) return it->second.get();
  PROTEUS_ASSIGN_OR_RETURN(std::unique_ptr<InputPlugin> plugin, CreateInputPlugin(info));
  PROTEUS_RETURN_NOT_OK(plugin->Open());
  // Cold access: gather statistics while I/O is warm (paper §5.2).
  if (stats != nullptr && stats->Find(info.name) == nullptr) {
    PROTEUS_RETURN_NOT_OK(plugin->CollectStats(stats));
  }
  InputPlugin* raw = plugin.get();
  open_.emplace(info.name, std::move(plugin));
  return raw;
}

void PluginRegistry::Evict(const std::string& dataset) {
  MutexLock lk(mu_);
  open_.erase(dataset);
}

}  // namespace proteus
