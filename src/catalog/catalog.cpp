#include "src/catalog/catalog.h"

#include <algorithm>

namespace proteus {

const char* DataFormatName(DataFormat f) {
  switch (f) {
    case DataFormat::kCSV: return "csv";
    case DataFormat::kJSON: return "json";
    case DataFormat::kBinaryRow: return "binrow";
    case DataFormat::kBinaryColumn: return "bincol";
    case DataFormat::kCacheBlock: return "cache";
  }
  return "?";
}

Status Catalog::Register(DatasetInfo info) {
  if (info.name.empty()) return Status::InvalidArgument("dataset name is empty");
  if (!info.type || info.type->kind() != TypeKind::kCollection ||
      info.type->elem()->kind() != TypeKind::kRecord) {
    return Status::InvalidArgument("dataset '" + info.name +
                                   "' type must be a collection of records");
  }
  MutexLock lk(mu_);
  if (datasets_.count(info.name)) {
    return Status::AlreadyExists("dataset '" + info.name + "' already registered");
  }
  datasets_.emplace(info.name, std::move(info));
  return Status::OK();
}

Result<const DatasetInfo*> Catalog::Get(const std::string& name) const {
  MutexLock lk(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) return Status::NotFound("unknown dataset '" + name + "'");
  // Map nodes are never erased, so the pointer outlives the lock.
  return &it->second;
}

std::vector<std::string> Catalog::ListDatasets() const {
  std::vector<std::string> names;
  MutexLock lk(mu_);
  names.reserve(datasets_.size());
  for (const auto& [k, v] : datasets_) names.push_back(k);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace proteus
