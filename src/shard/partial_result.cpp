#include "src/shard/partial_result.h"

#include "src/common/wire.h"

namespace proteus {

namespace {
constexpr char kMagic0 = 'P';
constexpr char kMagic1 = 'S';
constexpr uint8_t kVersion = 2;
}  // namespace

PartialResult PartialResult::FromPartials(PlanPartials p) {
  PartialResult r;
  r.kind = p.nest ? Kind::kGroups : Kind::kAggregates;
  r.partials = std::move(p);
  return r;
}

PartialResult PartialResult::FromRows(QueryResult rows) {
  PartialResult r;
  r.kind = Kind::kRows;
  r.rows = std::move(rows);
  return r;
}

std::string PartialResult::Serialize() const {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(kMagic0));
  w.PutU8(static_cast<uint8_t>(kMagic1));
  w.PutU8(kVersion);
  w.PutU8(static_cast<uint8_t>(kind));
  switch (kind) {
    case Kind::kAggregates:
      w.PutU64(partials.agg_morsels.size());
      for (const auto& aggs : partials.agg_morsels) {
        w.PutU64(aggs.size());
        for (const Aggregator& a : aggs) a.Serialize(&w);
      }
      break;
    case Kind::kGroups:
      w.PutU64(partials.group_morsels.size());
      for (const GroupTable& t : partials.group_morsels) t.Serialize(&w);
      break;
    case Kind::kRows:
      w.PutU64(rows.columns.size());
      for (const auto& c : rows.columns) w.PutStr(c);
      w.PutU64(rows.rows.size());
      for (const auto& row : rows.rows) {
        w.PutU64(row.size());
        for (const Value& v : row) w.PutValue(v);
      }
      break;
  }
  return w.Take();
}

Result<PartialResult> PartialResult::Deserialize(std::string_view bytes) {
  WireReader r(bytes);
  PROTEUS_ASSIGN_OR_RETURN(uint8_t m0, r.U8());
  PROTEUS_ASSIGN_OR_RETURN(uint8_t m1, r.U8());
  if (m0 != static_cast<uint8_t>(kMagic0) || m1 != static_cast<uint8_t>(kMagic1)) {
    return Status::InvalidArgument("PartialResult: bad magic");
  }
  PROTEUS_ASSIGN_OR_RETURN(uint8_t version, r.U8());
  if (version != kVersion) {
    return Status::InvalidArgument("PartialResult: unsupported version " +
                                   std::to_string(version));
  }
  PROTEUS_ASSIGN_OR_RETURN(uint8_t kind_byte, r.U8());
  PartialResult out;
  switch (kind_byte) {
    case static_cast<uint8_t>(Kind::kAggregates): {
      out.kind = Kind::kAggregates;
      out.partials.nest = false;
      PROTEUS_ASSIGN_OR_RETURN(uint64_t morsels, r.U64());
      if (morsels > r.remaining()) {
        return Status::InvalidArgument("PartialResult: bad morsel count");
      }
      out.partials.agg_morsels.reserve(morsels);
      for (uint64_t m = 0; m < morsels; ++m) {
        PROTEUS_ASSIGN_OR_RETURN(uint64_t n, r.U64());
        if (n > r.remaining()) {
          return Status::InvalidArgument("PartialResult: bad aggregate count");
        }
        std::vector<Aggregator> aggs;
        aggs.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          PROTEUS_ASSIGN_OR_RETURN(Aggregator a, Aggregator::Deserialize(&r));
          aggs.push_back(std::move(a));
        }
        out.partials.agg_morsels.push_back(std::move(aggs));
      }
      break;
    }
    case static_cast<uint8_t>(Kind::kGroups): {
      out.kind = Kind::kGroups;
      out.partials.nest = true;
      PROTEUS_ASSIGN_OR_RETURN(uint64_t morsels, r.U64());
      if (morsels > r.remaining()) {
        return Status::InvalidArgument("PartialResult: bad morsel count");
      }
      out.partials.group_morsels.reserve(morsels);
      for (uint64_t m = 0; m < morsels; ++m) {
        PROTEUS_ASSIGN_OR_RETURN(GroupTable t, GroupTable::Deserialize(&r));
        out.partials.group_morsels.push_back(std::move(t));
      }
      break;
    }
    case static_cast<uint8_t>(Kind::kRows): {
      out.kind = Kind::kRows;
      PROTEUS_ASSIGN_OR_RETURN(uint64_t cols, r.U64());
      if (cols > r.remaining()) return Status::InvalidArgument("PartialResult: bad column count");
      out.rows.columns.reserve(cols);
      for (uint64_t c = 0; c < cols; ++c) {
        PROTEUS_ASSIGN_OR_RETURN(std::string name, r.Str());
        out.rows.columns.push_back(std::move(name));
      }
      PROTEUS_ASSIGN_OR_RETURN(uint64_t nrows, r.U64());
      if (nrows > r.remaining()) return Status::InvalidArgument("PartialResult: bad row count");
      out.rows.rows.reserve(nrows);
      for (uint64_t i = 0; i < nrows; ++i) {
        PROTEUS_ASSIGN_OR_RETURN(uint64_t cells, r.U64());
        if (cells > r.remaining()) {
          return Status::InvalidArgument("PartialResult: bad cell count");
        }
        std::vector<Value> row;
        row.reserve(cells);
        for (uint64_t c = 0; c < cells; ++c) {
          PROTEUS_ASSIGN_OR_RETURN(Value v, r.ReadValue());
          row.push_back(std::move(v));
        }
        out.rows.rows.push_back(std::move(row));
      }
      break;
    }
    default:
      return Status::InvalidArgument("PartialResult: unknown kind " +
                                     std::to_string(kind_byte));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("PartialResult: trailing bytes");
  return out;
}

}  // namespace proteus
