#include "src/engine/partial_sink.h"

#include <algorithm>
#include <cstring>

#include "src/common/counters.h"
#include "src/common/hash.h"
#include "src/obs/trace.h"

namespace proteus {

namespace {

double AsDouble(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

int64_t AsBits(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof(d));
  return bits;
}

/// Two's-complement add: an int sum that overflows wraps, as generated code
/// does, instead of being undefined.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}

/// Numeric keys hash by their double value (-0.0 folded into 0.0), so keys
/// Value::Equals calls equal — 0.0 and -0.0, Int(2) and Float(2.0) — hash
/// alike. Distinct ints beyond 2^53 may share a hash; KeyEquals tells them
/// apart.
uint64_t NumericHash(double d) {
  if (d == 0) d = 0.0;
  return HashMix64(static_cast<uint64_t>(AsBits(d)));
}

uint64_t KeyHash(GroupKeyTag tag, int64_t bits, const char* str, size_t len) {
  switch (tag) {
    case GroupKeyTag::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case GroupKeyTag::kInt:
      return NumericHash(static_cast<double>(bits));
    case GroupKeyTag::kFloat:
      return NumericHash(AsDouble(bits));
    case GroupKeyTag::kBool:
      return HashMix64(bits != 0 ? 0x51ed270b : 0x27d4eb2f);
    case GroupKeyTag::kString:
      return HashBytes(str, len);
  }
  return 0;
}

bool IsNumericKey(GroupKeyTag tag) {
  return tag == GroupKeyTag::kInt || tag == GroupKeyTag::kFloat;
}

double NumericKey(GroupKeyTag tag, int64_t bits) {
  return tag == GroupKeyTag::kInt ? static_cast<double>(bits) : AsDouble(bits);
}

GroupSlot SlotFor(const AggOutput& o) {
  if (o.monoid == Monoid::kCount) return GroupSlot::kInt;
  if (IsCollectionMonoid(o.monoid) || o.expr == nullptr || o.expr->type() == nullptr) {
    return GroupSlot::kAggregator;
  }
  const TypeKind k = o.expr->type()->kind();
  const bool integral = k == TypeKind::kInt64 || k == TypeKind::kDate;
  switch (o.monoid) {
    case Monoid::kSum:
      if (k == TypeKind::kFloat64) return GroupSlot::kFloat;
      if (integral || k == TypeKind::kBool) return GroupSlot::kInt;
      break;
    case Monoid::kMax:
    case Monoid::kMin:
      if (k == TypeKind::kFloat64) return GroupSlot::kFloat;
      if (integral) return GroupSlot::kInt;
      if (k == TypeKind::kBool) return GroupSlot::kBool;
      break;
    case Monoid::kAnd:
    case Monoid::kOr:
      if (k == TypeKind::kBool) return GroupSlot::kBool;
      break;
    default:
      break;
  }
  return GroupSlot::kAggregator;
}

const char* SlotName(GroupSlot s) {
  switch (s) {
    case GroupSlot::kInt: return "int";
    case GroupSlot::kFloat: return "float";
    case GroupSlot::kBool: return "bool";
    case GroupSlot::kAggregator: return "aggregator";
  }
  return "?";
}

bool IsExtreme(Monoid m) { return m == Monoid::kMax || m == Monoid::kMin; }

/// Folds `x` into an int or bool slot (bools are 0/1 and order false < true).
void FoldIntegral(Monoid m, int64_t* slot, uint8_t* seen, int64_t x) {
  switch (m) {
    case Monoid::kSum: *slot = WrapAdd(*slot, x); break;
    case Monoid::kMax: if (!*seen || x > *slot) *slot = x; break;
    case Monoid::kMin: if (!*seen || x < *slot) *slot = x; break;
    case Monoid::kAnd: *slot &= x; break;
    case Monoid::kOr: *slot |= x; break;
    default: break;
  }
  *seen = 1;
}

/// Folds `x` into a float slot: sums start from 0.0 (the slot's zero bits)
/// and add in row order; max/min replace only on a strict ordered win, as
/// Value::Compare decides — the first NaN or tie stays.
void FoldFloat(Monoid m, int64_t* slot, uint8_t* seen, double x) {
  const double cur = AsDouble(*slot);
  switch (m) {
    case Monoid::kSum: *slot = AsBits(cur + x); break;
    case Monoid::kMax: if (!*seen || x > cur) *slot = AsBits(x); break;
    case Monoid::kMin: if (!*seen || x < cur) *slot = AsBits(x); break;
    default: break;
  }
  *seen = 1;
}

}  // namespace

GroupLayout GroupLayout::ForNest(const Operator& nest) {
  GroupLayout layout;
  layout.outputs.reserve(nest.outputs().size());
  for (const AggOutput& o : nest.outputs()) layout.outputs.push_back({o.monoid, SlotFor(o)});
  return layout;
}

std::string GroupLayout::ToString() const {
  std::string s = "[";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::string(MonoidName(outputs[i].monoid)) + ":" + SlotName(outputs[i].slot);
  }
  return s + "]";
}

GroupTable::GroupTable(GroupLayout layout) : layout_(std::move(layout)) {
  const size_t n = layout_.outputs.size();
  // At least one word, so distinct groups never share a row address.
  row_words_ = std::max<size_t>(1, n + (n + 7) / 8);
  init_row_.assign(row_words_, 0);
  agg_index_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (layout_.outputs[i].monoid == Monoid::kAnd) init_row_[i] = 1;
    if (layout_.outputs[i].slot == GroupSlot::kAggregator) {
      agg_index_[i] = static_cast<uint32_t>(num_aggs_++);
    }
  }
}

Status GroupTable::AddRow(const Operator& nest, const EvalEnv& row) {
  PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(nest.pred(), row));
  if (!pass) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(Value key, Eval(nest.group_by(), row));
  int64_t* slots;
  if (key.is_null()) {
    slots = Upsert(GroupKeyTag::kNull, 0, nullptr, 0);
  } else if (key.is_int()) {
    slots = Upsert(GroupKeyTag::kInt, key.i(), nullptr, 0);
  } else if (key.is_float()) {
    slots = Upsert(GroupKeyTag::kFloat, AsBits(key.f()), nullptr, 0);
  } else if (key.is_bool()) {
    slots = Upsert(GroupKeyTag::kBool, key.b() ? 1 : 0, nullptr, 0);
  } else if (key.is_string()) {
    slots = Upsert(GroupKeyTag::kString, 0, key.s().data(), key.s().size());
  } else {
    return Status::TypeError("group-by key must be a scalar, got " + key.ToString());
  }
  const size_t n = layout_.outputs.size();
  auto* seen = reinterpret_cast<uint8_t*>(slots + n);
  for (size_t i = 0; i < n; ++i) {
    const AggOutput& o = nest.outputs()[i];
    if (o.monoid == Monoid::kCount) {
      ++slots[i];
      continue;
    }
    PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(o.expr, row));
    if (v.is_null()) continue;  // nulls do not contribute to aggregates
    switch (layout_.outputs[i].slot) {
      case GroupSlot::kInt:
        if (!v.is_int() && !v.is_bool()) {
          return Status::TypeError("group output '" + o.name + "' is int-typed, got " +
                                   v.ToString());
        }
        FoldIntegral(o.monoid, &slots[i], &seen[i], v.is_int() ? v.i() : v.b());
        break;
      case GroupSlot::kFloat:
        if (!v.is_float() && !v.is_int()) {
          return Status::TypeError("group output '" + o.name + "' is float-typed, got " +
                                   v.ToString());
        }
        FoldFloat(o.monoid, &slots[i], &seen[i], v.AsFloat());
        break;
      case GroupSlot::kBool:
        if (!v.is_bool()) {
          return Status::TypeError("group output '" + o.name + "' is bool-typed, got " +
                                   v.ToString());
        }
        FoldIntegral(o.monoid, &slots[i], &seen[i], v.b() ? 1 : 0);
        break;
      case GroupSlot::kAggregator:
        AggregatorAt(GroupOf(slots), i).Add(v);
        break;
    }
  }
  return Status::OK();
}

int64_t* GroupTable::Upsert(GroupKeyTag tag, int64_t bits, const char* str, size_t len) {
  const uint64_t hash = KeyHash(tag, bits, str, len);
  if (2 * (size() + 1) > index_.size()) Grow();
  const size_t mask = index_.size() - 1;
  for (size_t b = hash & mask;; b = (b + 1) & mask) {
    if (index_[b] == 0) {
      const size_t g = Append(tag, bits, str, len, hash);
      index_[b] = static_cast<uint32_t>(g + 1);
      return SlotRow(g);
    }
    const size_t g = index_[b] - 1;
    if (key_hash_[g] == hash && KeyEquals(g, tag, bits, str, len)) return SlotRow(g);
  }
}

bool GroupTable::KeyEquals(size_t g, GroupKeyTag tag, int64_t bits, const char* str,
                           size_t len) const {
  const GroupKeyTag own = KeyTag(g);
  if (own != tag) {
    return IsNumericKey(own) && IsNumericKey(tag) &&
           NumericKey(own, key_bits_[g]) == NumericKey(tag, bits);
  }
  switch (tag) {
    case GroupKeyTag::kNull:
      return true;
    case GroupKeyTag::kInt:
    case GroupKeyTag::kBool:
      return key_bits_[g] == bits;
    case GroupKeyTag::kFloat:
      return AsDouble(key_bits_[g]) == AsDouble(bits);
    case GroupKeyTag::kString:
      return key_len_[g] == len &&
             (len == 0 || std::memcmp(key_bytes_.data() + key_bits_[g], str, len) == 0);
  }
  return false;
}

size_t GroupTable::Append(GroupKeyTag tag, int64_t bits, const char* str, size_t len,
                          uint64_t hash) {
  const size_t g = size();
  key_tag_.push_back(static_cast<uint8_t>(tag));
  if (tag == GroupKeyTag::kString) {
    key_bits_.push_back(static_cast<int64_t>(key_bytes_.size()));
    key_len_.push_back(static_cast<uint32_t>(len));
    key_bytes_.append(str, len);
  } else {
    key_bits_.push_back(tag == GroupKeyTag::kNull   ? 0
                        : tag == GroupKeyTag::kBool ? (bits != 0 ? 1 : 0)
                                                    : bits);
    key_len_.push_back(0);
  }
  key_hash_.push_back(hash);
  slots_.insert(slots_.end(), init_row_.begin(), init_row_.end());
  for (const GroupLayout::Output& o : layout_.outputs) {
    if (o.slot == GroupSlot::kAggregator) aggs_.emplace_back(o.monoid);
  }
  return g;
}

void GroupTable::Grow() {
  const size_t buckets = std::max<size_t>(16, index_.size() * 2);
  index_.assign(buckets, 0);
  const size_t mask = buckets - 1;
  for (size_t g = 0; g < size(); ++g) {
    size_t b = key_hash_[g] & mask;
    while (index_[b] != 0) b = (b + 1) & mask;
    index_[b] = static_cast<uint32_t>(g + 1);
  }
}

Value GroupTable::Key(size_t g) const {
  switch (KeyTag(g)) {
    case GroupKeyTag::kNull: return Value::Null();
    case GroupKeyTag::kInt: return Value::Int(key_bits_[g]);
    case GroupKeyTag::kFloat: return Value::Float(AsDouble(key_bits_[g]));
    case GroupKeyTag::kBool: return Value::Boolean(key_bits_[g] != 0);
    case GroupKeyTag::kString: return Value::Str(std::string(KeyString(g)));
  }
  return Value::Null();
}

Value GroupTable::Cell(size_t g, size_t output) const {
  const GroupLayout::Output& o = layout_.outputs[output];
  const int64_t* row = SlotRow(g);
  const bool seen = reinterpret_cast<const uint8_t*>(row + layout_.outputs.size())[output] != 0;
  switch (o.slot) {
    case GroupSlot::kInt:
      if (IsExtreme(o.monoid) && !seen) return Value::Null();
      return Value::Int(row[output]);
    case GroupSlot::kFloat:
      if (!seen) return o.monoid == Monoid::kSum ? Value::Int(0) : Value::Null();
      return Value::Float(AsDouble(row[output]));
    case GroupSlot::kBool:
      if (IsExtreme(o.monoid) && !seen) return Value::Null();
      return Value::Boolean(row[output] != 0);
    case GroupSlot::kAggregator:
      return AggregatorAt(g, output).Final();
  }
  return Value::Null();
}

Value GroupTable::GroupRecord(const Operator& nest, size_t g) const {
  std::vector<std::string> names{nest.group_name()};
  std::vector<Value> values{Key(g)};
  for (size_t i = 0; i < nest.outputs().size(); ++i) {
    names.push_back(nest.outputs()[i].name);
    values.push_back(Cell(g, i));
  }
  return Value::MakeRecord(std::move(names), std::move(values));
}

void GroupTable::MergeFrom(GroupTable&& other) {
  const size_t n = layout_.outputs.size();
  for (size_t og = 0; og < other.size(); ++og) {
    const std::string_view s =
        other.KeyTag(og) == GroupKeyTag::kString ? other.KeyString(og) : std::string_view();
    int64_t* row = Upsert(other.KeyTag(og), other.key_bits_[og], s.data(), s.size());
    const int64_t* src = other.SlotRow(og);
    auto* seen = reinterpret_cast<uint8_t*>(row + n);
    const auto* src_seen = reinterpret_cast<const uint8_t*>(src + n);
    for (size_t i = 0; i < n; ++i) {
      const GroupLayout::Output& o = layout_.outputs[i];
      if (o.slot == GroupSlot::kAggregator) {
        AggregatorAt(GroupOf(row), i).Merge(std::move(other.AggregatorAt(og, i)));
        continue;
      }
      if (o.monoid == Monoid::kCount) {
        row[i] = WrapAdd(row[i], src[i]);
        continue;
      }
      if (!src_seen[i]) continue;  // an unseen partial is the identity
      if (o.slot == GroupSlot::kFloat) {
        FoldFloat(o.monoid, &row[i], &seen[i], AsDouble(src[i]));
      } else {
        FoldIntegral(o.monoid, &row[i], &seen[i], src[i]);
      }
    }
  }
}

void GroupTable::Serialize(WireWriter* w) const {
  w->PutU64(layout_.outputs.size());
  for (const GroupLayout::Output& o : layout_.outputs) {
    w->PutU8(static_cast<uint8_t>(o.monoid));
    w->PutU8(static_cast<uint8_t>(o.slot));
  }
  w->PutU64(size());
  w->PutStr(std::string_view(reinterpret_cast<const char*>(key_tag_.data()), key_tag_.size()));
  for (size_t g = 0; g < size(); ++g) {
    w->PutI64(key_bits_[g]);
    w->PutU64(key_len_[g]);
  }
  w->PutStr(key_bytes_);
  for (int64_t word : slots_) w->PutI64(word);
  for (const Aggregator& a : aggs_) a.Serialize(w);
}

Result<GroupTable> GroupTable::Deserialize(WireReader* r) {
  PROTEUS_ASSIGN_OR_RETURN(uint64_t num_outputs, r->U64());
  if (num_outputs > r->remaining()) return Status::InvalidArgument("wire: bad output count");
  GroupLayout layout;
  for (uint64_t i = 0; i < num_outputs; ++i) {
    PROTEUS_ASSIGN_OR_RETURN(uint8_t m, r->U8());
    PROTEUS_ASSIGN_OR_RETURN(uint8_t slot, r->U8());
    if (m > static_cast<uint8_t>(Monoid::kSet) ||
        slot > static_cast<uint8_t>(GroupSlot::kAggregator)) {
      return Status::InvalidArgument("wire: bad group output layout");
    }
    layout.outputs.push_back({static_cast<Monoid>(m), static_cast<GroupSlot>(slot)});
  }
  GroupTable t(std::move(layout));
  PROTEUS_ASSIGN_OR_RETURN(uint64_t groups, r->U64());
  if (groups > r->remaining()) return Status::InvalidArgument("wire: bad group count");
  PROTEUS_ASSIGN_OR_RETURN(std::string tags, r->Str());
  if (tags.size() != groups || groups > r->remaining() / 16) {
    return Status::InvalidArgument("wire: bad key tag column");
  }
  std::vector<std::pair<int64_t, uint64_t>> spans(groups);
  for (auto& [bits, len] : spans) {
    PROTEUS_ASSIGN_OR_RETURN(bits, r->I64());
    PROTEUS_ASSIGN_OR_RETURN(len, r->U64());
  }
  PROTEUS_ASSIGN_OR_RETURN(std::string bytes, r->Str());
  for (uint64_t g = 0; g < groups; ++g) {
    const auto tag = static_cast<GroupKeyTag>(tags[g]);
    if (static_cast<uint8_t>(tags[g]) > static_cast<uint8_t>(GroupKeyTag::kString)) {
      return Status::InvalidArgument("wire: bad group key tag");
    }
    const auto [bits, len] = spans[g];
    const char* str = nullptr;
    if (tag == GroupKeyTag::kString) {
      if (bits < 0 || static_cast<uint64_t>(bits) > bytes.size() ||
          len > bytes.size() - static_cast<uint64_t>(bits)) {
        return Status::InvalidArgument("wire: group key string runs past its buffer");
      }
      str = bytes.data() + bits;
    } else if (len != 0) {
      return Status::InvalidArgument("wire: non-string group key with a length");
    }
    const size_t before = t.size();
    t.Upsert(tag, bits, str, static_cast<size_t>(len));
    if (t.size() == before) return Status::InvalidArgument("wire: duplicate group key");
  }
  for (int64_t& word : t.slots_) {
    PROTEUS_ASSIGN_OR_RETURN(word, r->I64());
  }
  for (size_t a = 0; a < t.aggs_.size(); ++a) {
    PROTEUS_ASSIGN_OR_RETURN(Aggregator agg, Aggregator::Deserialize(r));
    if (agg.monoid() != t.aggs_[a].monoid()) {
      return Status::InvalidArgument("wire: group aggregator disagrees with its layout");
    }
    t.aggs_[a] = std::move(agg);
  }
  return t;
}

const std::string& NestBinding(const Operator& op) {
  static const std::string kDefault = "$group";
  return op.binding().empty() ? kDefault : op.binding();
}

Status AccumulateReduceRow(const Operator& reduce, const EvalEnv& row,
                           std::vector<Aggregator>* aggs) {
  PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(reduce.pred(), row));
  if (!pass) return Status::OK();
  const auto& outputs = reduce.outputs();
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].monoid == Monoid::kCount) {
      (*aggs)[i].Add(Value::Int(1));
    } else {
      PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(outputs[i].expr, row));
      (*aggs)[i].Add(v);
    }
  }
  return Status::OK();
}

std::vector<Aggregator> MakeReduceAggs(const Operator& reduce) {
  std::vector<Aggregator> aggs;
  aggs.reserve(reduce.outputs().size());
  for (const auto& o : reduce.outputs()) aggs.emplace_back(o.monoid);
  return aggs;
}

QueryResult FinalizeReduce(const Operator& reduce, std::vector<Aggregator>& aggs) {
  const auto& outputs = reduce.outputs();
  QueryResult result;
  // A single collection output of records unfolds into a row set. Its
  // columns come from the plan, not from a first row, so an empty answer
  // names the same columns as a full one.
  if (outputs.size() == 1 && IsCollectionMonoid(outputs[0].monoid)) {
    Value collected = aggs[0].Final();
    const ValueList& items = collected.list();
    const ExprPtr& head = outputs[0].expr;
    const TypePtr& type = head->type();
    if (head->kind() == ExprKind::kRecordCons) {
      result.columns = head->record_names();
      for (const auto& item : items) result.rows.push_back(item.record().values);
    } else if (type != nullptr && type->kind() == TypeKind::kRecord) {
      // A record yielded whole keeps its source's field order (each JSON
      // object's own), so its cells align to the type's fields by name; a
      // field the record lacks reads as null.
      for (const Field& f : type->fields()) result.columns.push_back(f.name);
      for (const auto& item : items) {
        std::vector<Value>& row = result.rows.emplace_back();
        for (const auto& name : result.columns) {
          Result<Value> cell = item.GetField(name);
          row.push_back(cell.ok() ? std::move(*cell) : Value::Null());
        }
      }
    } else {
      result.columns = {outputs[0].name};
      for (const auto& item : items) result.rows.push_back({item});
    }
    GlobalCounters().tuples_output += result.rows.size();
    return result;
  }
  for (const auto& o : outputs) result.columns.push_back(o.name);
  result.rows.emplace_back();
  for (auto& a : aggs) result.rows[0].push_back(a.Final());
  GlobalCounters().tuples_output += 1;
  return result;
}

void PlanPartials::Append(PlanPartials&& other) {
  nest = nest || other.nest;
  for (auto& m : other.agg_morsels) agg_morsels.push_back(std::move(m));
  for (auto& m : other.group_morsels) group_morsels.push_back(std::move(m));
}

namespace {

/// Runs the merged groups of `nest` through the Reduce root serially (group
/// counts are small next to input cardinalities). A bag/list root of a
/// record of plain `group.field` reads — every SQL GROUP BY — copies its
/// cells straight out of the table's columns; any other root evaluates
/// against one group record reused for every group, refilled in place.
Result<QueryResult> FinalizeGroups(const Operator& reduce, const Operator& nest,
                                   const GroupTable& groups) {
  const std::string& binding = NestBinding(nest);
  std::vector<std::string> names{nest.group_name()};
  for (const AggOutput& o : nest.outputs()) names.push_back(o.name);
  // Column of a `binding.field` read: 0 = the key, 1 + i = output i; -1 for
  // any other expression.
  auto column_of = [&](const ExprPtr& e) -> int {
    if (e->kind() != ExprKind::kProj || e->child(0)->kind() != ExprKind::kVarRef ||
        e->child(0)->var_name() != binding) {
      return -1;
    }
    auto it = std::find(names.begin(), names.end(), e->field());
    return it == names.end() ? -1 : static_cast<int>(it - names.begin());
  };
  auto cell = [&](size_t g, int col) {
    return col == 0 ? groups.Key(g) : groups.Cell(g, static_cast<size_t>(col - 1));
  };

  const auto& outputs = reduce.outputs();
  if (reduce.pred() == nullptr && outputs.size() == 1 &&
      (outputs[0].monoid == Monoid::kBag || outputs[0].monoid == Monoid::kList) &&
      outputs[0].expr->kind() == ExprKind::kRecordCons) {
    std::vector<int> cols;
    for (const ExprPtr& c : outputs[0].expr->children()) cols.push_back(column_of(c));
    if (std::find(cols.begin(), cols.end(), -1) == cols.end()) {
      QueryResult result;
      result.columns = outputs[0].expr->record_names();
      result.rows.reserve(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        std::vector<Value>& row = result.rows.emplace_back();
        row.reserve(cols.size());
        for (int col : cols) row.push_back(cell(g, col));
      }
      GlobalCounters().tuples_output += result.rows.size();
      return result;
    }
  }

  auto record = std::make_shared<RecordValue>();
  record->names = names;
  record->values.resize(names.size());
  EvalEnv env;
  env[binding] = Value::Record(record);
  std::vector<Aggregator> aggs = MakeReduceAggs(reduce);
  for (size_t g = 0; g < groups.size(); ++g) {
    if (record.use_count() > 2) {
      // The root kept the last group's record (e.g. a bag of whole group
      // records): refill a fresh one instead of overwriting what it holds.
      record = std::make_shared<RecordValue>(*record);
      env[binding] = Value::Record(record);
    }
    for (size_t c = 0; c < names.size(); ++c) {
      record->values[c] = cell(g, static_cast<int>(c));
    }
    PROTEUS_RETURN_NOT_OK(AccumulateReduceRow(reduce, env, &aggs));
  }
  return FinalizeReduce(reduce, aggs);
}

}  // namespace

Result<QueryResult> FinalizePlanPartials(const Operator& reduce, const Operator* nest,
                                         PlanPartials&& partials,
                                         obs::TraceRecorder* trace) {
  OBS_SPAN(trace, "partial_merge", "morsels",
           static_cast<int64_t>(partials.num_morsels()));
  if (partials.num_morsels() == 0) {
    return Status::Internal("FinalizePlanPartials requires at least one morsel partial");
  }
  if (nest != nullptr) {
    GroupTable merged = std::move(partials.group_morsels[0]);
    for (size_t m = 1; m < partials.group_morsels.size(); ++m) {
      merged.MergeFrom(std::move(partials.group_morsels[m]));
    }
    // Serial-parity materialization estimate: 48 bytes per distinct group.
    GlobalCounters().bytes_materialized += 48 * merged.size();
    return FinalizeGroups(reduce, *nest, merged);
  }
  std::vector<Aggregator> aggs = std::move(partials.agg_morsels[0]);
  for (size_t m = 1; m < partials.agg_morsels.size(); ++m) {
    for (size_t i = 0; i < aggs.size(); ++i) aggs[i].Merge(std::move(partials.agg_morsels[m][i]));
  }
  return FinalizeReduce(reduce, aggs);
}

}  // namespace proteus

// ---------------------------------------------------------------------------
// C ABI partial-sink entry points (generated code -> JitMorselSink)
// ---------------------------------------------------------------------------

namespace {

proteus::JitMorselSink* SINK(void* p) { return static_cast<proteus::JitMorselSink*>(p); }

}  // namespace

extern "C" {

void proteus_sink_agg_flush_int(void* sink, uint32_t i, int64_t v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Int(v));
}

void proteus_sink_agg_flush_double(void* sink, uint32_t i, double v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Float(v));
}

void proteus_sink_agg_flush_bool(void* sink, uint32_t i, int32_t v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Boolean(v != 0));
}

void* proteus_morsel_groups(void* sink) { return SINK(sink)->groups; }

void proteus_sink_emit_int(void* sink, int64_t v) {
  SINK(sink)->staged.push_back(proteus::Value::Int(v));
}

void proteus_sink_emit_double(void* sink, double v) {
  SINK(sink)->staged.push_back(proteus::Value::Float(v));
}

void proteus_sink_emit_bool(void* sink, int32_t v) {
  SINK(sink)->staged.push_back(proteus::Value::Boolean(v != 0));
}

void proteus_sink_emit_str(void* sink, const char* p, int64_t len) {
  SINK(sink)->staged.push_back(proteus::Value::Str(std::string(p, static_cast<size_t>(len))));
}

void proteus_sink_emit_null(void* sink) {
  SINK(sink)->staged.push_back(proteus::Value::Null());
}

void proteus_sink_join_matched(void* sink, uint32_t table, int64_t row) {
  (*SINK(sink)->matched)[table][static_cast<size_t>(row)] = 1;
}

void proteus_sink_emit_end(void* sink) {
  proteus::JitMorselSink* s = SINK(sink);
  if (s->row_records) {
    (*s->aggs)[0].Add(proteus::Value::MakeRecord(*s->columns, std::move(s->staged)));
  } else {
    (*s->aggs)[0].Add(s->staged[0]);
  }
  s->staged.clear();
}

}  // extern "C"
