#include "src/jit/runtime.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/common/counters.h"
#include "src/common/hash.h"
#include "src/engine/partial_sink.h"

namespace proteus {
namespace jit {

std::vector<std::pair<std::string, void*>> RuntimeSymbols() {
  return {
      {"proteus_csv_read", reinterpret_cast<void*>(&proteus_csv_read)},
      {"proteus_json_read", reinterpret_cast<void*>(&proteus_json_read)},
      {"proteus_unnest_init", reinterpret_cast<void*>(&proteus_unnest_init)},
      {"proteus_unnest_has_next", reinterpret_cast<void*>(&proteus_unnest_has_next)},
      {"proteus_unnest_advance", reinterpret_cast<void*>(&proteus_unnest_advance)},
      {"proteus_unnest_read", reinterpret_cast<void*>(&proteus_unnest_read)},
      {"proteus_join_insert", reinterpret_cast<void*>(&proteus_join_insert)},
      {"proteus_join_insert_null", reinterpret_cast<void*>(&proteus_join_insert_null)},
      {"proteus_join_build", reinterpret_cast<void*>(&proteus_join_build)},
      {"proteus_join_probe_first", reinterpret_cast<void*>(&proteus_join_probe_first)},
      {"proteus_join_probe_next", reinterpret_cast<void*>(&proteus_join_probe_next)},
      {"proteus_join_probe_row", reinterpret_cast<void*>(&proteus_join_probe_row)},
      {"proteus_join_rows", reinterpret_cast<void*>(&proteus_join_rows)},
      {"proteus_join_payload_at", reinterpret_cast<void*>(&proteus_join_payload_at)},
      {"proteus_group_table", reinterpret_cast<void*>(&proteus_group_table)},
      {"proteus_group_upsert", reinterpret_cast<void*>(&proteus_group_upsert)},
      {"proteus_group_agg", reinterpret_cast<void*>(&proteus_group_agg)},
      {"proteus_group_count", reinterpret_cast<void*>(&proteus_group_count)},
      {"proteus_group_row", reinterpret_cast<void*>(&proteus_group_row)},
      {"proteus_cancel_requested", reinterpret_cast<void*>(&proteus_cancel_requested)},
      {"proteus_runtime_error", reinterpret_cast<void*>(&proteus_runtime_error)},
      {"proteus_str_eq", reinterpret_cast<void*>(&proteus_str_eq)},
      {"proteus_str_lt", reinterpret_cast<void*>(&proteus_str_lt)},
      {"proteus_hash_bytes", reinterpret_cast<void*>(&proteus_hash_bytes)},
      // Per-morsel partial sinks (partial_sink.h).
      {"proteus_sink_agg_flush_int", reinterpret_cast<void*>(&proteus_sink_agg_flush_int)},
      {"proteus_sink_agg_flush_double",
       reinterpret_cast<void*>(&proteus_sink_agg_flush_double)},
      {"proteus_sink_agg_flush_bool", reinterpret_cast<void*>(&proteus_sink_agg_flush_bool)},
      {"proteus_morsel_groups", reinterpret_cast<void*>(&proteus_morsel_groups)},
      {"proteus_sink_emit_int", reinterpret_cast<void*>(&proteus_sink_emit_int)},
      {"proteus_sink_emit_double", reinterpret_cast<void*>(&proteus_sink_emit_double)},
      {"proteus_sink_emit_bool", reinterpret_cast<void*>(&proteus_sink_emit_bool)},
      {"proteus_sink_emit_str", reinterpret_cast<void*>(&proteus_sink_emit_str)},
      {"proteus_sink_emit_end", reinterpret_cast<void*>(&proteus_sink_emit_end)},
      {"proteus_sink_emit_null", reinterpret_cast<void*>(&proteus_sink_emit_null)},
      {"proteus_sink_join_matched", reinterpret_cast<void*>(&proteus_sink_join_matched)},
  };
}

Status QueryRuntime::error() const {
  switch (static_cast<RuntimeError>(error_code.load(std::memory_order_acquire))) {
    case RuntimeError::kNone: return Status::OK();
    case RuntimeError::kDivisionByZero: return Status::InvalidArgument("division by zero");
    case RuntimeError::kModuloByZero: return Status::InvalidArgument("modulo by zero");
  }
  return Status::Internal("jit runtime: unknown error code");
}

}  // namespace jit
}  // namespace proteus

// ---------------------------------------------------------------------------
// Shared parsing helpers (file-local)
// ---------------------------------------------------------------------------

namespace {

using proteus::CsvPlugin;
using proteus::JsonPlugin;
using proteus::JsonSpan;
using proteus::JsonToken;
using proteus::JsonTokenType;
using proteus::GroupKeyTag;
using proteus::GroupTable;
using proteus::TypeKind;
using proteus::jit::JoinTableRt;
using proteus::jit::MorselCtx;
using proteus::jit::QueryRuntime;
using proteus::jit::UnnestStateRt;

MorselCtx* CTX(void* p) { return static_cast<MorselCtx*>(p); }
QueryRuntime* RT(void* p) { return CTX(p)->rt; }

int64_t ParseIntSpan(const char* s, const char* e) {
  int64_t v = 0;
  std::from_chars(s, e, v);
  return v;
}

double ParseDoubleSpan(const char* s, const char* e) {
  double v = 0;
  std::from_chars(s, e, v);
  return v;
}

// The typed conversions of a located JSON value, shared by top-level and
// element reads: presence (absent and null are SQL null), and the value.
int32_t ToInt(const JsonSpan& v, int64_t* out) {
  const bool present = v.type != JsonTokenType::kNull;
  *out = present ? ParseIntSpan(v.begin, v.end) : 0;
  return present;
}

int32_t ToDouble(const JsonSpan& v, double* out) {
  const bool present = v.type != JsonTokenType::kNull;
  *out = present ? ParseDoubleSpan(v.begin, v.end) : 0;
  return present;
}

int32_t ToBool(const JsonSpan& v, int64_t* out) {
  const bool present = v.type != JsonTokenType::kNull;
  *out = present && *v.begin == 't' ? 1 : 0;
  return present;
}

int32_t ToStr(void* ctx, const JsonSpan& v, const char** out, int64_t* len) {
  const char* s = v.begin;
  const char* e = v.end;
  if (v.type == JsonTokenType::kNull) {
    s = e = "";
  } else if (v.type == JsonTokenType::kString) {
    ++s;  // strip the quotes
    --e;
    if (std::memchr(s, '\\', static_cast<size_t>(e - s)) != nullptr) {
      std::list<std::string>& kept = CTX(ctx)->unescaped;
      kept.push_back(proteus::UnescapeJsonString(s, e));
      s = kept.back().data();
      e = s + kept.back().size();
    }
  }
  *out = s;
  *len = static_cast<int64_t>(e - s);
  return v.type != JsonTokenType::kNull;
}

/// Writes a located JSON value of `kind` into its two out slots; returns
/// its null bit (1 = SQL null).
uint64_t StoreJson(void* ctx, const JsonSpan& v, int64_t kind, int64_t* out) {
  int32_t present = 0;
  switch (static_cast<TypeKind>(kind)) {
    case TypeKind::kFloat64: {
      double d = 0;
      present = ToDouble(v, &d);
      std::memcpy(&out[0], &d, sizeof(d));
      break;
    }
    case TypeKind::kBool: present = ToBool(v, &out[0]); break;
    case TypeKind::kString: {
      const char* s = nullptr;
      present = ToStr(ctx, v, &s, &out[1]);
      out[0] = reinterpret_cast<int64_t>(s);
      break;
    }
    default: present = ToInt(v, &out[0]); break;
  }
  return present != 0 ? 0 : 1;
}

/// Writes CSV field text of `kind` into its two out slots, converted as
/// CsvPlugin::ReadValue converts it; returns its null bit (an empty field
/// is SQL null).
uint64_t StoreCsv(std::string_view t, int64_t kind, int64_t* out) {
  const char* s = t.data();
  const char* e = s + t.size();
  switch (static_cast<TypeKind>(kind)) {
    case TypeKind::kFloat64: {
      const double d = ParseDoubleSpan(s, e);
      std::memcpy(&out[0], &d, sizeof(d));
      break;
    }
    case TypeKind::kBool: out[0] = t == "true" || t == "1" ? 1 : 0; break;
    case TypeKind::kString:
      out[0] = reinterpret_cast<int64_t>(s);
      out[1] = static_cast<int64_t>(t.size());
      break;
    default: out[0] = ParseIntSpan(s, e); break;
  }
  return t.empty() ? 1 : 0;
}

/// Splits `num` NUL-terminated names stored back to back.
std::vector<std::string_view> SplitNames(const char* blob, uint32_t num) {
  std::vector<std::string_view> names;
  names.reserve(num);
  for (uint32_t i = 0; i < num; ++i) {
    names.emplace_back(blob);
    blob += names.back().size() + 1;
  }
  return names;
}

}  // namespace

// ---------------------------------------------------------------------------
// extern "C" implementations
// ---------------------------------------------------------------------------

uint64_t proteus_csv_read(const void* plugin, uint64_t oid, const int64_t* fields, uint32_t n,
                          int64_t* out, int64_t* cursor) {
  proteus::GlobalCounters().raw_field_accesses += n;
  const int64_t* keys = fields;
  const int64_t* kinds = fields + n;
  const auto* csv = static_cast<const CsvPlugin*>(plugin);
  CsvPlugin::RowCursor row{cursor[0], reinterpret_cast<const char*>(cursor[1])};
  // A few fields at a time: the row cursor carries the one forward pass
  // across chunks.
  constexpr uint32_t kChunk = 4;
  std::string_view text[kChunk];
  uint64_t nulls = 0;
  if (n == 1) {  // the most common read point: no chunk bookkeeping
    csv->LocateFields(oid, keys, 1, text, &row);
    nulls = StoreCsv(text[0], kinds[0], out);
  } else {
    for (uint32_t at = 0; at < n; at += kChunk) {
      const uint32_t m = std::min(kChunk, n - at);
      csv->LocateFields(oid, keys + at, m, text, &row);
      for (uint32_t i = 0; i < m; ++i) {
        nulls |= StoreCsv(text[i], kinds[at + i], &out[2 * (at + i)]) << (at + i);
      }
    }
  }
  cursor[0] = row.col;
  cursor[1] = reinterpret_cast<int64_t>(row.pos);
  return nulls;
}

uint64_t proteus_json_read(void* ctx, const void* plugin, uint64_t oid, const int64_t* fields,
                           uint32_t n, int64_t* out) {
  proteus::GlobalCounters().raw_field_accesses += n;
  const auto* json = static_cast<const JsonPlugin*>(plugin);
  const auto* keys = reinterpret_cast<const uint64_t*>(fields);
  const int64_t* kinds = fields + n;
  if (n == 1) {  // the most common read point: no chunk bookkeeping
    JsonSpan v;
    json->LocateFields(oid, keys, 1, &v);
    return StoreJson(ctx, v, kinds[0], out);
  }
  constexpr uint32_t kChunk = 4;
  JsonSpan spans[kChunk];
  uint64_t nulls = 0;
  for (uint32_t at = 0; at < n; at += kChunk) {
    const uint32_t m = std::min(kChunk, n - at);
    json->LocateFields(oid, keys + at, m, spans);
    for (uint32_t i = 0; i < m; ++i) {
      nulls |= StoreJson(ctx, spans[i], kinds[at + i], &out[2 * (at + i)]) << (at + i);
    }
  }
  return nulls;
}

void proteus_unnest_init(void* ctx, uint32_t slot, const void* plugin, uint64_t oid,
                         uint64_t path_hash) {
  UnnestStateRt& u = CTX(ctx)->unnests[slot];
  const auto* jp = static_cast<const JsonPlugin*>(plugin);
  u.obj_base = jp->ObjectBase(oid);
  const JsonToken* t = jp->FindTokenByHash(oid, path_hash);
  const proteus::JsonArrayInfo* info =
      (t != nullptr && t->type == JsonTokenType::kArray) ? jp->FindArrayInfo(t) : nullptr;
  if (info == nullptr) {
    u.pos = u.end = 0;
    return;
  }
  u.elems = jp->elems().data();
  u.pos = info->elem_begin;
  u.end = info->elem_begin + info->elem_count;
}

int32_t proteus_unnest_has_next(void* ctx, uint32_t slot) {
  UnnestStateRt& u = CTX(ctx)->unnests[slot];
  if (u.pos >= u.end) return 0;
  u.cur = &u.elems[u.pos];
  u.located = false;
  return 1;
}

void proteus_unnest_advance(void* ctx, uint32_t slot) { CTX(ctx)->unnests[slot].pos++; }

uint64_t proteus_unnest_read(void* ctx, uint32_t slot, const char* names, uint32_t num_names,
                             const int64_t* fields, uint32_t n, int64_t* out) {
  const int64_t* keys = fields;
  const int64_t* kinds = fields + n;
  UnnestStateRt& u = CTX(ctx)->unnests[slot];
  const JsonSpan elem{u.obj_base + u.cur->start, u.obj_base + u.cur->end, u.cur->type};
  if (!u.located) {
    if (u.names_blob != names) {
      u.names = SplitNames(names, num_names);
      u.spans.resize(num_names);
      u.names_blob = names;
    }
    proteus::FindJsonFields(elem.begin, elem.end, u.names.data(), num_names, u.spans.data());
    u.located = true;
  }
  proteus::GlobalCounters().raw_field_accesses += n;
  uint64_t nulls = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const JsonSpan& v = keys[i] < 0 ? elem : u.spans[static_cast<size_t>(keys[i])];
    nulls |= StoreJson(ctx, v, kinds[i], &out[2 * i]) << i;
  }
  return nulls;
}

void proteus_join_insert(void* ctx, uint32_t table, int64_t key, const int64_t* payload) {
  JoinTableRt& t = *RT(ctx)->joins[table];
  uint32_t row = static_cast<uint32_t>(t.keys.size());
  t.keys.push_back(key);
  t.payload.insert(t.payload.end(), payload, payload + t.slots_per_row);
  t.table.Insert(proteus::HashMix64(static_cast<uint64_t>(key)), row);
}

void proteus_join_insert_null(void* ctx, uint32_t table, const int64_t* payload) {
  JoinTableRt& t = *RT(ctx)->joins[table];
  // Row slot without a radix entry: unreachable from probes (the sentinel
  // key is never compared), visible to the unmatched drain.
  t.keys.push_back(0);
  t.payload.insert(t.payload.end(), payload, payload + t.slots_per_row);
}

void proteus_join_build(void* ctx, uint32_t table) {
  // Parallel radix build when a scheduler is attached — byte-identical
  // layout to the serial build, so probes see the same chain order.
  RT(ctx)->joins[table]->table.Build(RT(ctx)->scheduler);
}

const int64_t* proteus_join_probe_first(void* ctx, uint32_t table, int64_t key) {
  const JoinTableRt& t = *RT(ctx)->joins[table];
  MorselCtx::ProbeState& ps = CTX(ctx)->probes[table];
  ps.matches.clear();
  ps.pos = 0;
  t.table.Probe(proteus::HashMix64(static_cast<uint64_t>(key)), [&](uint32_t row) {
    if (t.keys[row] == key) ps.matches.push_back(row);
  });
  return proteus_join_probe_next(ctx, table);
}

const int64_t* proteus_join_probe_next(void* ctx, uint32_t table) {
  const JoinTableRt& t = *RT(ctx)->joins[table];
  MorselCtx::ProbeState& ps = CTX(ctx)->probes[table];
  if (ps.pos >= ps.matches.size()) return nullptr;
  uint32_t row = ps.matches[ps.pos++];
  ps.cur_row = row;
  // slots_per_row == 0 would alias end-of-data with "no match"; the builder
  // always reserves at least one slot.
  return t.payload.data() + static_cast<size_t>(row) * t.slots_per_row;
}

int64_t proteus_join_probe_row(void* ctx, uint32_t table) {
  return static_cast<int64_t>(CTX(ctx)->probes[table].cur_row);
}

int64_t proteus_join_rows(void* ctx, uint32_t table) {
  return static_cast<int64_t>(RT(ctx)->joins[table]->keys.size());
}

const int64_t* proteus_join_payload_at(void* ctx, uint32_t table, int64_t row) {
  const JoinTableRt& t = *RT(ctx)->joins[table];
  return t.payload.data() + static_cast<size_t>(row) * t.slots_per_row;
}

void* proteus_group_table(void* ctx, uint32_t table) { return RT(ctx)->groups[table].get(); }

int64_t* proteus_group_upsert(void* table, int32_t tag, int64_t bits, const char* str,
                              int64_t len) {
  return static_cast<GroupTable*>(table)->Upsert(static_cast<GroupKeyTag>(tag), bits, str,
                                                 static_cast<size_t>(len));
}

void proteus_group_agg(void* table, int64_t* row, uint32_t output, int32_t tag, int64_t bits,
                       const char* str, int64_t len) {
  auto* t = static_cast<GroupTable*>(table);
  proteus::Value v;
  switch (static_cast<GroupKeyTag>(tag)) {
    case GroupKeyTag::kNull: return;  // nulls do not contribute to aggregates
    case GroupKeyTag::kInt: v = proteus::Value::Int(bits); break;
    case GroupKeyTag::kFloat: {
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      v = proteus::Value::Float(d);
      break;
    }
    case GroupKeyTag::kBool: v = proteus::Value::Boolean(bits != 0); break;
    case GroupKeyTag::kString:
      v = proteus::Value::Str(std::string(str, static_cast<size_t>(len)));
      break;
  }
  t->AggregatorAt(t->GroupOf(row), output).Add(v);
}

uint64_t proteus_group_count(void* table) { return static_cast<GroupTable*>(table)->size(); }

void proteus_group_row(void* table, uint64_t g, int64_t* out) {
  auto* t = static_cast<GroupTable*>(table);
  const GroupKeyTag tag = t->KeyTag(g);
  if (tag == GroupKeyTag::kString) {
    const std::string_view s = t->KeyString(g);
    out[0] = reinterpret_cast<int64_t>(s.data());
    out[1] = static_cast<int64_t>(s.size());
  } else {
    out[0] = t->KeyBits(g);
    out[1] = 0;
  }
  out[2] = tag == GroupKeyTag::kNull ? 1 : 0;
  out[3] = reinterpret_cast<int64_t>(t->SlotRow(g));
  const auto& outputs = t->layout().outputs;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].slot != proteus::GroupSlot::kAggregator) continue;
    const proteus::Value& extreme = t->AggregatorAt(g, i).extreme();
    const bool str = extreme.is_string();
    out[4 + 2 * i] = str ? reinterpret_cast<int64_t>(extreme.s().data()) : 0;
    out[5 + 2 * i] = str ? static_cast<int64_t>(extreme.s().size()) : 0;
  }
}

int32_t proteus_cancel_requested(void* ctx) {
  const std::atomic<bool>* cancel = RT(ctx)->cancel;
  return cancel != nullptr && cancel->load(std::memory_order_acquire) ? 1 : 0;
}

void proteus_runtime_error(void* ctx, int32_t code) {
  int32_t none = static_cast<int32_t>(proteus::jit::RuntimeError::kNone);
  RT(ctx)->error_code.compare_exchange_strong(none, code, std::memory_order_acq_rel);
}

int32_t proteus_str_eq(const char* a, int64_t alen, const char* b, int64_t blen) {
  return alen == blen && std::memcmp(a, b, static_cast<size_t>(alen)) == 0 ? 1 : 0;
}

int32_t proteus_str_lt(const char* a, int64_t alen, const char* b, int64_t blen) {
  int c = std::memcmp(a, b, static_cast<size_t>(std::min(alen, blen)));
  return (c < 0 || (c == 0 && alen < blen)) ? 1 : 0;
}

int64_t proteus_hash_bytes(const char* s, int64_t len) {
  return static_cast<int64_t>(proteus::HashBytes(s, static_cast<size_t>(len)));
}
