#include "src/jit/runtime.h"

#include <charconv>
#include <cstring>

#include "src/common/hash.h"
#include "src/engine/partial_sink.h"

namespace proteus {
namespace jit {

std::vector<std::pair<std::string, void*>> RuntimeSymbols() {
  return {
      {"proteus_csv_int", reinterpret_cast<void*>(&proteus_csv_int)},
      {"proteus_csv_double", reinterpret_cast<void*>(&proteus_csv_double)},
      {"proteus_csv_bool", reinterpret_cast<void*>(&proteus_csv_bool)},
      {"proteus_csv_str", reinterpret_cast<void*>(&proteus_csv_str)},
      {"proteus_json_int", reinterpret_cast<void*>(&proteus_json_int)},
      {"proteus_json_double", reinterpret_cast<void*>(&proteus_json_double)},
      {"proteus_json_bool", reinterpret_cast<void*>(&proteus_json_bool)},
      {"proteus_json_str", reinterpret_cast<void*>(&proteus_json_str)},
      {"proteus_unnest_init", reinterpret_cast<void*>(&proteus_unnest_init)},
      {"proteus_unnest_has_next", reinterpret_cast<void*>(&proteus_unnest_has_next)},
      {"proteus_unnest_advance", reinterpret_cast<void*>(&proteus_unnest_advance)},
      {"proteus_unnest_elem_int", reinterpret_cast<void*>(&proteus_unnest_elem_int)},
      {"proteus_unnest_elem_double", reinterpret_cast<void*>(&proteus_unnest_elem_double)},
      {"proteus_unnest_elem_bool", reinterpret_cast<void*>(&proteus_unnest_elem_bool)},
      {"proteus_unnest_elem_str", reinterpret_cast<void*>(&proteus_unnest_elem_str)},
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
using proteus::JsonToken;
using proteus::JsonTokenType;
using proteus::GroupKeyTag;
using proteus::GroupTable;
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

/// One located JSON value: its byte span and token type (kNull also when
/// the field is absent).
struct JsonSpan {
  const char* begin = nullptr;
  const char* end = nullptr;
  JsonTokenType type = JsonTokenType::kNull;
};

JsonSpan FieldSpan(const void* plugin, uint64_t oid, uint64_t path_hash) {
  const auto* jp = static_cast<const JsonPlugin*>(plugin);
  const JsonToken* t = jp->FindTokenByHash(oid, path_hash);
  if (t == nullptr) return {};
  const char* b = jp->ObjectBase(oid);
  return {b + t->start, b + t->end, t->type};
}

JsonSpan ElemSpan(void* ctx, uint32_t slot, const char* name, int64_t name_len) {
  const UnnestStateRt& u = CTX(ctx)->unnests[slot];
  JsonSpan v{u.obj_base + u.cur->start, u.obj_base + u.cur->end, u.cur->type};
  if (name_len == 0) return v;
  if (!proteus::FindJsonField(v.begin, v.end,
                              std::string_view(name, static_cast<size_t>(name_len)), &v.begin,
                              &v.end, &v.type)) {
    return {};
  }
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

}  // namespace

// ---------------------------------------------------------------------------
// extern "C" implementations
// ---------------------------------------------------------------------------

void proteus_csv_int(const void* plugin, uint64_t oid, uint32_t col, int64_t* out) {
  std::string_view t = static_cast<const CsvPlugin*>(plugin)->FieldText(oid, col);
  *out = ParseIntSpan(t.data(), t.data() + t.size());
}

void proteus_csv_double(const void* plugin, uint64_t oid, uint32_t col, double* out) {
  std::string_view t = static_cast<const CsvPlugin*>(plugin)->FieldText(oid, col);
  *out = ParseDoubleSpan(t.data(), t.data() + t.size());
}

void proteus_csv_bool(const void* plugin, uint64_t oid, uint32_t col, int64_t* out) {
  std::string_view t = static_cast<const CsvPlugin*>(plugin)->FieldText(oid, col);
  *out = t == "true" || t == "1" ? 1 : 0;
}

void proteus_csv_str(const void* plugin, uint64_t oid, uint32_t col, const char** out,
                     int64_t* len) {
  std::string_view t = static_cast<const CsvPlugin*>(plugin)->FieldText(oid, col);
  *out = t.data();
  *len = static_cast<int64_t>(t.size());
}

int32_t proteus_json_int(void*, const void* plugin, uint64_t oid, uint64_t path_hash,
                         int64_t* out) {
  return ToInt(FieldSpan(plugin, oid, path_hash), out);
}

int32_t proteus_json_double(void*, const void* plugin, uint64_t oid, uint64_t path_hash,
                            double* out) {
  return ToDouble(FieldSpan(plugin, oid, path_hash), out);
}

int32_t proteus_json_bool(void*, const void* plugin, uint64_t oid, uint64_t path_hash,
                          int64_t* out) {
  return ToBool(FieldSpan(plugin, oid, path_hash), out);
}

int32_t proteus_json_str(void* ctx, const void* plugin, uint64_t oid, uint64_t path_hash,
                         const char** out, int64_t* len) {
  return ToStr(ctx, FieldSpan(plugin, oid, path_hash), out, len);
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
  return 1;
}

void proteus_unnest_advance(void* ctx, uint32_t slot) { CTX(ctx)->unnests[slot].pos++; }

int32_t proteus_unnest_elem_int(void* ctx, uint32_t slot, const char* name, int64_t name_len,
                                int64_t* out) {
  return ToInt(ElemSpan(ctx, slot, name, name_len), out);
}

int32_t proteus_unnest_elem_double(void* ctx, uint32_t slot, const char* name,
                                   int64_t name_len, double* out) {
  return ToDouble(ElemSpan(ctx, slot, name, name_len), out);
}

int32_t proteus_unnest_elem_bool(void* ctx, uint32_t slot, const char* name, int64_t name_len,
                                 int64_t* out) {
  return ToBool(ElemSpan(ctx, slot, name, name_len), out);
}

int32_t proteus_unnest_elem_str(void* ctx, uint32_t slot, const char* name, int64_t name_len,
                                const char** out, int64_t* len) {
  return ToStr(ctx, ElemSpan(ctx, slot, name, name_len), out, len);
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
