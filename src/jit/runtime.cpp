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
      {"proteus_csv_str", reinterpret_cast<void*>(&proteus_csv_str)},
      {"proteus_json_has", reinterpret_cast<void*>(&proteus_json_has)},
      {"proteus_json_int_opt", reinterpret_cast<void*>(&proteus_json_int_opt)},
      {"proteus_json_int", reinterpret_cast<void*>(&proteus_json_int)},
      {"proteus_json_double", reinterpret_cast<void*>(&proteus_json_double)},
      {"proteus_json_bool", reinterpret_cast<void*>(&proteus_json_bool)},
      {"proteus_json_str", reinterpret_cast<void*>(&proteus_json_str)},
      {"proteus_unnest_init", reinterpret_cast<void*>(&proteus_unnest_init)},
      {"proteus_unnest_has_next", reinterpret_cast<void*>(&proteus_unnest_has_next)},
      {"proteus_unnest_advance", reinterpret_cast<void*>(&proteus_unnest_advance)},
      {"proteus_unnest_elem_int", reinterpret_cast<void*>(&proteus_unnest_elem_int)},
      {"proteus_unnest_elem_double", reinterpret_cast<void*>(&proteus_unnest_elem_double)},
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

/// Finds the value span of `"name": value` among the top-level fields of a
/// JSON object element ([s, e)). Returns false if absent.
bool FindElemField(const char* s, const char* e, const char* name, int64_t name_len,
                   const char** vs, const char** ve) {
  const char* p = s;
  if (p >= e || *p != '{') return false;
  ++p;
  while (p < e) {
    while (p < e && (*p == ' ' || *p == ',' || *p == '\n' || *p == '\t')) ++p;
    if (p >= e || *p == '}') return false;
    if (*p != '"') return false;
    const char* ns = ++p;
    while (p < e && *p != '"') {
      if (*p == '\\') ++p;
      ++p;
    }
    const char* ne = p;
    ++p;  // closing quote
    while (p < e && (*p == ' ' || *p == ':')) ++p;
    const char* val_start = p;
    if (p < e && *p == '"') {
      ++p;
      while (p < e && *p != '"') {
        if (*p == '\\') ++p;
        ++p;
      }
      ++p;
    } else if (p < e && (*p == '{' || *p == '[')) {
      int depth = 0;
      while (p < e) {
        if (*p == '"') {
          ++p;
          while (p < e && *p != '"') {
            if (*p == '\\') ++p;
            ++p;
          }
          ++p;
          continue;
        }
        if (*p == '{' || *p == '[') ++depth;
        if (*p == '}' || *p == ']') {
          --depth;
          ++p;
          if (depth == 0) break;
          continue;
        }
        ++p;
      }
    } else {
      while (p < e && *p != ',' && *p != '}') ++p;
    }
    if (static_cast<int64_t>(ne - ns) == name_len && std::memcmp(ns, name, name_len) == 0) {
      *vs = val_start;
      *ve = p;
      return true;
    }
  }
  return false;
}

const JsonToken* JsonTok(const void* plugin, uint64_t oid, uint64_t path_hash) {
  return static_cast<const JsonPlugin*>(plugin)->FindTokenByHash(oid, path_hash);
}

}  // namespace

// ---------------------------------------------------------------------------
// extern "C" implementations
// ---------------------------------------------------------------------------

int64_t proteus_csv_int(const void* plugin, uint64_t oid, uint32_t col) {
  std::string_view t = static_cast<const CsvPlugin*>(plugin)->FieldText(oid, col);
  return ParseIntSpan(t.data(), t.data() + t.size());
}

double proteus_csv_double(const void* plugin, uint64_t oid, uint32_t col) {
  std::string_view t = static_cast<const CsvPlugin*>(plugin)->FieldText(oid, col);
  return ParseDoubleSpan(t.data(), t.data() + t.size());
}

const char* proteus_csv_str(const void* plugin, uint64_t oid, uint32_t col, int64_t* len) {
  std::string_view t = static_cast<const CsvPlugin*>(plugin)->FieldText(oid, col);
  *len = static_cast<int64_t>(t.size());
  return t.data();
}

int32_t proteus_json_has(const void* plugin, uint64_t oid, uint64_t path_hash) {
  return JsonTok(plugin, oid, path_hash) != nullptr ? 1 : 0;
}

int32_t proteus_json_int_opt(const void* plugin, uint64_t oid, uint64_t path_hash,
                             int64_t* out) {
  const JsonToken* t = JsonTok(plugin, oid, path_hash);
  if (t == nullptr) {
    *out = 0;
    return 0;
  }
  const char* b = static_cast<const JsonPlugin*>(plugin)->ObjectBase(oid);
  *out = ParseIntSpan(b + t->start, b + t->end);
  return 1;
}

int64_t proteus_json_int(const void* plugin, uint64_t oid, uint64_t path_hash) {
  const JsonToken* t = JsonTok(plugin, oid, path_hash);
  if (t == nullptr) return 0;
  const char* b = static_cast<const JsonPlugin*>(plugin)->ObjectBase(oid);
  return ParseIntSpan(b + t->start, b + t->end);
}

double proteus_json_double(const void* plugin, uint64_t oid, uint64_t path_hash) {
  const JsonToken* t = JsonTok(plugin, oid, path_hash);
  if (t == nullptr) return 0;
  const char* b = static_cast<const JsonPlugin*>(plugin)->ObjectBase(oid);
  return ParseDoubleSpan(b + t->start, b + t->end);
}

int64_t proteus_json_bool(const void* plugin, uint64_t oid, uint64_t path_hash) {
  const JsonToken* t = JsonTok(plugin, oid, path_hash);
  if (t == nullptr) return 0;
  const char* b = static_cast<const JsonPlugin*>(plugin)->ObjectBase(oid);
  return b[t->start] == 't' ? 1 : 0;
}

const char* proteus_json_str(const void* plugin, uint64_t oid, uint64_t path_hash,
                             int64_t* len) {
  const JsonToken* t = JsonTok(plugin, oid, path_hash);
  if (t == nullptr || t->type != JsonTokenType::kString) {
    *len = 0;
    return "";
  }
  const char* b = static_cast<const JsonPlugin*>(plugin)->ObjectBase(oid);
  *len = static_cast<int64_t>(t->end - t->start) - 2;  // strip quotes
  return b + t->start + 1;
}

void proteus_unnest_init(void* ctx, uint32_t slot, const void* plugin, uint64_t oid,
                         uint64_t path_hash) {
  UnnestStateRt& u = CTX(ctx)->unnests[slot];
  const auto* jp = static_cast<const JsonPlugin*>(plugin);
  u.plugin = jp;
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
  u.elem_start = u.obj_base + u.elems[u.pos].start;
  u.elem_end = u.obj_base + u.elems[u.pos].end;
  return 1;
}

void proteus_unnest_advance(void* ctx, uint32_t slot) { CTX(ctx)->unnests[slot].pos++; }

int64_t proteus_unnest_elem_int(void* ctx, uint32_t slot, const char* name, int64_t name_len) {
  UnnestStateRt& u = CTX(ctx)->unnests[slot];
  if (name_len == 0) return ParseIntSpan(u.elem_start, u.elem_end);
  const char *vs, *ve;
  if (!FindElemField(u.elem_start, u.elem_end, name, name_len, &vs, &ve)) return 0;
  return ParseIntSpan(vs, ve);
}

double proteus_unnest_elem_double(void* ctx, uint32_t slot, const char* name,
                                  int64_t name_len) {
  UnnestStateRt& u = CTX(ctx)->unnests[slot];
  if (name_len == 0) return ParseDoubleSpan(u.elem_start, u.elem_end);
  const char *vs, *ve;
  if (!FindElemField(u.elem_start, u.elem_end, name, name_len, &vs, &ve)) return 0;
  return ParseDoubleSpan(vs, ve);
}

const char* proteus_unnest_elem_str(void* ctx, uint32_t slot, const char* name,
                                    int64_t name_len, int64_t* len) {
  UnnestStateRt& u = CTX(ctx)->unnests[slot];
  const char *vs = u.elem_start, *ve = u.elem_end;
  if (name_len > 0 && !FindElemField(u.elem_start, u.elem_end, name, name_len, &vs, &ve)) {
    *len = 0;
    return "";
  }
  if (vs < ve && *vs == '"') {
    *len = static_cast<int64_t>(ve - vs) - 2;
    return vs + 1;
  }
  *len = static_cast<int64_t>(ve - vs);
  return vs;
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
