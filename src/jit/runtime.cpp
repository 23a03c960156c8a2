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
      {"proteus_group_upsert", reinterpret_cast<void*>(&proteus_group_upsert)},
      {"proteus_group_upsert_str", reinterpret_cast<void*>(&proteus_group_upsert_str)},
      {"proteus_group_count", reinterpret_cast<void*>(&proteus_group_count)},
      {"proteus_group_key", reinterpret_cast<void*>(&proteus_group_key)},
      {"proteus_group_key_str", reinterpret_cast<void*>(&proteus_group_key_str)},
      {"proteus_group_slots", reinterpret_cast<void*>(&proteus_group_slots)},
      {"proteus_cancel_requested", reinterpret_cast<void*>(&proteus_cancel_requested)},
      {"proteus_str_eq", reinterpret_cast<void*>(&proteus_str_eq)},
      {"proteus_str_lt", reinterpret_cast<void*>(&proteus_str_lt)},
      // Per-morsel partial sinks (partial_sink.h).
      {"proteus_sink_agg_flush_int", reinterpret_cast<void*>(&proteus_sink_agg_flush_int)},
      {"proteus_sink_agg_flush_double",
       reinterpret_cast<void*>(&proteus_sink_agg_flush_double)},
      {"proteus_sink_agg_flush_bool", reinterpret_cast<void*>(&proteus_sink_agg_flush_bool)},
      {"proteus_sink_group_begin_int",
       reinterpret_cast<void*>(&proteus_sink_group_begin_int)},
      {"proteus_sink_group_begin_double",
       reinterpret_cast<void*>(&proteus_sink_group_begin_double)},
      {"proteus_sink_group_begin_bool",
       reinterpret_cast<void*>(&proteus_sink_group_begin_bool)},
      {"proteus_sink_group_begin_str",
       reinterpret_cast<void*>(&proteus_sink_group_begin_str)},
      {"proteus_sink_group_agg_count",
       reinterpret_cast<void*>(&proteus_sink_group_agg_count)},
      {"proteus_sink_group_agg_int", reinterpret_cast<void*>(&proteus_sink_group_agg_int)},
      {"proteus_sink_group_agg_double",
       reinterpret_cast<void*>(&proteus_sink_group_agg_double)},
      {"proteus_sink_group_agg_bool", reinterpret_cast<void*>(&proteus_sink_group_agg_bool)},
      {"proteus_sink_group_agg_str", reinterpret_cast<void*>(&proteus_sink_group_agg_str)},
      {"proteus_sink_emit_int", reinterpret_cast<void*>(&proteus_sink_emit_int)},
      {"proteus_sink_emit_double", reinterpret_cast<void*>(&proteus_sink_emit_double)},
      {"proteus_sink_emit_bool", reinterpret_cast<void*>(&proteus_sink_emit_bool)},
      {"proteus_sink_emit_str", reinterpret_cast<void*>(&proteus_sink_emit_str)},
      {"proteus_sink_emit_end", reinterpret_cast<void*>(&proteus_sink_emit_end)},
      {"proteus_sink_emit_null", reinterpret_cast<void*>(&proteus_sink_emit_null)},
      {"proteus_sink_join_matched", reinterpret_cast<void*>(&proteus_sink_join_matched)},
      {"proteus_sink_group_begin_null",
       reinterpret_cast<void*>(&proteus_sink_group_begin_null)},
  };
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
using proteus::jit::GroupTableRt;
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

uint32_t GroupFind(GroupTableRt& g, uint64_t hash, int64_t ikey, const char* skey,
                   int64_t slen) {
  if (g.buckets.empty()) {
    g.buckets.assign(1024, 0xFFFFFFFFu);
    g.mask = 1023;
  }
  // Grow at 70% load.
  auto count = static_cast<uint32_t>(g.string_keys ? g.skeys.size() : g.ikeys.size());
  if (count * 10 > (g.mask + 1) * 7) {
    uint32_t new_size = (g.mask + 1) * 2;
    g.buckets.assign(new_size, 0xFFFFFFFFu);
    g.mask = new_size - 1;
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t h = g.string_keys
                       ? proteus::HashString(g.skeys[i])
                       : proteus::HashMix64(static_cast<uint64_t>(g.ikeys[i]));
      uint32_t b = static_cast<uint32_t>(h) & g.mask;
      while (g.buckets[b] != 0xFFFFFFFFu) b = (b + 1) & g.mask;
      g.buckets[b] = i;
    }
  }
  uint32_t b = static_cast<uint32_t>(hash) & g.mask;
  while (true) {
    uint32_t idx = g.buckets[b];
    if (idx == 0xFFFFFFFFu) {
      // Insert new group.
      uint32_t gi;
      if (g.string_keys) {
        gi = static_cast<uint32_t>(g.skeys.size());
        g.skeys.emplace_back(skey, static_cast<size_t>(slen));
      } else {
        gi = static_cast<uint32_t>(g.ikeys.size());
        g.ikeys.push_back(ikey);
      }
      g.buckets[b] = gi;
      g.slots.insert(g.slots.end(), g.init_slots.begin(), g.init_slots.end());
      return gi;
    }
    bool match = g.string_keys
                     ? (static_cast<int64_t>(g.skeys[idx].size()) == slen &&
                        std::memcmp(g.skeys[idx].data(), skey, static_cast<size_t>(slen)) == 0)
                     : g.ikeys[idx] == ikey;
    if (match) return idx;
    b = (b + 1) & g.mask;
  }
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

int64_t* proteus_group_upsert(void* ctx, uint32_t table, int64_t key) {
  GroupTableRt& g = *RT(ctx)->groups[table];
  uint32_t idx = GroupFind(g, proteus::HashMix64(static_cast<uint64_t>(key)), key, nullptr, 0);
  return g.slots.data() + static_cast<size_t>(idx) * g.slots_per_group;
}

int64_t* proteus_group_upsert_str(void* ctx, uint32_t table, const char* key, int64_t len) {
  GroupTableRt& g = *RT(ctx)->groups[table];
  uint32_t idx = GroupFind(g, proteus::HashBytes(key, static_cast<size_t>(len)), 0, key, len);
  return g.slots.data() + static_cast<size_t>(idx) * g.slots_per_group;
}

uint64_t proteus_group_count(void* ctx, uint32_t table) { return RT(ctx)->groups[table]->size(); }

int64_t proteus_group_key(void* ctx, uint32_t table, uint64_t idx) {
  return RT(ctx)->groups[table]->ikeys[idx];
}

const char* proteus_group_key_str(void* ctx, uint32_t table, uint64_t idx, int64_t* len) {
  const std::string& s = RT(ctx)->groups[table]->skeys[idx];
  *len = static_cast<int64_t>(s.size());
  return s.data();
}

int64_t* proteus_group_slots(void* ctx, uint32_t table, uint64_t idx) {
  GroupTableRt& g = *RT(ctx)->groups[table];
  return g.slots.data() + idx * g.slots_per_group;
}

int32_t proteus_cancel_requested(void* ctx) {
  const std::atomic<bool>* cancel = RT(ctx)->cancel;
  return cancel != nullptr && cancel->load(std::memory_order_acquire) ? 1 : 0;
}

int32_t proteus_str_eq(const char* a, int64_t alen, const char* b, int64_t blen) {
  return alen == blen && std::memcmp(a, b, static_cast<size_t>(alen)) == 0 ? 1 : 0;
}

int32_t proteus_str_lt(const char* a, int64_t alen, const char* b, int64_t blen) {
  int c = std::memcmp(a, b, static_cast<size_t>(std::min(alen, blen)));
  return (c < 0 || (c == 0 && alen < blen)) ? 1 : 0;
}
