#include "src/plugins/json_plugin.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/common/counters.h"
#include "src/common/hash.h"

namespace proteus {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parsing machinery
// ---------------------------------------------------------------------------

namespace {

/// Characters of a JSON number: 1 for digits and signs, 2 for the ones that
/// make it a float.
struct NumberChars {
  uint8_t kind[256] = {};
  constexpr NumberChars() {
    for (int c = '0'; c <= '9'; ++c) kind[c] = 1;
    kind[static_cast<unsigned char>('-')] = kind[static_cast<unsigned char>('+')] = 1;
    kind[static_cast<unsigned char>('.')] = kind[static_cast<unsigned char>('e')] =
        kind[static_cast<unsigned char>('E')] = 2;
  }
};
constexpr NumberChars kNumberChars;

struct JsonCursor {
  const char* p;
  const char* end;

  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) ++p;
  }
  bool Eof() const { return p >= end; }
  char Peek() const { return *p; }

  Status Expect(char c) {
    SkipWs();
    if (Eof() || *p != c) {
      return Status::ParseError(std::string("expected '") + c + "' in JSON at offset " +
                                std::to_string(end - p));
    }
    ++p;
    return Status::OK();
  }

  /// Moves the cursor (inside a string) to the string's closing quote: the
  /// next quote not escaped by an odd run of backslashes. False at the end.
  bool FindClosingQuote() {
    while (true) {
      const char* q = static_cast<const char*>(std::memchr(p, '"', end - p));
      if (q == nullptr) {
        p = end;
        return false;
      }
      const char* run = q;
      while (run > p && run[-1] == '\\') --run;
      p = q;
      if ((q - run) % 2 == 0) return true;
      ++p;
    }
  }

  /// Skips a string literal (cursor at opening quote).
  Status SkipString() {
    ++p;  // opening quote
    if (!FindClosingQuote()) return Status::ParseError("unterminated JSON string");
    ++p;
    return Status::OK();
  }

  /// Parses a field name into `out` (no unescaping: names are plain).
  Status ParseName(std::string_view* out) {
    SkipWs();
    if (Eof() || *p != '"') return Status::ParseError("expected field name");
    const char* s = ++p;
    if (!FindClosingQuote()) return Status::ParseError("unterminated field name");
    *out = {s, static_cast<size_t>(p - s)};
    ++p;
    return Status::OK();
  }

  /// Skips any JSON value; reports its span and type.
  Status SkipValue(const char** vstart, const char** vend, JsonTokenType* type) {
    SkipWs();
    if (Eof()) return Status::ParseError("unexpected end of JSON");
    *vstart = p;
    char c = *p;
    if (c == '"') {
      *type = JsonTokenType::kString;
      PROTEUS_RETURN_NOT_OK(SkipString());
    } else if (c == '{' || c == '[') {
      *type = c == '{' ? JsonTokenType::kObject : JsonTokenType::kArray;
      int depth = 0;
      while (p < end) {
        char d = *p;
        if (d == '"') {
          PROTEUS_RETURN_NOT_OK(SkipString());
          continue;
        }
        if (d == '{' || d == '[') ++depth;
        if (d == '}' || d == ']') {
          --depth;
          ++p;
          if (depth == 0) break;
          continue;
        }
        ++p;
      }
      if (depth != 0) return Status::ParseError("unbalanced JSON brackets");
    } else if (c == 't' || c == 'f' || c == 'n') {
      const std::string_view word = c == 't' ? "true" : c == 'f' ? "false" : "null";
      if (static_cast<size_t>(end - p) < word.size()) {
        return Status::ParseError("truncated JSON literal");
      }
      if (std::string_view(p, word.size()) != word) {
        return Status::ParseError("invalid JSON literal '" +
                                  std::string(p, word.size()) + "'");
      }
      *type = c == 'n' ? JsonTokenType::kNull : JsonTokenType::kBool;
      p += word.size();
    } else {
      uint8_t seen = 0;
      for (; p < end && kNumberChars.kind[static_cast<unsigned char>(*p)] != 0; ++p) {
        seen |= kNumberChars.kind[static_cast<unsigned char>(*p)];
      }
      if (p == *vstart) return Status::ParseError("invalid JSON value");
      *type = (seen & 2) != 0 ? JsonTokenType::kFloat : JsonTokenType::kInt;
    }
    *vend = p;
    return Status::OK();
  }
};

}  // namespace

std::string UnescapeJsonString(const char* s, const char* e) {
  std::string out;
  out.reserve(static_cast<size_t>(e - s));
  for (const char* p = s; p < e; ++p) {
    if (*p == '\\' && p + 1 < e) {
      ++p;
      switch (*p) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        default: out += *p;
      }
    } else {
      out += *p;
    }
  }
  return out;
}

void FindJsonFields(const char* begin, const char* end, const std::string_view* names,
                    size_t n, JsonSpan* out) {
  std::fill(out, out + n, JsonSpan{});
  size_t missing = n;
  JsonCursor c{begin, end};
  if (missing == 0 || !c.Expect('{').ok()) return;
  c.SkipWs();
  if (c.Eof() || c.Peek() == '}') return;
  while (true) {
    std::string_view field;
    JsonSpan v{};
    if (!c.ParseName(&field).ok() || !c.Expect(':').ok() ||
        !c.SkipValue(&v.begin, &v.end, &v.type).ok()) {
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      if (out[i].begin == nullptr && names[i] == field) {
        out[i] = v;
        if (--missing == 0) return;
      }
    }
    c.SkipWs();
    if (c.Eof() || c.Peek() != ',') return;
    ++c.p;
  }
}

Result<Value> ParseJsonValue(const char* begin, const char* end) {
  JsonCursor c{begin, end};
  c.SkipWs();
  if (c.Eof()) return Status::ParseError("empty JSON value");
  char ch = c.Peek();
  if (ch == '{') {
    std::vector<std::string> names;
    std::vector<Value> values;
    PROTEUS_RETURN_NOT_OK(c.Expect('{'));
    c.SkipWs();
    if (!c.Eof() && c.Peek() == '}') {
      ++c.p;
      return Value::MakeRecord({}, {});
    }
    while (true) {
      std::string_view name;
      PROTEUS_RETURN_NOT_OK(c.ParseName(&name));
      PROTEUS_RETURN_NOT_OK(c.Expect(':'));
      const char *vs, *ve;
      JsonTokenType vt;
      PROTEUS_RETURN_NOT_OK(c.SkipValue(&vs, &ve, &vt));
      PROTEUS_ASSIGN_OR_RETURN(Value v, ParseJsonValue(vs, ve));
      names.emplace_back(name);
      values.push_back(std::move(v));
      c.SkipWs();
      if (!c.Eof() && c.Peek() == ',') {
        ++c.p;
        continue;
      }
      break;
    }
    PROTEUS_RETURN_NOT_OK(c.Expect('}'));
    return Value::MakeRecord(std::move(names), std::move(values));
  }
  if (ch == '[') {
    ValueList elems;
    PROTEUS_RETURN_NOT_OK(c.Expect('['));
    c.SkipWs();
    if (!c.Eof() && c.Peek() == ']') {
      ++c.p;
      return Value::MakeList({});
    }
    while (true) {
      const char *vs, *ve;
      JsonTokenType vt;
      PROTEUS_RETURN_NOT_OK(c.SkipValue(&vs, &ve, &vt));
      PROTEUS_ASSIGN_OR_RETURN(Value v, ParseJsonValue(vs, ve));
      elems.push_back(std::move(v));
      c.SkipWs();
      if (!c.Eof() && c.Peek() == ',') {
        ++c.p;
        continue;
      }
      break;
    }
    PROTEUS_RETURN_NOT_OK(c.Expect(']'));
    return Value::MakeList(std::move(elems));
  }
  if (ch == '"') {
    const char *vs, *ve;
    JsonTokenType vt;
    PROTEUS_RETURN_NOT_OK(c.SkipValue(&vs, &ve, &vt));
    return Value::Str(UnescapeJsonString(vs + 1, ve - 1));
  }
  if (ch == 't') return Value::Boolean(true);
  if (ch == 'f') return Value::Boolean(false);
  if (ch == 'n') return Value::Null();
  // number
  std::string_view text(begin, static_cast<size_t>(end - begin));
  bool is_float = text.find('.') != std::string_view::npos ||
                  text.find('e') != std::string_view::npos ||
                  text.find('E') != std::string_view::npos;
  if (is_float) {
    double d = 0;
    auto [ptr, ec] = std::from_chars(c.p, end, d);
    if (ec != std::errc()) return Status::ParseError("bad JSON number");
    return Value::Float(d);
  }
  int64_t i = 0;
  auto [ptr, ec] = std::from_chars(c.p, end, i);
  if (ec != std::errc()) return Status::ParseError("bad JSON number");
  return Value::Int(i);
}

// ---------------------------------------------------------------------------
// Structural index construction
// ---------------------------------------------------------------------------

Status JsonPlugin::Open() {
  if (opened_) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(file_, MmapFile::Open(info_.path));
  PROTEUS_RETURN_NOT_OK(BuildIndex());
  opened_ = true;
  return Status::OK();
}

Status JsonPlugin::BuildIndex() {
  const char* base = file_.data();
  const char* end = base + file_.size();

  // One object per line: the line count bounds the object count.
  size_t lines = 0;
  for (const char* q = base; q < end; ++lines) {
    const char* nl = static_cast<const char*>(memchr(q, '\n', end - q));
    q = nl == nullptr ? end : nl + 1;
  }
  obj_offsets_.reserve(lines);

  // Per-object scratch, reused.
  std::vector<uint64_t> path_hashes;     // doc-order path hash per token
  std::vector<uint64_t> first_sequence;  // object 0's path sequence
  bool schemas_identical = true;

  // One walk per object that indexes every value as it crosses it: a
  // field's path hash folds on from its parent's (FNV-1a over
  // `prefix + "." + name` continues the hash of `prefix`), a nested
  // record's fields are indexed during the walk that crosses the record,
  // and an array's element spans are recorded during the walk that crosses
  // the array, so no byte of the object is scanned twice.
  struct Walker {
    JsonPlugin* self;
    const char* obj_base;
    std::vector<uint64_t>* path_hashes;

    /// Walks the record at the cursor. `seed` is the FNV state that the
    /// field names continue: the initial state at the top level, the hash
    /// of the enclosing path and its '.' below it.
    Status WalkObject(JsonCursor* c, uint64_t seed) {
      PROTEUS_RETURN_NOT_OK(c->Expect('{'));
      c->SkipWs();
      if (!c->Eof() && c->Peek() == '}') {
        ++c->p;
        return Status::OK();
      }
      while (true) {
        std::string_view name;
        PROTEUS_RETURN_NOT_OK(c->ParseName(&name));
        PROTEUS_RETURN_NOT_OK(c->Expect(':'));
        c->SkipWs();
        if (c->Eof()) return Status::ParseError("unexpected end of JSON");
        const uint64_t hash = HashBytes(name.data(), name.size(), seed);
        // The token precedes the fields of a nested record (Fig 4: c.d.d1
        // follows c.d in Level 0), so it takes its slot before the walk.
        const auto idx = static_cast<uint32_t>(self->tokens_.size());
        self->tokens_.emplace_back();
        path_hashes->push_back(hash);
        JsonToken tok;
        tok.start = static_cast<uint32_t>(c->p - obj_base);
        if (c->Peek() == '{') {
          tok.type = JsonTokenType::kObject;
          PROTEUS_RETURN_NOT_OK(WalkObject(c, HashBytes(".", 1, hash)));
        } else if (c->Peek() == '[') {
          tok.type = JsonTokenType::kArray;
          PROTEUS_RETURN_NOT_OK(WalkArray(c, idx));
        } else {
          const char *vs, *ve;
          PROTEUS_RETURN_NOT_OK(c->SkipValue(&vs, &ve, &tok.type));
        }
        tok.end = static_cast<uint32_t>(c->p - obj_base);
        self->tokens_[idx] = tok;

        c->SkipWs();
        if (!c->Eof() && c->Peek() == ',') {
          ++c->p;
          continue;
        }
        break;
      }
      return c->Expect('}');
    }

    /// Records the element spans of the array at the cursor, whose token is
    /// `token_idx`. Elements are not indexed inside: unnest reads them.
    Status WalkArray(JsonCursor* c, uint32_t token_idx) {
      JsonArrayInfo ai;
      ai.token_idx = token_idx;
      ai.elem_begin = static_cast<uint32_t>(self->elems_.size());
      ++c->p;  // '['
      c->SkipWs();
      if (!c->Eof() && c->Peek() == ']') {
        ++c->p;
      } else {
        while (true) {
          const char *es, *ee;
          JsonTokenType et;
          PROTEUS_RETURN_NOT_OK(c->SkipValue(&es, &ee, &et));
          self->elems_.push_back({static_cast<uint32_t>(es - obj_base),
                                  static_cast<uint32_t>(ee - obj_base), et});
          c->SkipWs();
          if (!c->Eof() && c->Peek() == ',') {
            ++c->p;
            continue;
          }
          break;
        }
        PROTEUS_RETURN_NOT_OK(c->Expect(']'));
      }
      ai.elem_count = static_cast<uint32_t>(self->elems_.size()) - ai.elem_begin;
      self->arrays_.push_back(ai);
      return Status::OK();
    }
  };

  // Level 0 of object `o`, whose path sequence is `sorted` ((hash, local
  // idx), sorted): appended as (hash, global idx) pairs.
  auto append_level0 = [&](uint64_t o, const std::vector<std::pair<uint64_t, uint32_t>>& sorted) {
    level0_begin_.push_back(static_cast<uint32_t>(level0_.size()));
    for (const auto& [h, k] : sorted) level0_.emplace_back(h, tok_begin_[o] + k);
  };
  auto sorted_pairs = [](const std::vector<uint64_t>& hashes) {
    std::vector<std::pair<uint64_t, uint32_t>> out;
    out.reserve(hashes.size());
    for (uint32_t k = 0; k < hashes.size(); ++k) out.emplace_back(hashes[k], k);
    std::sort(out.begin(), out.end());
    return out;
  };
  // Objects sharing object 0's path sequence need no Level 0 of their own
  // while every object does: it is built for them only once one differs
  // (or at the end, when the fixed-schema mode is off).
  auto backfill_level0 = [&](uint64_t objects) {
    const auto sorted = sorted_pairs(first_sequence);
    for (uint64_t o = 0; o < objects; ++o) append_level0(o, sorted);
  };

  const uint64_t seed = HashString({});
  const char* p = base;
  while (p < end) {
    const char* line_end = static_cast<const char*>(memchr(p, '\n', end - p));
    if (line_end == nullptr) line_end = end;
    if (line_end == p) {  // blank line
      p = line_end + 1;
      continue;
    }
    obj_offsets_.push_back(static_cast<uint64_t>(p - base));
    tok_begin_.push_back(static_cast<uint32_t>(tokens_.size()));

    path_hashes.clear();
    Walker w{this, p, &path_hashes};
    JsonCursor c{p, line_end};
    Status st = w.WalkObject(&c, seed);
    if (!st.ok()) {
      return Status::ParseError("object " + std::to_string(obj_offsets_.size() - 1) + " in " +
                                info_.path + ": " + st.message());
    }

    const uint64_t oid = obj_offsets_.size() - 1;
    if (oid == 0) {
      first_sequence = path_hashes;
      // Size the flattened tables after object 0.
      // Size the token table after object 0, within a bound no valid file
      // exceeds (a field takes at least 5 bytes: `"":0,`).
      tokens_.reserve(std::min(tokens_.size() * lines, file_.size() / 5));
    } else if (schemas_identical && path_hashes != first_sequence) {
      schemas_identical = false;
      backfill_level0(oid);
    }
    if (!schemas_identical) append_level0(oid, sorted_pairs(path_hashes));

    p = line_end < end ? line_end + 1 : end;
  }
  num_objects_ = obj_offsets_.size();
  tok_begin_.push_back(static_cast<uint32_t>(tokens_.size()));
  const bool fixed = schemas_identical && num_objects_ > 0 && info_.json.exploit_fixed_schema;
  if (schemas_identical && !fixed) backfill_level0(num_objects_);
  if (!fixed) level0_begin_.push_back(static_cast<uint32_t>(level0_.size()));

  // Release growth slack: the index is immutable from here on.
  tokens_.shrink_to_fit();
  elems_.shrink_to_fit();
  arrays_.shrink_to_fit();
  level0_.shrink_to_fit();
  obj_offsets_.shrink_to_fit();

  if (fixed) {
    // Machine-generated data: no Level 0, lookups become deterministic.
    fixed_schema_ = true;
    for (uint32_t k = 0; k < first_sequence.size(); ++k) {
      fixed_slots_.emplace(first_sequence[k], k);
    }
  }
  return Status::OK();
}

size_t JsonPlugin::StructuralIndexBytes() const {
  return tokens_.capacity() * sizeof(JsonToken) + tok_begin_.capacity() * sizeof(uint32_t) +
         elems_.capacity() * sizeof(JsonElem) + arrays_.capacity() * sizeof(JsonArrayInfo) +
         level0_.capacity() * sizeof(std::pair<uint64_t, uint32_t>) +
         level0_begin_.capacity() * sizeof(uint32_t) +
         obj_offsets_.capacity() * sizeof(uint64_t) +
         fixed_slots_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + 16);
}

std::vector<ScanRange> JsonPlugin::Split(uint64_t max_morsels) const {
  return SplitByByteOffsets(obj_offsets_, num_objects_, file_.size(), max_morsels);
}

// ---------------------------------------------------------------------------
// Lookups
// ---------------------------------------------------------------------------

const JsonToken* JsonPlugin::FindTokenByHash(uint64_t oid, uint64_t path_hash) const {
  if (fixed_schema_) {
    auto it = fixed_slots_.find(path_hash);
    if (it == fixed_slots_.end()) return nullptr;
    return &tokens_[tok_begin_[oid] + it->second];
  }
  auto begin = level0_.begin() + level0_begin_[oid];
  auto end = level0_.begin() + level0_begin_[oid + 1];
  auto it = std::lower_bound(begin, end, std::make_pair(path_hash, uint32_t(0)));
  if (it == end || it->first != path_hash) return nullptr;
  return &tokens_[it->second];
}

Result<const JsonToken*> JsonPlugin::FindToken(uint64_t oid, const FieldPath& path) const {
  const JsonToken* tok = FindTokenByHash(oid, HashString(DottedPath(path)));
  if (tok == nullptr) {
    return Status::NotFound("object " + std::to_string(oid) + " has no field '" +
                            DottedPath(path) + "'");
  }
  return tok;
}

Result<Value> JsonPlugin::SpanToValue(const char* s, const char* e, JsonTokenType type) const {
  GlobalCounters().raw_field_accesses++;
  switch (type) {
    case JsonTokenType::kNull:
      return Value::Null();
    case JsonTokenType::kBool:
      return Value::Boolean(*s == 't');
    case JsonTokenType::kInt: {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(s, e, v);
      if (ec != std::errc()) return Status::ParseError("bad int token");
      return Value::Int(v);
    }
    case JsonTokenType::kFloat: {
      double v = 0;
      auto [ptr, ec] = std::from_chars(s, e, v);
      if (ec != std::errc()) return Status::ParseError("bad float token");
      return Value::Float(v);
    }
    case JsonTokenType::kString:
      return Value::Str(UnescapeJsonString(s + 1, e - 1));
    case JsonTokenType::kObject:
    case JsonTokenType::kArray:
      return ParseJsonValue(s, e);
  }
  return Status::Internal("bad token type");
}

Result<Value> JsonPlugin::TokenToValue(uint64_t oid, const JsonToken& tok) const {
  const char* ob = ObjectBase(oid);
  return SpanToValue(ob + tok.start, ob + tok.end, tok.type);
}

Result<Value> JsonPlugin::ReadValue(uint64_t oid, const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(const JsonToken* tok, FindToken(oid, path));
  return TokenToValue(oid, *tok);
}

Status JsonPlugin::ReadColumns(const std::vector<FieldPath>& paths, ScanRange range,
                               const TypedRowSink& sink) {
  const size_t n = paths.size();
  std::vector<uint64_t> hashes;
  hashes.reserve(n);
  for (const FieldPath& p : paths) hashes.push_back(HashString(DottedPath(p)));
  std::vector<JsonSpan> spans(n);
  std::vector<TypedCell> cells(n);
  std::vector<std::string> unescaped(n);  // string cells' bytes
  uint64_t reads = 0;
  for (uint64_t oid = range.begin; oid < range.end; ++oid) {
    LocateFields(oid, hashes.data(), n, spans.data());
    for (size_t c = 0; c < n; ++c) {
      const JsonSpan& v = spans[c];
      TypedCell& cell = cells[c];
      cell = TypedCell{};
      if (v.begin == nullptr) continue;  // absent
      ++reads;
      switch (v.type) {
        case JsonTokenType::kNull:
          break;
        case JsonTokenType::kBool:
          cell.kind = TypedCell::Kind::kBool;
          cell.i = *v.begin == 't' ? 1 : 0;
          break;
        case JsonTokenType::kInt: {
          auto [ptr, ec] = std::from_chars(v.begin, v.end, cell.i);
          if (ec != std::errc()) return Status::ParseError("bad int token");
          cell.kind = TypedCell::Kind::kInt;
          break;
        }
        case JsonTokenType::kFloat: {
          auto [ptr, ec] = std::from_chars(v.begin, v.end, cell.f);
          if (ec != std::errc()) return Status::ParseError("bad float token");
          cell.kind = TypedCell::Kind::kFloat;
          break;
        }
        case JsonTokenType::kString:
          unescaped[c] = UnescapeJsonString(v.begin + 1, v.end - 1);
          cell.kind = TypedCell::Kind::kString;
          cell.s = unescaped[c];
          break;
        case JsonTokenType::kObject:
        case JsonTokenType::kArray:
          return Status::TypeError("field " + DottedPath(paths[c]) + " of object " +
                                   std::to_string(oid) + " is not a primitive leaf");
      }
    }
    sink(oid, cells.data());
  }
  GlobalCounters().raw_field_accesses += reads;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Unnest
// ---------------------------------------------------------------------------

namespace {

/// Lazy element cursor: parses one element per GetNext() call — the unnest
/// code path converts values only when consumed (paper §5.2: lazy plug-ins).
class JsonElemUnnestCursorImpl : public UnnestCursor {
 public:
  JsonElemUnnestCursorImpl(const char* obj_base, const std::vector<JsonElem>* elems,
                           uint32_t begin, uint32_t count)
      : obj_base_(obj_base), elems_(elems), pos_(begin), end_(begin + count) {}

  bool HasNext() override { return pos_ < end_; }

  Result<Value> GetNext() override {
    const JsonElem& e = (*elems_)[pos_++];
    GlobalCounters().raw_field_accesses++;
    return ParseJsonValue(obj_base_ + e.start, obj_base_ + e.end);
  }

 private:
  const char* obj_base_;
  const std::vector<JsonElem>* elems_;
  uint32_t pos_;
  uint32_t end_;
};

}  // namespace

const JsonArrayInfo* JsonPlugin::FindArrayInfo(const JsonToken* tok) const {
  auto idx = static_cast<uint32_t>(tok - tokens_.data());
  auto it = std::lower_bound(arrays_.begin(), arrays_.end(), idx,
                             [](const JsonArrayInfo& a, uint32_t i) { return a.token_idx < i; });
  if (it == arrays_.end() || it->token_idx != idx) return nullptr;
  return &*it;
}

Result<std::unique_ptr<UnnestCursor>> JsonPlugin::UnnestInit(uint64_t oid,
                                                             const FieldPath& path) {
  PROTEUS_ASSIGN_OR_RETURN(const JsonToken* tok, FindToken(oid, path));
  if (tok->type == JsonTokenType::kNull) {
    return std::unique_ptr<UnnestCursor>(new ValueListUnnestCursor({}));
  }
  if (tok->type != JsonTokenType::kArray) {
    return Status::TypeError("field '" + DottedPath(path) + "' is not an array");
  }
  const JsonArrayInfo* ai = FindArrayInfo(tok);
  if (ai == nullptr) return Status::Internal("array token without element info");
  return std::unique_ptr<UnnestCursor>(new JsonElemUnnestCursorImpl(
      ObjectBase(oid), &elems_, ai->elem_begin, ai->elem_count));
}

}  // namespace proteus
