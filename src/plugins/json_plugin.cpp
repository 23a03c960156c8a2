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
    } else if (c == 't' || c == 'f') {
      *type = JsonTokenType::kBool;
      p += (c == 't') ? 4 : 5;
      if (p > end) return Status::ParseError("truncated JSON literal");
    } else if (c == 'n') {
      *type = JsonTokenType::kNull;
      p += 4;
      if (p > end) return Status::ParseError("truncated JSON literal");
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

  // Per-object scratch, reused.
  std::vector<uint64_t> path_hashes;     // doc-order path hash per token
  std::vector<uint64_t> first_sequence;  // object 0's path sequence
  bool schemas_identical = true;

  // Recursive object walker: records tokens for record fields (recursing into
  // nested objects) and element spans for arrays.
  struct Walker {
    JsonPlugin* self;
    const char* obj_base;
    std::vector<uint64_t>* path_hashes;

    Status WalkObject(JsonCursor* c, const std::string& prefix) {
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
        const char *vs, *ve;
        JsonTokenType vt;
        PROTEUS_RETURN_NOT_OK(c->SkipValue(&vs, &ve, &vt));
        std::string path = prefix.empty() ? std::string(name) : prefix + "." + std::string(name);

        JsonToken tok;
        tok.start = static_cast<uint32_t>(vs - obj_base);
        tok.end = static_cast<uint32_t>(ve - obj_base);
        tok.type = vt;
        if (vt == JsonTokenType::kArray) {
          JsonArrayInfo ai;
          ai.token_idx = static_cast<uint32_t>(self->tokens_.size());
          ai.elem_begin = static_cast<uint32_t>(self->elems_.size());
          JsonCursor ac{vs, ve};
          PROTEUS_RETURN_NOT_OK(ac.Expect('['));
          ac.SkipWs();
          uint32_t count = 0;
          if (!ac.Eof() && ac.Peek() != ']') {
            while (true) {
              const char *es, *ee;
              JsonTokenType et;
              PROTEUS_RETURN_NOT_OK(ac.SkipValue(&es, &ee, &et));
              self->elems_.push_back({static_cast<uint32_t>(es - obj_base),
                                      static_cast<uint32_t>(ee - obj_base), et});
              ++count;
              ac.SkipWs();
              if (!ac.Eof() && ac.Peek() == ',') {
                ++ac.p;
                continue;
              }
              break;
            }
          }
          ai.elem_count = count;
          self->arrays_.push_back(ai);
        }
        self->tokens_.push_back(tok);
        path_hashes->push_back(HashString(path));

        if (vt == JsonTokenType::kObject) {
          // Register nested record fields too (Fig 4: c.d.d1 is in Level 0).
          JsonCursor nested{vs, ve};
          PROTEUS_RETURN_NOT_OK(WalkObject(&nested, path));
        }

        c->SkipWs();
        if (!c->Eof() && c->Peek() == ',') {
          ++c->p;
          continue;
        }
        break;
      }
      return c->Expect('}');
    }
  };

  const char* p = base;
  while (p < end) {
    // One object per line.
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
    Status st = w.WalkObject(&c, "");
    if (!st.ok()) {
      return Status::ParseError("object " + std::to_string(obj_offsets_.size() - 1) + " in " +
                                info_.path + ": " + st.message());
    }

    if (obj_offsets_.size() == 1) {
      first_sequence = path_hashes;
    } else if (schemas_identical && path_hashes != first_sequence) {
      schemas_identical = false;
    }

    // Level 0 for this object: sorted (hash, local idx).
    uint32_t slice_begin = tok_begin_.back();
    level0_begin_.push_back(static_cast<uint32_t>(level0_.size()));
    for (uint32_t k = 0; k < path_hashes.size(); ++k) {
      level0_.emplace_back(path_hashes[k], slice_begin + k);
    }
    auto l0b = level0_.begin() + level0_begin_.back();
    std::sort(l0b, level0_.end());

    p = line_end < end ? line_end + 1 : end;
  }
  num_objects_ = obj_offsets_.size();
  tok_begin_.push_back(static_cast<uint32_t>(tokens_.size()));
  level0_begin_.push_back(static_cast<uint32_t>(level0_.size()));

  // Release growth slack: the index is immutable from here on.
  tokens_.shrink_to_fit();
  elems_.shrink_to_fit();
  arrays_.shrink_to_fit();
  level0_.shrink_to_fit();
  obj_offsets_.shrink_to_fit();

  if (schemas_identical && num_objects_ > 0 && info_.json.exploit_fixed_schema) {
    // Machine-generated data: drop Level 0, lookups become deterministic.
    fixed_schema_ = true;
    for (uint32_t k = 0; k < first_sequence.size(); ++k) {
      fixed_slots_.emplace(first_sequence[k], k);
    }
    level0_.clear();
    level0_.shrink_to_fit();
    level0_begin_.clear();
    level0_begin_.shrink_to_fit();
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
