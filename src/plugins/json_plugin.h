// JSON input plug-in with a two-level structural index (paper §5.2, Fig 4).
//
// The dataset is newline-delimited JSON (one object per line, matching the
// paper's multi-object files). On first access the plug-in validates the
// input and builds, per object:
//
//   Level 1 — tokens: the byte span and type of every record field value
//     reachable without crossing an array (nested record fields get their own
//     tokens, e.g. `origin.country`), plus one token per array field. Array
//     *element* spans are stored in a side table referenced by the array
//     token, since the Unnest operator applies the same action to every
//     element and needs no name lookups (paper: array contents are omitted
//     from Level 0).
//
//   Level 0 — an associative structure mapping dotted field paths to their
//     Level-1 token, making lookups deterministic despite arbitrary per-
//     object field order. Implemented as a per-object (path-hash, token)
//     array sorted for binary search.
//
// Specializing per dataset contents: while building the index the plug-in
// checks whether every object yields the identical path sequence (machine-
// generated data). If so, Level 0 is dropped entirely and lookups become a
// single dataset-level map from path to token slot (paper: "drop Level 0
// because the lookup process is now deterministic").
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/mmap_file.h"
#include "src/plugins/plugin.h"

namespace proteus {

enum class JsonTokenType : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kFloat,
  kString,
  kObject,
  kArray,
};

/// A Level-1 entry: byte span (relative to the object start) and type of one
/// field value. Kept to 12 bytes — index compactness is a reported result
/// (the paper's indexes are ~15-25% of the JSON file).
struct JsonToken {
  uint32_t start = 0;
  uint32_t end = 0;
  JsonTokenType type = JsonTokenType::kNull;
};

/// Array bookkeeping for the few tokens that are arrays: global token index
/// -> element span range in the elems table. Stored sorted (append order).
struct JsonArrayInfo {
  uint32_t token_idx = 0;   ///< global index into the token table
  uint32_t elem_begin = 0;  ///< first element in the elems table
  uint32_t elem_count = 0;
};

/// An array element span (start/end relative to the object start).
struct JsonElem {
  uint32_t start = 0;
  uint32_t end = 0;
  JsonTokenType type = JsonTokenType::kNull;
};

/// One located JSON value: its byte span and token type (kNull also when
/// the field is absent; `JsonSpan{}` is an absent value). No member
/// initializers: the generated-code read helpers keep a small array of
/// these on the stack for the locate call to fill, and zeroing it on every
/// call measurably slows each read.
struct JsonSpan {
  const char* begin;
  const char* end;
  JsonTokenType type;
};

class JsonPlugin : public InputPlugin {
 public:
  explicit JsonPlugin(DatasetInfo info) : info_(std::move(info)) {}

  const DatasetInfo& info() const override { return info_; }
  const char* name() const override { return "json"; }
  Status Open() override;
  uint64_t NumRecords() const override { return num_objects_; }
  Result<Value> ReadValue(uint64_t oid, const FieldPath& path) override;
  /// Hashes every path once per call, then per object one index lookup and
  /// one typed conversion per field.
  Status ReadColumns(const std::vector<FieldPath>& paths, ScanRange range,
                     const TypedRowSink& sink) override;
  Status CollectStats(StatsStore* store) override { return CollectStatsByColumns(this, store); }
  Result<std::unique_ptr<UnnestCursor>> UnnestInit(uint64_t oid,
                                                   const FieldPath& path) override;
  double CostPerTuple() const override { return 8.0; }   // verbose format navigation
  double CostPerField() const override { return 10.0; }  // conversion from text
  size_t StructuralIndexBytes() const override;
  /// Morsels balanced by object bytes via the structural index's offsets
  /// (JSON objects vary widely in width; see SplitByByteOffsets).
  std::vector<ScanRange> Split(uint64_t max_morsels) const override;

  /// True when Level 0 was dropped in favour of deterministic slots.
  bool fixed_schema() const { return fixed_schema_; }

  /// Finds the Level-1 token for `path` in object `oid` (JIT helper entry).
  Result<const JsonToken*> FindToken(uint64_t oid, const FieldPath& path) const;
  const JsonToken* FindTokenByHash(uint64_t oid, uint64_t path_hash) const;
  /// Locates the fields `path_hashes` (HashString of each dotted path) of
  /// object `oid` through the structural index: the plug-in's access code
  /// for generated reads (proteus_json_read). Inline: it sits on every
  /// generated JSON read.
  void LocateFields(uint64_t oid, const uint64_t* path_hashes, size_t n, JsonSpan* out) const {
    const char* b = ObjectBase(oid);
    for (size_t i = 0; i < n; ++i) {
      const JsonToken* t = FindTokenByHash(oid, path_hashes[i]);
      out[i] = t == nullptr ? JsonSpan{} : JsonSpan{b + t->start, b + t->end, t->type};
    }
  }
  /// Element range of an array token (binary search in the side table).
  const JsonArrayInfo* FindArrayInfo(const JsonToken* tok) const;

  /// Converts a token/element span of object `oid` to a boxed Value.
  Result<Value> TokenToValue(uint64_t oid, const JsonToken& tok) const;

  const MmapFile& file() const { return file_; }
  const char* ObjectBase(uint64_t oid) const { return file_.data() + obj_offsets_[oid]; }
  const std::vector<JsonElem>& elems() const { return elems_; }

 private:
  Status BuildIndex();
  Result<Value> SpanToValue(const char* s, const char* e, JsonTokenType type) const;

  DatasetInfo info_;
  MmapFile file_;
  bool opened_ = false;

  uint64_t num_objects_ = 0;
  std::vector<uint64_t> obj_offsets_;

  // Level 1 (flattened across objects; per-object slice via tok_begin_).
  std::vector<JsonToken> tokens_;
  std::vector<uint32_t> tok_begin_;
  std::vector<JsonElem> elems_;
  std::vector<JsonArrayInfo> arrays_;  // sorted by token_idx

  // Level 0, variable-schema mode: per-object sorted (hash, local idx).
  std::vector<std::pair<uint64_t, uint32_t>> level0_;
  std::vector<uint32_t> level0_begin_;

  // Fixed-schema mode: dataset-level path-hash -> slot.
  bool fixed_schema_ = false;
  std::unordered_map<uint64_t, uint32_t> fixed_slots_;

  friend class JsonElemUnnestCursor;
};

/// Parses a standalone JSON value (used for array elements and whole nested
/// objects). Exposed for tests.
Result<Value> ParseJsonValue(const char* begin, const char* end);

/// Finds fields `names` among the top-level fields of the JSON object
/// [begin, end) in one scan with the plug-in's own scanner, stopping once
/// all are found, and reports each one's value span and token type in
/// `out`. The first occurrence of a name wins; an absent field, or every
/// field when the span is no object, reports kNull. Generated unnest loops
/// locate array-element fields through it (proteus_unnest_read).
void FindJsonFields(const char* begin, const char* end, const std::string_view* names,
                    size_t n, JsonSpan* out);

/// The contents [s, e) of a JSON string literal (quotes stripped),
/// unescaped: the bytes ReadValue returns for it.
std::string UnescapeJsonString(const char* s, const char* e);

}  // namespace proteus
