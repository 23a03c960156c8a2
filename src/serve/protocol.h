// Wire protocol of the query server (src/serve/server.h).
//
// Frames cross the socket as [u32 length][payload]; the payload is encoded
// with the same WireWriter/WireReader primitives the shard boundary uses
// (src/common/wire.h) — fixed-width integers, bit-pattern doubles,
// length-prefixed strings — plus a 4-byte header:
//
//   'P' 'R'  u8 version  u8 type  u64 query_id  <type-specific body>
//
// Requests (client -> server):
//   kQuery      body = Str query text (either engine syntax)
//   kCancel     no body; query_id names the in-flight query to cancel
//
// Responses (server -> client), one per kQuery, any order across queries:
//   kResult     body = telemetry block, then the result's columns and rows
//   kError      body = u8 StatusCode + Str message (the engine's Status)
//   kCancelled  body = telemetry block (cancelled = true); the query stopped
//               at a morsel boundary after its kCancel landed
//   kRejected   body = Str reason; the admission gate was full — an explicit
//               overload signal, never a hang
//
// Decoders are strict: trailing bytes after a well-formed body are rejected
// with InvalidArgument (the same !AtEnd() rule the shard PartialResult codec
// enforces), so a corrupted or malicious peer cannot smuggle garbage past
// the framing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/core/query_engine.h"
#include "src/engine/result.h"

namespace proteus::serve {

/// Protocol version this build speaks. A mismatched peer gets kError.
constexpr uint8_t kProtocolVersion = 4;

/// Upper bound on a single frame's payload (guards the u32 length prefix:
/// a malformed peer cannot make the reader allocate unbounded memory).
constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : uint8_t {
  kQuery = 1,
  kCancel = 2,
  kResult = 16,
  kError = 17,
  kCancelled = 18,
  kRejected = 19,
};

/// One decoded frame. `body` is the type-specific payload after the header.
struct Frame {
  FrameType type = FrameType::kError;
  uint64_t query_id = 0;
  std::string body;
};

/// Encodes a complete frame: u32 length prefix + header + body.
std::string EncodeFrame(const Frame& f);

/// Decodes the payload of one frame (the bytes after the length prefix).
/// Rejects bad magic, unknown version/type, and truncation.
Result<Frame> DecodeFramePayload(std::string_view payload);

// Body codecs. Each Decode* consumes the whole body and rejects trailing
// bytes.

std::string EncodeQueryBody(std::string_view query_text);
Result<std::string> DecodeQueryBody(std::string_view body);

std::string EncodeResultBody(const QueryResult& result, const QueryTelemetry& tel);
struct ResultBody {
  QueryResult result;
  QueryTelemetry telemetry;
};
Result<ResultBody> DecodeResultBody(std::string_view body);

std::string EncodeErrorBody(const Status& s);
/// Decodes the (non-OK) Status the server sent into *out; the return value
/// reports decode success. (Result<Status> would be ill-formed — the value
/// and error constructors collide.)
Status DecodeErrorBody(std::string_view body, Status* out);

std::string EncodeCancelledBody(const QueryTelemetry& tel);
Result<QueryTelemetry> DecodeCancelledBody(std::string_view body);

std::string EncodeRejectedBody(std::string_view reason);
Result<std::string> DecodeRejectedBody(std::string_view body);

// Socket helpers (POSIX fd): length-prefixed frame I/O with EINTR retry.
// ReadFrame returns NotFound on clean EOF at a frame boundary (the peer
// closed), IOError mid-frame.

Status WriteFrame(int fd, const Frame& f);
Result<Frame> ReadFrame(int fd);

}  // namespace proteus::serve
