#include "src/serve/protocol.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "src/common/wire.h"

namespace proteus::serve {

namespace {

// Telemetry block: every QueryTelemetry field in declaration order. The
// block is versioned by the frame header, so adding a field is a version
// bump, not a silent skew between encoder and decoder.
void PutTelemetry(WireWriter* w, const QueryTelemetry& t) {
  w->PutF64(t.optimize_ms);
  w->PutF64(t.compile_ms);
  w->PutBool(t.jit_cache_hit);
  w->PutF64(t.execute_ms);
  w->PutF64(t.cache_build_ms);
  w->PutBool(t.used_jit);
  w->PutBool(t.jit_parallel);
  w->PutBool(t.used_cache);
  w->PutI64(t.threads_used);
  w->PutU64(t.morsels);
  w->PutI64(t.shards_used);
  w->PutU64(t.bytes_exchanged);
  w->PutU64(t.morsels_interpreted);
  w->PutU64(t.morsels_jit);
  w->PutF64(t.swap_ms);
  w->PutF64(t.first_morsel_ms);
  w->PutU64(t.tasks_dealt);
  w->PutU64(t.steals);
  w->PutBool(t.cancelled);
  w->PutStr(t.join_strategy);
  w->PutBool(t.ir_verified);
  w->PutStr(t.fallback_reason);
  w->PutStr(t.plan);
}

Result<QueryTelemetry> GetTelemetry(WireReader* r) {
  QueryTelemetry t;
  PROTEUS_ASSIGN_OR_RETURN(t.optimize_ms, r->F64());
  PROTEUS_ASSIGN_OR_RETURN(t.compile_ms, r->F64());
  PROTEUS_ASSIGN_OR_RETURN(t.jit_cache_hit, r->Bool());
  PROTEUS_ASSIGN_OR_RETURN(t.execute_ms, r->F64());
  PROTEUS_ASSIGN_OR_RETURN(t.cache_build_ms, r->F64());
  PROTEUS_ASSIGN_OR_RETURN(t.used_jit, r->Bool());
  PROTEUS_ASSIGN_OR_RETURN(t.jit_parallel, r->Bool());
  PROTEUS_ASSIGN_OR_RETURN(t.used_cache, r->Bool());
  PROTEUS_ASSIGN_OR_RETURN(int64_t threads, r->I64());
  t.threads_used = static_cast<int>(threads);
  PROTEUS_ASSIGN_OR_RETURN(t.morsels, r->U64());
  PROTEUS_ASSIGN_OR_RETURN(int64_t shards, r->I64());
  t.shards_used = static_cast<int>(shards);
  PROTEUS_ASSIGN_OR_RETURN(t.bytes_exchanged, r->U64());
  PROTEUS_ASSIGN_OR_RETURN(t.morsels_interpreted, r->U64());
  PROTEUS_ASSIGN_OR_RETURN(t.morsels_jit, r->U64());
  PROTEUS_ASSIGN_OR_RETURN(t.swap_ms, r->F64());
  PROTEUS_ASSIGN_OR_RETURN(t.first_morsel_ms, r->F64());
  PROTEUS_ASSIGN_OR_RETURN(t.tasks_dealt, r->U64());
  PROTEUS_ASSIGN_OR_RETURN(t.steals, r->U64());
  PROTEUS_ASSIGN_OR_RETURN(t.cancelled, r->Bool());
  PROTEUS_ASSIGN_OR_RETURN(t.join_strategy, r->Str());
  PROTEUS_ASSIGN_OR_RETURN(t.ir_verified, r->Bool());
  PROTEUS_ASSIGN_OR_RETURN(t.fallback_reason, r->Str());
  PROTEUS_ASSIGN_OR_RETURN(t.plan, r->Str());
  return t;
}

/// The shared strictness rule: a body decoder must consume every byte.
Status RequireAtEnd(const WireReader& r, const char* what) {
  if (!r.AtEnd()) {
    return Status::InvalidArgument(std::string(what) + ": trailing bytes after body");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(const Frame& f) {
  WireWriter w;
  w.PutU8('P');
  w.PutU8('R');
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(f.type));
  w.PutU64(f.query_id);
  std::string payload = w.Take();
  payload += f.body;

  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out;
  out.resize(4);
  std::memcpy(out.data(), &len, 4);
  out += payload;
  return out;
}

Result<Frame> DecodeFramePayload(std::string_view payload) {
  WireReader r(payload);
  PROTEUS_ASSIGN_OR_RETURN(uint8_t m0, r.U8());
  PROTEUS_ASSIGN_OR_RETURN(uint8_t m1, r.U8());
  if (m0 != 'P' || m1 != 'R') {
    return Status::InvalidArgument("serve frame: bad magic");
  }
  PROTEUS_ASSIGN_OR_RETURN(uint8_t version, r.U8());
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("serve frame: unsupported protocol version " +
                                   std::to_string(version));
  }
  PROTEUS_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  switch (static_cast<FrameType>(type)) {
    case FrameType::kQuery:
    case FrameType::kCancel:
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kCancelled:
    case FrameType::kRejected:
      break;
    default:
      return Status::InvalidArgument("serve frame: unknown type " + std::to_string(type));
  }
  Frame f;
  f.type = static_cast<FrameType>(type);
  PROTEUS_ASSIGN_OR_RETURN(f.query_id, r.U64());
  f.body.assign(payload.substr(payload.size() - r.remaining()));
  return f;
}

std::string EncodeQueryBody(std::string_view query_text) {
  WireWriter w;
  w.PutStr(query_text);
  return w.Take();
}

Result<std::string> DecodeQueryBody(std::string_view body) {
  WireReader r(body);
  PROTEUS_ASSIGN_OR_RETURN(std::string text, r.Str());
  PROTEUS_RETURN_NOT_OK(RequireAtEnd(r, "kQuery"));
  return text;
}

std::string EncodeResultBody(const QueryResult& result, const QueryTelemetry& tel) {
  WireWriter w;
  PutTelemetry(&w, tel);
  w.PutU64(result.columns.size());
  for (const auto& c : result.columns) w.PutStr(c);
  w.PutU64(result.rows.size());
  for (const auto& row : result.rows) {
    for (const auto& cell : row) w.PutValue(cell);
  }
  return w.Take();
}

Result<ResultBody> DecodeResultBody(std::string_view body) {
  WireReader r(body);
  ResultBody out;
  PROTEUS_ASSIGN_OR_RETURN(out.telemetry, GetTelemetry(&r));
  PROTEUS_ASSIGN_OR_RETURN(uint64_t ncols, r.U64());
  if (ncols > r.remaining()) {
    return Status::InvalidArgument("kResult: column count exceeds payload");
  }
  out.result.columns.reserve(ncols);
  for (uint64_t i = 0; i < ncols; ++i) {
    PROTEUS_ASSIGN_OR_RETURN(std::string col, r.Str());
    out.result.columns.push_back(std::move(col));
  }
  PROTEUS_ASSIGN_OR_RETURN(uint64_t nrows, r.U64());
  if (nrows > r.remaining() + 1) {
    return Status::InvalidArgument("kResult: row count exceeds payload");
  }
  out.result.rows.reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    std::vector<Value> row;
    row.reserve(ncols);
    for (uint64_t j = 0; j < ncols; ++j) {
      PROTEUS_ASSIGN_OR_RETURN(Value v, r.ReadValue());
      row.push_back(std::move(v));
    }
    out.result.rows.push_back(std::move(row));
  }
  PROTEUS_RETURN_NOT_OK(RequireAtEnd(r, "kResult"));
  return out;
}

std::string EncodeErrorBody(const Status& s) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(s.code()));
  w.PutStr(s.message());
  return w.Take();
}

Status DecodeErrorBody(std::string_view body, Status* out) {
  WireReader r(body);
  PROTEUS_ASSIGN_OR_RETURN(uint8_t code, r.U8());
  PROTEUS_ASSIGN_OR_RETURN(std::string msg, r.Str());
  PROTEUS_RETURN_NOT_OK(RequireAtEnd(r, "kError"));
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return Status::InvalidArgument("kError: status code out of range");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

std::string EncodeCancelledBody(const QueryTelemetry& tel) {
  WireWriter w;
  PutTelemetry(&w, tel);
  return w.Take();
}

Result<QueryTelemetry> DecodeCancelledBody(std::string_view body) {
  WireReader r(body);
  PROTEUS_ASSIGN_OR_RETURN(QueryTelemetry tel, GetTelemetry(&r));
  PROTEUS_RETURN_NOT_OK(RequireAtEnd(r, "kCancelled"));
  return tel;
}

std::string EncodeRejectedBody(std::string_view reason) {
  WireWriter w;
  w.PutStr(reason);
  return w.Take();
}

Result<std::string> DecodeRejectedBody(std::string_view body) {
  WireReader r(body);
  PROTEUS_ASSIGN_OR_RETURN(std::string reason, r.Str());
  PROTEUS_RETURN_NOT_OK(RequireAtEnd(r, "kRejected"));
  return reason;
}

namespace {

Status WriteFull(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("serve write: ") + std::strerror(errno));
    }
    if (w == 0) return Status::IOError("serve write: peer closed");
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

/// Returns false on clean EOF before the first byte; errors mid-buffer.
Result<bool> ReadFull(int fd, char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("serve read: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (off == 0) return false;
      return Status::IOError("serve read: truncated frame (peer closed mid-frame)");
    }
    off += static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

Status WriteFrame(int fd, const Frame& f) {
  const std::string bytes = EncodeFrame(f);
  return WriteFull(fd, bytes.data(), bytes.size());
}

Result<Frame> ReadFrame(int fd) {
  char lenbuf[4];
  PROTEUS_ASSIGN_OR_RETURN(bool got, ReadFull(fd, lenbuf, 4));
  if (!got) return Status::NotFound("serve read: connection closed");
  uint32_t len = 0;
  std::memcpy(&len, lenbuf, 4);
  if (len < 12 /* header */ || len > kMaxFrameBytes) {
    return Status::InvalidArgument("serve read: frame length " + std::to_string(len) +
                                   " out of bounds");
  }
  std::string payload(len, '\0');
  PROTEUS_ASSIGN_OR_RETURN(got, ReadFull(fd, payload.data(), payload.size()));
  if (!got) return Status::IOError("serve read: truncated frame (peer closed mid-frame)");
  return DecodeFramePayload(payload);
}

}  // namespace proteus::serve
