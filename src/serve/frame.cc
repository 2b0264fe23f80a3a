#include "serve/frame.h"

#include <cmath>
#include <cstring>

#include "core/semantic_unit.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace csd::serve {

namespace {

/// Bounds-checked little-endian reader over one frame payload. Every
/// read either succeeds in full or flips `ok` and returns zero — after
/// which the parser bails with one ParseError instead of over-reading.
class Cursor {
 public:
  explicit Cursor(std::span<const uint8_t> data) : data_(data) {}

  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    if (!ok_ || data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      return value;
    }
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string ReadRemainderAsText() {
    if (!ok_) return {};
    std::string text(reinterpret_cast<const char*>(data_.data()) + pos_,
                     data_.size() - pos_);
    pos_ = data_.size();
    return text;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

template <typename T>
void AppendRaw(const T& value, std::vector<uint8_t>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), bytes, bytes + sizeof(T));
}

/// Reserves a header slot, returns the offset to patch payload_len into
/// once the payload is appended.
size_t AppendHeader(FrameType type, uint32_t request_id, uint32_t deadline_ms,
                    std::vector<uint8_t>* out) {
  size_t at = out->size();
  FrameHeader header;
  header.type = static_cast<uint8_t>(type);
  header.request_id = request_id;
  header.deadline_ms = deadline_ms;
  AppendRaw(header.payload_len, out);
  AppendRaw(header.type, out);
  AppendRaw(header.flags, out);
  AppendRaw(header.reserved, out);
  AppendRaw(header.request_id, out);
  AppendRaw(header.deadline_ms, out);
  return at;
}

void PatchPayloadLen(size_t header_at, std::vector<uint8_t>* out) {
  uint32_t len =
      static_cast<uint32_t>(out->size() - header_at - kFrameHeaderSize);
  std::memcpy(out->data() + header_at, &len, sizeof(len));
}

bool IsKnownType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kAnnotateReq:
    case FrameType::kJourneyReq:
    case FrameType::kQueryUnitReq:
    case FrameType::kRebuildReq:
    case FrameType::kStatsReq:
    case FrameType::kIngestFix:
    case FrameType::kAnnotateResp:
    case FrameType::kTextResp:
    case FrameType::kErrorResp:
      return true;
  }
  return false;
}

/// Wire code <-> StatusCode. The enum's numeric values are not a wire
/// contract (they could be reordered), so the mapping is explicit; an
/// unknown wire code decodes as kInternal rather than failing the frame.
uint16_t WireCodeOf(StatusCode code) { return static_cast<uint16_t>(code); }

StatusCode StatusCodeOfWire(uint16_t wire) {
  switch (static_cast<StatusCode>(wire)) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kIoError:
    case StatusCode::kParseError:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
      return static_cast<StatusCode>(wire);
  }
  return StatusCode::kInternal;
}

}  // namespace

DecodeStatus DecodeFrame(std::span<const uint8_t> buffer, DecodedFrame* out,
                         size_t* consumed, Status* error) {
  if (buffer.size() < kFrameHeaderSize) return DecodeStatus::kNeedMore;
  FrameHeader header;
  std::memcpy(&header.payload_len, buffer.data(), 4);
  header.type = buffer[4];
  header.flags = buffer[5];
  std::memcpy(&header.reserved, buffer.data() + 6, 2);
  std::memcpy(&header.request_id, buffer.data() + 8, 4);
  std::memcpy(&header.deadline_ms, buffer.data() + 12, 4);

  // Validate the header before trusting its length: a corrupt length
  // must not make the reader buffer megabytes waiting for a frame that
  // will never arrive.
  if (header.payload_len > kMaxFramePayload) {
    *error = Status::ParseError(StrFormat(
        "frame: payload length %u exceeds the %u-byte ceiling",
        header.payload_len, kMaxFramePayload));
    return DecodeStatus::kError;
  }
  if (!IsKnownType(header.type)) {
    *error = Status::ParseError(
        StrFormat("frame: unknown frame type %u", header.type));
    return DecodeStatus::kError;
  }
  if (header.flags != 0) {
    *error = Status::ParseError(
        StrFormat("frame: nonzero flags 0x%x (no flags defined)",
                  header.flags));
    return DecodeStatus::kError;
  }
  if (buffer.size() - kFrameHeaderSize < header.payload_len) {
    return DecodeStatus::kNeedMore;
  }
  out->header = header;
  out->payload = buffer.subspan(kFrameHeaderSize, header.payload_len);
  *consumed = kFrameHeaderSize + header.payload_len;
  return DecodeStatus::kFrame;
}

Result<NetRequest> ParseRequestFrame(const DecodedFrame& frame) {
  CSD_FAILPOINT("serve/parse");
  NetRequest request;
  request.type = static_cast<FrameType>(frame.header.type);
  request.request_id = frame.header.request_id;
  request.deadline_ms = frame.header.deadline_ms;
  Cursor cursor(frame.payload);
  switch (request.type) {
    case FrameType::kAnnotateReq: {
      uint32_t count = cursor.Read<uint32_t>();
      // Cross-check the count against the actual payload size before
      // reserving: a flipped count byte must not turn into a giant
      // allocation.
      constexpr size_t kStaySize = 8 + 8 + 8;  // x, y, time
      if (!cursor.ok() ||
          frame.payload.size() != sizeof(uint32_t) + count * kStaySize) {
        return Status::ParseError(
            "annotate frame: stay count disagrees with payload length");
      }
      request.stays.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        double x = cursor.Read<double>();
        double y = cursor.Read<double>();
        Timestamp t = cursor.Read<Timestamp>();
        request.stays.emplace_back(Vec2{x, y}, t);
      }
      break;
    }
    case FrameType::kJourneyReq: {
      for (int i = 0; i < 2; ++i) {
        double x = cursor.Read<double>();
        double y = cursor.Read<double>();
        Timestamp t = cursor.Read<Timestamp>();
        request.stays.emplace_back(Vec2{x, y}, t);
      }
      break;
    }
    case FrameType::kQueryUnitReq:
      request.unit = cursor.Read<uint32_t>();
      break;
    case FrameType::kRebuildReq:
    case FrameType::kStatsReq:
      break;
    case FrameType::kIngestFix: {
      request.user_id = cursor.Read<uint32_t>();
      uint32_t count = cursor.Read<uint32_t>();
      constexpr size_t kFixSize = 8 + 8 + 8;  // x, y, time
      if (!cursor.ok() ||
          frame.payload.size() != 2 * sizeof(uint32_t) + count * kFixSize) {
        return Status::ParseError(
            "ingest frame: fix count disagrees with payload length");
      }
      request.fixes.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        double x = cursor.Read<double>();
        double y = cursor.Read<double>();
        Timestamp t = cursor.Read<Timestamp>();
        // Non-finite coordinates would poison every popularity fold they
        // touch downstream; reject them at the wire, not in the detector.
        if (!std::isfinite(x) || !std::isfinite(y)) {
          return Status::ParseError("ingest frame: non-finite coordinate");
        }
        request.fixes.push_back(GpsPoint{Vec2{x, y}, t});
      }
      break;
    }
    default:
      return Status::ParseError("frame: response type on the request path");
  }
  if (!cursor.exhausted()) {
    return Status::ParseError("frame: truncated or over-long payload");
  }
  return request;
}

Result<NetResponse> ParseResponseFrame(const DecodedFrame& frame) {
  NetResponse response;
  response.type = static_cast<FrameType>(frame.header.type);
  response.request_id = frame.header.request_id;
  Cursor cursor(frame.payload);
  switch (response.type) {
    case FrameType::kAnnotateResp: {
      response.snapshot_version = cursor.Read<uint64_t>();
      uint32_t count = cursor.Read<uint32_t>();
      constexpr size_t kEntrySize = 4 + 4;  // unit, semantic bits
      if (!cursor.ok() || frame.payload.size() !=
                              sizeof(uint64_t) + sizeof(uint32_t) +
                                  count * kEntrySize) {
        return Status::ParseError(
            "annotate response: unit count disagrees with payload length");
      }
      response.units.reserve(count);
      response.semantic_bits.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        response.units.push_back(cursor.Read<uint32_t>());
        response.semantic_bits.push_back(cursor.Read<uint32_t>());
      }
      break;
    }
    case FrameType::kTextResp:
      response.text = cursor.ReadRemainderAsText();
      break;
    case FrameType::kErrorResp:
      response.code = StatusCodeOfWire(cursor.Read<uint16_t>());
      response.message = cursor.ReadRemainderAsText();
      break;
    default:
      return Status::ParseError("frame: request type on the response path");
  }
  if (!cursor.exhausted()) {
    return Status::ParseError("frame: truncated or over-long payload");
  }
  return response;
}

void AppendAnnotateRequest(uint32_t request_id, uint32_t deadline_ms,
                           std::span<const StayPoint> stays,
                           std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kAnnotateReq, request_id, deadline_ms,
                           out);
  AppendRaw(static_cast<uint32_t>(stays.size()), out);
  for (const StayPoint& sp : stays) {
    AppendRaw(sp.position.x, out);
    AppendRaw(sp.position.y, out);
    AppendRaw(sp.time, out);
  }
  PatchPayloadLen(at, out);
}

void AppendJourneyRequest(uint32_t request_id, uint32_t deadline_ms,
                          const StayPoint& pickup, const StayPoint& dropoff,
                          std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kJourneyReq, request_id, deadline_ms,
                           out);
  for (const StayPoint* sp : {&pickup, &dropoff}) {
    AppendRaw(sp->position.x, out);
    AppendRaw(sp->position.y, out);
    AppendRaw(sp->time, out);
  }
  PatchPayloadLen(at, out);
}

void AppendQueryUnitRequest(uint32_t request_id, uint32_t unit,
                            std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kQueryUnitReq, request_id, 0, out);
  AppendRaw(unit, out);
  PatchPayloadLen(at, out);
}

void AppendRebuildRequest(uint32_t request_id, std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kRebuildReq, request_id, 0, out);
  PatchPayloadLen(at, out);
}

void AppendStatsRequest(uint32_t request_id, std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kStatsReq, request_id, 0, out);
  PatchPayloadLen(at, out);
}

void AppendIngestFixRequest(uint32_t request_id, uint32_t user_id,
                            std::span<const GpsPoint> fixes,
                            std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kIngestFix, request_id, 0, out);
  AppendRaw(user_id, out);
  AppendRaw(static_cast<uint32_t>(fixes.size()), out);
  for (const GpsPoint& fix : fixes) {
    AppendRaw(fix.position.x, out);
    AppendRaw(fix.position.y, out);
    AppendRaw(fix.time, out);
  }
  PatchPayloadLen(at, out);
}

void AppendAnnotateResponse(uint32_t request_id, const AnnotateResult& result,
                            std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kAnnotateResp, request_id, 0, out);
  AppendRaw(result.snapshot_version, out);
  AppendRaw(static_cast<uint32_t>(result.stays.size()), out);
  for (size_t i = 0; i < result.stays.size(); ++i) {
    uint32_t unit = i < result.units.size() ? result.units[i] : kNoUnit;
    AppendRaw(unit, out);
    AppendRaw(result.stays[i].semantic.bits(), out);
  }
  PatchPayloadLen(at, out);
}

void AppendTextResponse(uint32_t request_id, std::string_view text,
                        std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kTextResp, request_id, 0, out);
  out->insert(out->end(), text.begin(), text.end());
  PatchPayloadLen(at, out);
}

void AppendErrorResponse(uint32_t request_id, const Status& status,
                         std::vector<uint8_t>* out) {
  size_t at = AppendHeader(FrameType::kErrorResp, request_id, 0, out);
  AppendRaw(WireCodeOf(status.code()), out);
  const std::string& message = status.message();
  out->insert(out->end(), message.begin(), message.end());
  PatchPayloadLen(at, out);
}

}  // namespace csd::serve
