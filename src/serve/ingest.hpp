// dnsctx — the length-prefixed TCP ingest protocol.
//
// A producer connection opens with one handshake frame and then streams
// data frames; every multi-byte integer is little-endian (matching the
// segment format it carries):
//
//   handshake (8 + N bytes)
//     u32  magic        "DCSV"
//     u16  version      kIngestVersion
//     u8   flags        bit 0: request a u64 ack after every frame
//     u8   tenant_len   1..64
//     ...  tenant       [A-Za-z0-9._-]{1,64}
//
//   data frame
//     u32  len
//     ...  body         len bytes: one COMPLETE segment blob in the
//                       src/stream wire format (40-byte header + CRC'd
//                       v2 payload, SegmentView-validated; a v1 blob is
//                       refused like any other malformed frame)
//
//   len == 0 is the FLUSH frame: release every record still buffered in
//   the tenant's reorder window to the study engine (end of stream, or
//   a producer forcing its partial results visible).
//
//   ack (server → producer, only when handshake flag bit 0 was set)
//     u64  records released to the tenant's study engine so far —
//          i.e. the count visible to /results/<tenant> at that instant.
//
// FrameDecoder is the transport-free core: bytes in, typed events out.
// The server feeds it from nonblocking reads; the fuzz harness feeds it
// garbage. Any structural defect (bad magic, oversized length, CRC
// mismatch, truncated segment, trailing bytes) surfaces as kError with
// a message naming the peer — the server closes that one connection and
// keeps serving everyone else.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "stream/segment_view.hpp"

namespace dnsctx::serve {

inline constexpr std::uint32_t kIngestMagic = 0x56534344u;  // "DCSV" in LE bytes
inline constexpr std::uint16_t kIngestVersion = 1;
inline constexpr std::uint8_t kIngestFlagAcks = 0x01;
inline constexpr std::size_t kMaxTenantName = 64;

/// True when `name` is a valid tenant identifier: 1..64 chars drawn
/// from [A-Za-z0-9._-]. The charset is strict on purpose — tenant
/// names flow into metric label blocks and result-file paths.
[[nodiscard]] bool valid_tenant_name(std::string_view name);

struct Handshake {
  std::string tenant;
  bool want_acks = false;
};

/// Serialize a handshake / data frame / flush frame (producer side).
[[nodiscard]] std::string encode_handshake(const Handshake& hs);
void append_data_frame(std::string& out, std::string_view segment_blob);
void append_flush_frame(std::string& out);

class FrameDecoder {
 public:
  enum class Event {
    kNeedMore,   ///< buffer exhausted; feed more bytes
    kHandshake,  ///< handshake parsed — handshake() is valid
    kSegment,    ///< data frame parsed — segment() is valid
    kFlush,      ///< flush frame
    kError,      ///< protocol violation — error() names it; terminal
  };

  struct Limits {
    std::size_t max_frame_bytes = 16u << 20;  ///< oversized length = attack/corruption
  };

  /// `source` names the peer in every diagnostic ("tcp 1.2.3.4:5678").
  explicit FrameDecoder(std::string source) : FrameDecoder{std::move(source), Limits{}} {}
  FrameDecoder(std::string source, Limits limits);

  /// Append raw bytes from the transport.
  void feed(std::string_view bytes);

  /// Pull the next event. After kError the decoder is poisoned and
  /// keeps returning kError.
  [[nodiscard]] Event next();

  [[nodiscard]] const Handshake& handshake() const { return handshake_; }
  /// The segment validated by the last kSegment event: a fully checked
  /// zero-copy view owning its frame bytes, ready to hand to a tenant
  /// queue (moved-from after the caller takes it — valid until the
  /// next next()).
  [[nodiscard]] stream::SegmentView& segment() { return segment_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool handshaken() const { return state_ != State::kHandshake; }

  /// Bytes buffered but not yet consumed (bounded by one frame).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  enum class State { kHandshake, kFrameHeader, kFrameBody, kError };

  [[nodiscard]] Event fail(std::string msg);
  void compact();

  std::string source_;
  Limits limits_;
  State state_ = State::kHandshake;
  std::string buf_;
  std::size_t pos_ = 0;
  std::uint32_t frame_len_ = 0;
  Handshake handshake_;
  stream::SegmentView segment_;
  std::string error_;
};

}  // namespace dnsctx::serve
