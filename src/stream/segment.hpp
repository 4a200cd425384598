// dnsctx — segmented binary record format for streaming ingestion.
//
// A segment is a self-describing blob holding a run of ConnRecord,
// DnsRecord or EncFlowRecord entries in nondecreasing timestamp order:
//
//   header (40 bytes, little-endian)
//     u32  magic          "DCSG"
//     u16  version        kSegmentVersion (v1) or kSegmentVersionV2
//     u8   kind           0 = conn, 1 = dns, 2 = enc (encrypted-flow
//                         metadata)
//     u8   reserved       0
//     u32  record_count
//     i64  first_ts_us    timestamp of the first record (0 when empty)
//     i64  last_ts_us     timestamp of the last record (0 when empty)
//     u64  payload_bytes
//     u32  payload_crc32  IEEE CRC-32 over the payload bytes
//   payload (v1)
//     record_count × (u32 body_len | body)
//
// Every v1 record body is length-prefixed, and every multi-byte integer
// is little-endian regardless of host order. See docs/FORMAT.md for the
// field-by-field body layouts.
//
// Format v2 (stream/segment_v2.hpp) keeps the same 40-byte header with
// version = 2 but stores a columnar, optionally compressed payload. It
// is the only format the writers produce; v1 stays readable. Readers
// here auto-detect the version: parse_segment materializes both
// formats, and stream/segment_view.hpp iterates either without
// materializing.
//
// Parsers throw std::runtime_error whose message names the `source`
// (segment file path) on any structural defect: bad magic/version,
// truncation, CRC mismatch, or record bodies overrunning the payload.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "capture/records.hpp"

namespace dnsctx::stream {

enum class RecordKind : std::uint8_t { kConn = 0, kDns = 1, kEncFlow = 2 };

[[nodiscard]] std::string_view to_string(RecordKind k);

inline constexpr std::uint32_t kSegmentMagic = 0x47534344u;  // "DCSG" in LE bytes
inline constexpr std::uint16_t kSegmentVersion = 1;
inline constexpr std::uint16_t kSegmentVersionV2 = 2;  ///< columnar; see segment_v2.hpp
inline constexpr std::size_t kSegmentHeaderBytes = 40;

struct SegmentHeader {
  RecordKind kind = RecordKind::kConn;
  std::uint16_t version = kSegmentVersion;
  std::uint32_t record_count = 0;
  SimTime first_ts;
  SimTime last_ts;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc32 = 0;
};

/// IEEE 802.3 CRC-32 (poly 0xEDB88320), the same polynomial zlib uses.
/// `seed` lets callers chain partial buffers: crc32(b, crc32(a)) ==
/// crc32(a+b).
[[nodiscard]] std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0);

/// Append a 40-byte segment header to `out`. `version` selects the
/// format tag, everything else is layout-identical across versions.
/// `first`/`last` are written as 0 when `record_count` is 0.
void append_segment_header(std::string& out, std::uint16_t version, RecordKind kind,
                           std::uint32_t record_count, SimTime first, SimTime last,
                           std::uint64_t payload_bytes, std::uint32_t payload_crc);

/// A fully parsed segment. Exactly one of `conns`/`dns`/`encflows` is
/// populated, per `header.kind`.
struct SegmentData {
  SegmentHeader header;
  std::vector<capture::ConnRecord> conns;
  std::vector<capture::DnsRecord> dns;
  std::vector<capture::EncFlowRecord> encflows;
};

/// Parse and validate a segment blob. `source` names the origin (file
/// path) in every diagnostic.
[[nodiscard]] SegmentData parse_segment(std::string_view bytes, const std::string& source);

/// Parse only the 40-byte header (CRC is NOT checked). Used by spool
/// scans that need time ranges without decoding payloads.
[[nodiscard]] SegmentHeader parse_segment_header(std::string_view bytes,
                                                 const std::string& source);

/// File conveniences.
void write_segment_file(const std::string& path, std::string_view blob);
[[nodiscard]] SegmentData read_segment_file(const std::string& path);

}  // namespace dnsctx::stream
