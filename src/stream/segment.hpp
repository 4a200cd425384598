// dnsctx — segmented binary record format for streaming ingestion.
//
// A segment is a self-describing blob holding a run of ConnRecord,
// DnsRecord or EncFlowRecord entries in nondecreasing timestamp order:
//
//   header (40 bytes, little-endian)
//     u32  magic          "DCSG"
//     u16  version        kSegmentVersion (2)
//     u8   kind           0 = conn, 1 = dns, 2 = enc (encrypted-flow
//                         metadata)
//     u8   reserved       0
//     u32  record_count
//     i64  first_ts_us    timestamp of the first record (0 when empty)
//     i64  last_ts_us     timestamp of the last record (0 when empty)
//     u64  payload_bytes
//     u32  payload_crc32  IEEE CRC-32 over the payload bytes
//   payload               columnar, optionally compressed
//                         (stream/segment_v2.hpp)
//
// Every multi-byte integer is little-endian regardless of host order.
// See docs/FORMAT.md for the normative spec. stream/segment_view.hpp is
// the one reader.
//
// Version 1, the interleaved row format that preceded v2, is refused:
// parse_segment_header names the source and how to regenerate the
// spool (`dnsctx simulate --config <run>/scenario.conf --out DIR
// --binary-logs`, or `dnsctx stream --import` from the run's text logs).
//
// Parsers throw std::runtime_error whose message names the `source`
// (segment file path) on any structural defect: bad magic/version,
// truncation, CRC mismatch, or columns overrunning the payload.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "capture/records.hpp"

namespace dnsctx::stream {

enum class RecordKind : std::uint8_t { kConn = 0, kDns = 1, kEncFlow = 2 };

[[nodiscard]] std::string_view to_string(RecordKind k);

inline constexpr std::uint32_t kSegmentMagic = 0x47534344u;  // "DCSG" in LE bytes
inline constexpr std::uint16_t kSegmentVersion = 2;  ///< the only version read or written
inline constexpr std::size_t kSegmentHeaderBytes = 40;

struct SegmentHeader {
  RecordKind kind = RecordKind::kConn;
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

/// Append a 40-byte segment header to `out`. `first`/`last` are written
/// as 0 when `record_count` is 0.
void append_segment_header(std::string& out, RecordKind kind,
                           std::uint32_t record_count, SimTime first, SimTime last,
                           std::uint64_t payload_bytes, std::uint32_t payload_crc);

/// Parse only the 40-byte header (CRC is NOT checked): SegmentView's
/// first step, and `stream --push`'s check of a file before it sends
/// it. `source` names the origin (file path) in every diagnostic.
[[nodiscard]] SegmentHeader parse_segment_header(std::string_view bytes,
                                                 const std::string& source);

void write_segment_file(const std::string& path, std::string_view blob);

}  // namespace dnsctx::stream
