// dnsctx — a v1 segment writer for tests and fuzz harnesses.
//
// The spool writers produce only format v2, but readers still accept v1
// (interleaved, length-prefixed record bodies; docs/FORMAT.md). The v1
// reader tests, serve's protocol tests and the v1 fuzz harness build
// their v1 inputs with these helpers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "capture/records.hpp"
#include "stream/segment.hpp"
#include "stream/wire.hpp"

namespace dnsctx::stream {

/// Append one length-prefixed record body to a v1 segment payload.
inline void append_record(std::string& payload, const capture::ConnRecord& rec) {
  std::string body;
  wire::put_i64(body, rec.start.count_us());
  wire::put_i64(body, rec.duration.count_us());
  wire::put_u32(body, rec.orig_ip.to_u32());
  wire::put_u32(body, rec.resp_ip.to_u32());
  wire::put_u16(body, rec.orig_port);
  wire::put_u16(body, rec.resp_port);
  wire::put_u8(body, rec.proto == Proto::kUdp ? 1 : 0);
  wire::put_u8(body, static_cast<std::uint8_t>(rec.state));
  wire::put_u64(body, rec.orig_bytes);
  wire::put_u64(body, rec.resp_bytes);
  wire::put_u32(payload, static_cast<std::uint32_t>(body.size()));
  payload += body;
}

inline void append_record(std::string& payload, const capture::DnsRecord& rec) {
  const std::string_view query = rec.query.view();
  std::string body;
  wire::put_i64(body, rec.ts.count_us());
  wire::put_i64(body, rec.duration.count_us());
  wire::put_u32(body, rec.client_ip.to_u32());
  wire::put_u16(body, rec.client_port);
  wire::put_u32(body, rec.resolver_ip.to_u32());
  wire::put_u16(body, static_cast<std::uint16_t>(rec.qtype));
  wire::put_u8(body, static_cast<std::uint8_t>(rec.rcode));
  wire::put_u8(body, rec.answered ? 1 : 0);
  wire::put_u16(body, static_cast<std::uint16_t>(query.size()));
  body += query;
  wire::put_u16(body, static_cast<std::uint16_t>(rec.answers.size()));
  for (const auto& a : rec.answers) {
    wire::put_u32(body, a.addr.to_u32());
    wire::put_u32(body, a.ttl);
  }
  wire::put_u32(payload, static_cast<std::uint32_t>(body.size()));
  payload += body;
}

inline void append_record(std::string& payload, const capture::EncFlowRecord& rec) {
  std::string body;
  wire::put_i64(body, rec.start.count_us());
  wire::put_i64(body, rec.duration.count_us());
  wire::put_u32(body, rec.client_ip.to_u32());
  wire::put_u32(body, rec.server_ip.to_u32());
  wire::put_u16(body, rec.client_port);
  wire::put_u16(body, rec.server_port);
  wire::put_u32(body, rec.up_msgs);
  wire::put_u32(body, rec.down_msgs);
  wire::put_u64(body, rec.up_bytes);
  wire::put_u64(body, rec.down_bytes);
  wire::put_u64(body, rec.first_up_bytes);
  wire::put_u64(body, rec.first_down_bytes);
  wire::put_u32(body, rec.pad_aligned_up);
  wire::put_u32(body, rec.pad_aligned_down);
  wire::put_u32(payload, static_cast<std::uint32_t>(body.size()));
  payload += body;
}

/// Assemble a complete v1 segment blob (header + payload). `first`/`last`
/// are the payload's timestamp range; written as 0 when `record_count`
/// is 0.
[[nodiscard]] inline std::string build_segment(RecordKind kind, std::uint32_t record_count,
                                               SimTime first, SimTime last,
                                               std::string_view payload) {
  std::string out;
  append_segment_header(out, kSegmentVersion, kind, record_count, first, last,
                        payload.size(), crc32(payload));
  out += payload;
  return out;
}

}  // namespace dnsctx::stream
