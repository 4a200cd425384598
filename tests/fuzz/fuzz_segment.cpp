// libFuzzer target for the binary segment reader. Structural defects
// (bad magic, truncation, CRC mismatch, body overrun) must surface as
// std::runtime_error, never as a crash or out-of-bounds read. Accepted
// blobs must survive a re-encode/re-parse round trip.
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "segment_v1.hpp"
#include "stream/segment.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  namespace stream = dnsctx::stream;
  const std::string_view bytes{reinterpret_cast<const char*>(data), size};

  try {
    (void)stream::parse_segment_header(bytes, "fuzz");
  } catch (const std::runtime_error&) {
  }

  stream::SegmentData parsed;
  try {
    parsed = stream::parse_segment(bytes, "fuzz");
  } catch (const std::runtime_error&) {
    return 0;
  }

  // The blob was accepted: re-encoding the decoded records must produce
  // a blob the parser accepts with identical header geometry.
  std::string payload;
  for (const auto& rec : parsed.conns) stream::append_record(payload, rec);
  for (const auto& rec : parsed.dns) stream::append_record(payload, rec);
  for (const auto& rec : parsed.encflows) stream::append_record(payload, rec);
  const std::string blob =
      stream::build_segment(parsed.header.kind, parsed.header.record_count,
                            parsed.header.first_ts, parsed.header.last_ts, payload);
  const stream::SegmentData again = stream::parse_segment(blob, "fuzz-roundtrip");
  if (again.header.record_count != parsed.header.record_count ||
      again.conns.size() != parsed.conns.size() || again.dns.size() != parsed.dns.size() ||
      again.encflows.size() != parsed.encflows.size()) {
    std::abort();
  }
  return 0;
}
