#include "stream/segment.hpp"

#include <array>
#include <fstream>
#include <stdexcept>

#include "stream/wire.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {

namespace {

// ---- CRC-32 ----------------------------------------------------------------

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k][b]
/// is the CRC register after byte b and then k zero bytes, so one step
/// folds eight input bytes with eight lookups.
[[nodiscard]] constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

[[nodiscard]] std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::string_view to_string(RecordKind k) {
  switch (k) {
    case RecordKind::kConn: return "conn";
    case RecordKind::kDns: return "dns";
    case RecordKind::kEncFlow: return "enc";
  }
  return "conn";
}

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void append_segment_header(std::string& out, RecordKind kind, std::uint32_t record_count,
                           SimTime first, SimTime last, std::uint64_t payload_bytes,
                           std::uint32_t payload_crc) {
  wire::put_u32(out, kSegmentMagic);
  wire::put_u16(out, kSegmentVersion);
  wire::put_u8(out, static_cast<std::uint8_t>(kind));
  wire::put_u8(out, 0);  // reserved
  wire::put_u32(out, record_count);
  wire::put_i64(out, record_count ? first.count_us() : 0);
  wire::put_i64(out, record_count ? last.count_us() : 0);
  wire::put_u64(out, payload_bytes);
  wire::put_u32(out, payload_crc);
}

SegmentHeader parse_segment_header(std::string_view bytes, const std::string& source) {
  if (bytes.size() < kSegmentHeaderBytes) {
    throw std::runtime_error{strfmt("%s: truncated segment header (%zu of %zu bytes)",
                                    source.c_str(), bytes.size(), kSegmentHeaderBytes)};
  }
  wire::Cursor c{bytes, 0, &source, "segment header"};
  SegmentHeader h;
  if (c.u32() != kSegmentMagic) {
    throw std::runtime_error{strfmt("%s: bad segment magic", source.c_str())};
  }
  const std::uint16_t version = c.u16();
  if (version == 1) {
    throw std::runtime_error{strfmt(
        "%s: segment format v1 is no longer read; regenerate the spool with "
        "`dnsctx simulate --config <run>/scenario.conf --out DIR --binary-logs`, "
        "or with `dnsctx stream --import TEXTDIR --spool DIR` from the run's text logs",
        source.c_str())};
  }
  if (version != kSegmentVersion) {
    throw std::runtime_error{strfmt("%s: unsupported segment version %u (expected %u)",
                                    source.c_str(), version, kSegmentVersion)};
  }
  const std::uint8_t kind = c.u8();
  if (kind > 2) {
    throw std::runtime_error{strfmt("%s: bad record kind %u", source.c_str(), kind)};
  }
  h.kind = static_cast<RecordKind>(kind);
  (void)c.u8();  // reserved
  h.record_count = c.u32();
  h.first_ts = SimTime::from_us(c.i64());
  h.last_ts = SimTime::from_us(c.i64());
  h.payload_bytes = c.u64();
  h.payload_crc32 = c.u32();
  return h;
}

void write_segment_file(const std::string& path, std::string_view blob) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw std::runtime_error{"cannot open " + path};
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!os) throw std::runtime_error{"short write to " + path};
}

}  // namespace dnsctx::stream
