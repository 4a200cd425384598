// dnsctx — spool format v2: columnar segment encoding.
//
// A v2 segment is the 40-byte header of stream/segment.hpp (version
// field = 2, CRC over the stored payload) followed by a column-oriented
// payload:
//
//   payload := u8 codec_id | u64 raw_body_bytes | body'
//
// where body' is `body` passed through the BlockCodec named by
// codec_id (stored verbatim for codec 0 = none). The body itself is
//
//   body := name_dict?  addr_dict  column*
//   name_dict (dns only) := varint name_count
//                           name_count × (varint len | len bytes)
//   addr_dict := varint addr_count
//                min(addr_count, 128) × u32 LE          (head)
//                remaining × varint value-delta          (tail)
//   column := varint byte_len | byte_len bytes
//
// Columns appear in a fixed order per kind (kConnColumns / kDnsColumns /
// kEncColumns). Timestamps are stored as unsigned varint deltas from
// the previous record (the first record's delta is 0 relative to
// header.first_ts), so nondecreasing order is inherent to the encoding;
// durations are zigzag varints; ports are fixed-width little-endian;
// byte and message counters are varints. IPv4 addresses and qnames are
// varint indices into the per-segment address/name dictionaries, which
// store each distinct value once — a segment sees few distinct hosts,
// so indices run 1-2 bytes where raw addresses cost 4. Readers accept
// dictionary entries in any order; the writer places the kDictHead
// most-referenced values first (small indices go to hot values), then
// the rest sorted ascending so the addr-dict tail delta-codes tightly
// (each tail entry is its u32 value minus the previous tail value, first
// relative to 0) and the name-dict tail groups shared suffixes for the
// block codec. DNS answer sets are flattened: a per-record answer_count
// column, then one ans_addr / ans_ttl entry per answer across the whole
// segment. Enc segments have no name dictionary.
//
// The encoding is lossless: decoding reproduces every record field
// bit-for-bit, so study results over a spool are byte-identical to the
// same records replayed from text logs, under either codec. See
// docs/FORMAT.md for the normative spec and stream/segment_view.hpp for
// the zero-copy reader.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/records.hpp"
#include "stream/codec.hpp"
#include "stream/segment.hpp"
#include "util/names.hpp"

namespace dnsctx::stream {

/// Upper bound on a v2 decompressed body, guarding readers against
/// decompression bombs in hostile segments (serve ingests them straight
/// off the network). Far above anything the writer produces: a
/// max-size segment (65'536 records) is a few MiB raw.
inline constexpr std::uint64_t kMaxRawBodyBytes = 1ull << 28;  // 256 MiB

/// Dictionary entries stored in frequency order before the writer
/// switches to the compression-friendly sorted tail (wire constant:
/// readers count this many raw u32 entries before the addr-dict
/// switches to varint deltas).
inline constexpr std::size_t kDictHead = 128;

/// Column order per kind — wire layout, never reorder. Names appear in
/// reader diagnostics and docs/FORMAT.md.
inline constexpr std::array<const char*, 10> kConnColumns = {
    "ts_delta",  "duration",  "orig_ip", "resp_ip",    "orig_port",
    "resp_port", "proto",     "state",   "orig_bytes", "resp_bytes"};
inline constexpr std::array<const char*, 12> kDnsColumns = {
    "ts_delta", "duration", "client_ip", "client_port",  "resolver_ip", "qtype",
    "rcode",    "answered", "name_idx",  "answer_count", "ans_addr",    "ans_ttl"};
inline constexpr std::array<const char*, 14> kEncColumns = {
    "ts_delta",       "duration",         "client_ip",      "server_ip",
    "client_port",    "server_port",      "up_msgs",        "down_msgs",
    "up_bytes",       "down_bytes",       "first_up_bytes", "first_down_bytes",
    "pad_aligned_up", "pad_aligned_down"};

/// The column names of `kind`, in wire order.
[[nodiscard]] constexpr std::span<const char* const> column_names(RecordKind kind) {
  switch (kind) {
    case RecordKind::kDns: return kDnsColumns;
    case RecordKind::kEncFlow: return kEncColumns;
    case RecordKind::kConn: break;
  }
  return kConnColumns;
}

/// Column indices into the arrays above, shared by the builder and the
/// reader.
namespace v2col {
enum Conn : std::size_t {
  kCTs = 0, kCDur, kCOrigIp, kCRespIp, kCOrigPort,
  kCRespPort, kCProto, kCState, kCOrigBytes, kCRespBytes,
};
enum Dns : std::size_t {
  kDTs = 0, kDDur, kDClientIp, kDClientPort, kDResolverIp, kDQtype,
  kDRcode, kDAnswered, kDNameIdx, kDAnswerCount, kDAnsAddr, kDAnsTtl,
};
enum Enc : std::size_t {
  kETs = 0, kEDur, kEClientIp, kEServerIp, kEClientPort, kEServerPort, kEUpMsgs,
  kEDownMsgs, kEUpBytes, kEDownBytes, kEFirstUp, kEFirstDown, kEPadUp, kEPadDown,
};
static_assert(kCRespBytes + 1 == kConnColumns.size());
static_assert(kDAnsTtl + 1 == kDnsColumns.size());
static_assert(kEPadDown + 1 == kEncColumns.size());
}  // namespace v2col

/// Accumulates records into column buffers and assembles v2 segment
/// blobs. One builder per open segment per kind; build() emits the blob
/// and resets the builder for the next segment. Records must be added
/// in nondecreasing timestamp order (throws std::runtime_error otherwise
/// — same contract as SpoolWriter); a record of another kind throws
/// std::logic_error.
///
/// When the requested codec expands a particular body (incompressible
/// data), build() stores that segment uncompressed: the codec id is
/// per-segment payload framing, so readers need no hint.
class SegmentBuilderV2 {
 public:
  explicit SegmentBuilderV2(RecordKind kind, SegmentCodec codec = SegmentCodec::kLz);

  void add(const capture::ConnRecord& rec);
  void add(const capture::DnsRecord& rec);
  void add(const capture::EncFlowRecord& rec);

  [[nodiscard]] RecordKind kind() const { return kind_; }
  [[nodiscard]] std::uint32_t count() const { return count_; }
  /// Current pre-compression payload size (columns + dictionary), for
  /// compression-ratio accounting.
  [[nodiscard]] std::uint64_t raw_bytes() const;

  /// Assemble the complete blob (header + framed payload) and reset.
  [[nodiscard]] std::string build();

  void reset();

 private:
  void start_record(RecordKind kind, std::int64_t ts_us);
  [[nodiscard]] std::uint32_t addr_index(Ipv4Addr ip);

  RecordKind kind_;
  SegmentCodec codec_;
  std::uint32_t count_ = 0;
  std::int64_t first_ts_ = 0;
  std::int64_t prev_ts_ = 0;
  std::vector<std::string> cols_;
  std::vector<std::string_view> dict_names_;  ///< views into the NameTable arena
  std::vector<std::uint32_t> name_refs_;      ///< reference count per name
  std::unordered_map<util::NameId, std::uint32_t> dict_idx_;
  std::vector<std::uint32_t> addrs_;      ///< distinct IPs, first-appearance order
  std::vector<std::uint32_t> addr_refs_;  ///< reference count per address
  std::unordered_map<std::uint32_t, std::uint32_t> addr_idx_;
};

/// One-shot conveniences for tests and benches.
[[nodiscard]] std::string build_segment_v2(const std::vector<capture::ConnRecord>& recs,
                                           SegmentCodec codec = SegmentCodec::kLz);
[[nodiscard]] std::string build_segment_v2(const std::vector<capture::DnsRecord>& recs,
                                           SegmentCodec codec = SegmentCodec::kLz);
[[nodiscard]] std::string build_segment_v2(const std::vector<capture::EncFlowRecord>& recs,
                                           SegmentCodec codec = SegmentCodec::kLz);

}  // namespace dnsctx::stream
