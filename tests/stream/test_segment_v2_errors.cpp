// dnsctx — v2 segment failure-path tests: every structural defect a
// hostile or corrupted segment can carry must be rejected at
// SegmentView construction with an error naming the source, the
// offending column/record where applicable, and a byte offset — the
// contract that lets `serve` enqueue validated views unconditionally.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stream/codec.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"
#include "stream/segment_view.hpp"
#include "stream/wire.hpp"

namespace dnsctx::stream {
namespace {

/// EXPECT that constructing a view over `blob` throws a
/// std::runtime_error whose message contains every needle.
void expect_rejected(const std::string& blob, std::initializer_list<std::string> needles) {
  try {
    (void)SegmentView::parse(blob, "bad.seg");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message \"" << msg << "\" lacks \"" << needle << "\"";
    }
  }
}

/// Recompute the payload CRC after a surgical corruption, so the test
/// reaches the check under scrutiny instead of tripping the CRC gate.
void refresh_crc(std::string& blob) {
  const std::uint32_t crc = crc32(std::string_view{blob}.substr(kSegmentHeaderBytes));
  for (std::size_t i = 0; i < 4; ++i) {
    blob[36 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

/// Assemble a v2 blob around a hand-crafted (uncompressed) body, with a
/// consistent CRC — the harness for every malformed-body case below.
std::string make_v2_blob(RecordKind kind, std::uint32_t count, std::int64_t first_us,
                         std::int64_t last_us, std::string_view body) {
  std::string payload;
  wire::put_u8(payload, 0);  // codec none
  wire::put_u64(payload, body.size());
  payload += body;
  std::string out;
  append_segment_header(out, kind, count, SimTime::from_us(first_us),
                        SimTime::from_us(last_us), payload.size(), crc32(payload));
  out += payload;
  return out;
}

void put_col(std::string& body, std::string_view col) {
  put_varint(body, col.size());
  body += col;
}

capture::ConnRecord conn_at(std::int64_t us) {
  capture::ConnRecord c;
  c.start = SimTime::from_us(us);
  c.orig_ip = Ipv4Addr{10, 0, 0, 1};
  c.resp_ip = Ipv4Addr{1, 2, 3, 4};
  return c;
}

/// A valid single-record dns column set (no dictionary prefixes), so
/// dictionary-corruption tests can graft broken dictionaries in front.
/// client_ip / resolver_ip are indexes 0 / 1 into the address
/// dictionary (pair with `addrs_of({.., ..})`).
std::string one_dns_columns(std::uint64_t name_idx = 0, std::uint64_t qtype = 1) {
  std::string body;
  std::string col;
  auto flush = [&] {
    put_col(body, col);
    col.clear();
  };
  put_varint(col, 0), flush();                       // ts_delta
  put_varint(col, 0), flush();                       // duration
  put_varint(col, 0), flush();                       // client_ip (addr index)
  wire::put_u16(col, 50000), flush();                // client_port
  put_varint(col, 1), flush();                       // resolver_ip (addr index)
  put_varint(col, qtype), flush();                   // qtype
  wire::put_u8(col, 0), flush();                     // rcode
  wire::put_u8(col, 1), flush();                     // answered
  put_varint(col, name_idx), flush();                // name_idx
  put_varint(col, 0), flush();                       // answer_count
  flush();                                           // ans_addr (empty)
  flush();                                           // ans_ttl (empty)
  return body;
}

std::string dict_of(std::initializer_list<std::string_view> names) {
  std::string out;
  put_varint(out, names.size());
  for (const auto name : names) {
    put_varint(out, name.size());
    out += name;
  }
  return out;
}

std::string addrs_of(std::initializer_list<std::uint32_t> addrs) {
  std::string out;
  put_varint(out, addrs.size());
  for (const auto a : addrs) wire::put_u32(out, a);
  return out;
}

TEST(SegmentV2Errors, UnknownCodecIdRejected) {
  std::string blob = build_segment_v2({conn_at(1000)}, SegmentCodec::kNone);
  blob[kSegmentHeaderBytes] = 7;  // codec id is the first payload byte
  refresh_crc(blob);
  expect_rejected(blob, {"bad.seg", "unknown segment codec id 7"});
}

TEST(SegmentV2Errors, BodyLengthMismatchRejected) {
  std::string blob = build_segment_v2({conn_at(1000)}, SegmentCodec::kNone);
  blob[kSegmentHeaderBytes + 1] ^= 0x01;  // raw body length, low byte
  refresh_crc(blob);
  expect_rejected(blob, {"bad.seg", "segment body length mismatch"});
}

TEST(SegmentV2Errors, DecompressionBombCapped) {
  std::string blob = build_segment_v2({conn_at(1000)}, SegmentCodec::kNone);
  // Frame a raw length beyond the 256 MiB reader cap.
  const std::uint64_t huge = kMaxRawBodyBytes + 1;
  for (std::size_t i = 0; i < 8; ++i) {
    blob[kSegmentHeaderBytes + 1 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  refresh_crc(blob);
  expect_rejected(blob, {"bad.seg", "exceeds limit"});
}

TEST(SegmentV2Errors, TruncatedCompressedBodyRejected) {
  // Enough repetitive records that the LZ pass genuinely engages.
  std::vector<capture::ConnRecord> recs;
  for (int i = 0; i < 200; ++i) recs.push_back(conn_at(1000 + i));
  std::string blob = build_segment_v2(recs, SegmentCodec::kLz);
  ASSERT_EQ(static_cast<std::uint8_t>(blob[kSegmentHeaderBytes]),
            static_cast<std::uint8_t>(SegmentCodec::kLz));
  blob.resize(blob.size() - 3);
  // Keep header/payload accounting consistent so the failure is the
  // codec's, not the framing's.
  const std::uint64_t payload_bytes = blob.size() - kSegmentHeaderBytes;
  for (std::size_t i = 0; i < 8; ++i) {
    blob[28 + i] = static_cast<char>((payload_bytes >> (8 * i)) & 0xff);
  }
  refresh_crc(blob);
  expect_rejected(blob, {"bad.seg", "decompression failed", "codec lz"});
}

TEST(SegmentV2Errors, CrcStillGuardsV2Payloads) {
  std::string blob = build_segment_v2({conn_at(1000)});
  blob[blob.size() - 1] ^= 0x20;
  expect_rejected(blob, {"bad.seg", "CRC"});
}

TEST(SegmentV2Errors, DictionaryLargerThanRecordCountRejected) {
  const std::string body = dict_of({"a.example", "b.example"}) +
                           addrs_of({0x0a000001u, 0x08080808u}) + one_dns_columns();
  expect_rejected(make_v2_blob(RecordKind::kDns, 1, 1000, 1000, body),
                  {"bad.seg", "dictionary holds 2 names for 1 records"});
}

TEST(SegmentV2Errors, OversizedDictionaryEntryRejected) {
  std::string body;
  put_varint(body, 1);
  put_varint(body, 70'000);  // single entry claiming 70 kB
  expect_rejected(make_v2_blob(RecordKind::kDns, 1, 1000, 1000, body),
                  {"bad.seg", "dictionary entry 0 length 70000 exceeds 65535"});
}

TEST(SegmentV2Errors, TruncatedDictionaryRejected) {
  std::string body;
  put_varint(body, 1);
  put_varint(body, 5);
  body += "ab";  // entry claims 5 bytes, 2 present
  expect_rejected(make_v2_blob(RecordKind::kDns, 1, 1000, 1000, body),
                  {"bad.seg", "truncated name dictionary", "byte offset"});
}

TEST(SegmentV2Errors, NameIndexOutOfDictionaryRangeRejected) {
  const std::string body = dict_of({"only.example"}) +
                           addrs_of({0x0a000001u, 0x08080808u}) +
                           one_dns_columns(/*name_idx=*/3);
  expect_rejected(make_v2_blob(RecordKind::kDns, 1, 1000, 1000, body),
                  {"bad.seg", "record 0 name index 3 out of dictionary range (1 names)"});
}

TEST(SegmentV2Errors, TruncatedAddressDictionaryRejected) {
  std::string body;
  put_varint(body, 3);  // claims 3 addresses (12 bytes), 4 present
  body += std::string(4, '\x01');
  expect_rejected(make_v2_blob(RecordKind::kConn, 1, 1000, 1000, body),
                  {"bad.seg", "truncated address dictionary", "byte offset"});
}

TEST(SegmentV2Errors, AddressDictionaryDeltaOverflowRejected) {
  // Entries beyond the raw head are varint deltas; a running sum past
  // u32 range can't be an IPv4 address.
  std::string body;
  put_varint(body, kDictHead + 1);
  for (std::uint32_t i = 0; i < kDictHead; ++i) wire::put_u32(body, 0x0a000000u + i);
  put_varint(body, 0x1'0000'0000ull);  // first tail delta, sum > 0xffffffff
  expect_rejected(make_v2_blob(RecordKind::kConn, 1, 1000, 1000, body),
                  {"bad.seg", "address dictionary entry 128 delta overflows u32"});
}

TEST(SegmentV2Errors, AddressIndexOutOfDictionaryRangeRejected) {
  std::string body = addrs_of({0x0a000001u});
  std::string col;
  auto flush = [&] {
    put_col(body, col);
    col.clear();
  };
  put_varint(col, 0), flush();  // ts_delta
  put_varint(col, 0), flush();  // duration
  put_varint(col, 5), flush();  // orig_ip: index 5 of 1
  put_varint(col, 0), flush();  // resp_ip
  wire::put_u16(col, 0), flush();
  wire::put_u16(col, 0), flush();
  wire::put_u8(col, 0), flush();
  wire::put_u8(col, 0), flush();
  put_varint(col, 0), flush();  // orig_bytes
  put_varint(col, 0), flush();  // resp_bytes
  expect_rejected(
      make_v2_blob(RecordKind::kConn, 1, 1000, 1000, body),
      {"bad.seg", "record 0 address index 5 out of dictionary range (1 addresses)"});
}

TEST(SegmentV2Errors, ColumnOverrunningBodyRejected) {
  std::string body = addrs_of({});
  put_varint(body, 100);  // ts_delta column claims 100 bytes
  body += "xy";
  expect_rejected(make_v2_blob(RecordKind::kConn, 1, 1000, 1000, body),
                  {"bad.seg", "column 'ts_delta' overruns segment body", "byte offset"});
}

TEST(SegmentV2Errors, TruncatedColumnVarintNamesColumnRecordAndOffset) {
  std::string body = addrs_of({});
  put_col(body, "\x80");  // ts_delta: unterminated varint
  for (int i = 0; i < 9; ++i) put_col(body, "");
  expect_rejected(make_v2_blob(RecordKind::kConn, 1, 1000, 1000, body),
                  {"bad.seg", "column 'ts_delta'", "truncated varint", "record 0",
                   "byte offset 0"});
}

TEST(SegmentV2Errors, TrailingBytesAfterColumnsRejected) {
  std::string body = addrs_of({});
  for (int i = 0; i < 10; ++i) put_col(body, "");
  body += "junk";
  expect_rejected(make_v2_blob(RecordKind::kConn, 0, 0, 0, body),
                  {"bad.seg", "4 trailing bytes after 10 columns"});
}

TEST(SegmentV2Errors, TrailingColumnBytesAfterFinalRecordRejected) {
  // Well-formed column table, but the duration column holds two values
  // for a one-record segment.
  std::string blob_body = addrs_of({1, 2});
  std::string col;
  auto flush = [&] {
    put_col(blob_body, col);
    col.clear();
  };
  put_varint(col, 0), flush();                 // ts_delta
  put_varint(col, 0), put_varint(col, 0), flush();  // duration: one too many
  put_varint(col, 0), flush();                 // orig_ip (addr index)
  put_varint(col, 1), flush();                 // resp_ip (addr index)
  wire::put_u16(col, 3), flush();              // orig_port
  wire::put_u16(col, 4), flush();              // resp_port
  wire::put_u8(col, 0), flush();               // proto
  wire::put_u8(col, 0), flush();               // state
  put_varint(col, 0), flush();                 // orig_bytes
  put_varint(col, 0), flush();                 // resp_bytes
  expect_rejected(make_v2_blob(RecordKind::kConn, 1, 1000, 1000, blob_body),
                  {"bad.seg", "column 'duration'", "trailing bytes after final record"});
}

TEST(SegmentV2Errors, QtypeOutOfRangeRejected) {
  const std::string body = dict_of({"x.example"}) +
                           addrs_of({0x0a000001u, 0x08080808u}) +
                           one_dns_columns(0, /*qtype=*/0x10000);
  expect_rejected(make_v2_blob(RecordKind::kDns, 1, 1000, 1000, body),
                  {"bad.seg", "column 'qtype'", "value out of range"});
}

TEST(SegmentV2Errors, FirstTimestampMustMatchHeader) {
  // A nonzero first delta puts record 0 after header.first_ts.
  std::string body = addrs_of({0});
  std::string col;
  put_varint(col, 7);
  put_col(body, col);
  col.clear();
  put_varint(col, 0), put_col(body, col), col.clear();  // duration
  put_varint(col, 0), put_col(body, col), col.clear();  // orig_ip (addr index)
  put_varint(col, 0), put_col(body, col), col.clear();  // resp_ip (addr index)
  wire::put_u16(col, 0), put_col(body, col), col.clear();
  wire::put_u16(col, 0), put_col(body, col), col.clear();
  wire::put_u8(col, 0), put_col(body, col), col.clear();
  wire::put_u8(col, 0), put_col(body, col), col.clear();
  put_varint(col, 0), put_col(body, col), col.clear();
  put_varint(col, 0), put_col(body, col), col.clear();
  expect_rejected(make_v2_blob(RecordKind::kConn, 1, 1000, 1007, body),
                  {"bad.seg", "first record timestamp disagrees with header first_ts"});
}

TEST(SegmentV2Errors, LastTimestampMustMatchHeader) {
  std::string blob = build_segment_v2({conn_at(1000)}, SegmentCodec::kNone);
  // Claim a later last_ts than the records encode (bytes 20..27).
  const std::int64_t fake = 5000;
  for (std::size_t i = 0; i < 8; ++i) {
    blob[20 + i] = static_cast<char>((static_cast<std::uint64_t>(fake) >> (8 * i)) & 0xff);
  }
  expect_rejected(blob, {"bad.seg", "disagrees with header last_ts"});
}

TEST(SegmentV2Errors, TimestampDeltaOverflowRejected) {
  std::string body = addrs_of({0});
  std::string col;
  put_varint(col, 0);
  put_varint(col, std::uint64_t(-1));  // wraps past i64 max
  put_col(body, col);
  col.clear();
  auto two = [&](auto put) {
    put(), put();
    put_col(body, col);
    col.clear();
  };
  two([&] { put_varint(col, 0); });                 // duration
  two([&] { put_varint(col, 0); });                 // orig_ip (addr index)
  two([&] { put_varint(col, 0); });                 // resp_ip (addr index)
  two([&] { wire::put_u16(col, 0); });              // orig_port
  two([&] { wire::put_u16(col, 0); });              // resp_port
  two([&] { wire::put_u8(col, 0); });               // proto
  two([&] { wire::put_u8(col, 0); });               // state
  two([&] { put_varint(col, 0); });                 // orig_bytes
  two([&] { put_varint(col, 0); });                 // resp_bytes
  expect_rejected(make_v2_blob(RecordKind::kConn, 2, 1000, 1000, body),
                  {"bad.seg", "timestamp delta overflows"});
}

TEST(SegmentV2Errors, HugeAddressDictionaryCountRejectedBeforeAllocating) {
  // A CRC-valid body claiming 2^62 addresses with a full 128-entry head:
  // the tail count must be bounded by the bytes left (one per entry) before
  // anything is reserved, so the reader throws its documented
  // std::runtime_error, not std::length_error from reserve().
  std::string body;
  put_varint(body, std::uint64_t{1} << 62);
  for (std::uint32_t i = 0; i < kDictHead; ++i) wire::put_u32(body, 0x0a000000u + i);
  for (const auto kind : {RecordKind::kConn, RecordKind::kDns, RecordKind::kEncFlow}) {
    const std::string with_names = kind == RecordKind::kDns ? dict_of({}) + body : body;
    expect_rejected(make_v2_blob(kind, 1, 1000, 1000, with_names),
                    {"bad.seg", "truncated address dictionary", "4611686018427387904 entries",
                     "512 bytes left"});
  }
}

TEST(SegmentV2Errors, NameDictionaryCountBoundedByBytesLeft) {
  std::string body;
  put_varint(body, 3);  // three names, but only two bytes follow
  body += std::string(2, '\0');
  expect_rejected(make_v2_blob(RecordKind::kDns, 5, 1000, 1000, body),
                  {"bad.seg", "truncated name dictionary: 3 entries, 2 bytes left"});
}

/// A valid single-record enc column set; client_ip / server_ip are
/// indexes 0 / 1 into the address dictionary. The parameters are the
/// knobs the tests below turn.
std::string one_enc_columns(std::uint64_t up_msgs = 4, int pad_down_values = 1,
                            std::uint64_t server_idx = 1, std::uint64_t first_delta = 0) {
  std::string body;
  std::string col;
  auto flush = [&] {
    put_col(body, col);
    col.clear();
  };
  put_varint(col, first_delta), flush();  // ts_delta
  put_varint(col, 0), flush();            // duration
  put_varint(col, 0), flush();            // client_ip (addr index)
  put_varint(col, server_idx), flush();   // server_ip (addr index)
  wire::put_u16(col, 30000), flush();     // client_port
  wire::put_u16(col, 853), flush();       // server_port
  put_varint(col, up_msgs), flush();      // up_msgs
  put_varint(col, 5), flush();            // down_msgs
  put_varint(col, 925), flush();          // up_bytes
  put_varint(col, 13370), flush();        // down_bytes
  put_varint(col, 289), flush();          // first_up_bytes
  put_varint(col, 3295), flush();         // first_down_bytes
  put_varint(col, 3), flush();            // pad_aligned_up
  for (int i = 0; i < pad_down_values; ++i) put_varint(col, 4);
  flush();                                // pad_aligned_down
  return body;
}

TEST(SegmentV2Errors, WellFormedEncBodyAccepted) {
  // The harness for the enc cases below is itself valid.
  const std::string body = addrs_of({0x64420307u, 0x6442fa01u}) + one_enc_columns();
  const std::string blob = make_v2_blob(RecordKind::kEncFlow, 1, 1000, 1000, body);
  SegmentView view = SegmentView::parse(blob, "good.seg");  // borrows blob
  capture::EncFlowRecord e;
  ASSERT_TRUE(view.next(e));
  EXPECT_EQ(e.server_port, 853);
  EXPECT_EQ(e.pad_aligned_down, 4u);
}

TEST(SegmentV2Errors, EncCounterOutOfRangeRejected) {
  const std::string body =
      addrs_of({0x64420307u, 0x6442fa01u}) + one_enc_columns(/*up_msgs=*/0x1'0000'0000ull);
  expect_rejected(make_v2_blob(RecordKind::kEncFlow, 1, 1000, 1000, body),
                  {"bad.seg", "enc column 'up_msgs'", "value out of range", "record 0"});
}

TEST(SegmentV2Errors, EncTrailingColumnBytesRejected) {
  const std::string body =
      addrs_of({0x64420307u, 0x6442fa01u}) + one_enc_columns(4, /*pad_down_values=*/2);
  expect_rejected(make_v2_blob(RecordKind::kEncFlow, 1, 1000, 1000, body),
                  {"bad.seg", "column 'pad_aligned_down'", "trailing bytes after final record"});
}

TEST(SegmentV2Errors, EncAddressIndexOutOfRangeRejected) {
  const std::string body =
      addrs_of({0x64420307u, 0x6442fa01u}) + one_enc_columns(4, 1, /*server_idx=*/2);
  expect_rejected(make_v2_blob(RecordKind::kEncFlow, 1, 1000, 1000, body),
                  {"bad.seg", "record 0 address index 2 out of dictionary range (2 addresses)"});
}

TEST(SegmentV2Errors, EncMissingColumnRejected) {
  // Thirteen columns where the enc layout has fourteen.
  std::string body = addrs_of({0x64420307u, 0x6442fa01u});
  for (int i = 0; i < 13; ++i) put_col(body, "");
  expect_rejected(make_v2_blob(RecordKind::kEncFlow, 0, 0, 0, body),
                  {"bad.seg", "truncated column table"});
}

TEST(SegmentV2Errors, EncHeaderTimestampsMustMatchRecords) {
  const std::string addrs = addrs_of({0x64420307u, 0x6442fa01u});
  expect_rejected(make_v2_blob(RecordKind::kEncFlow, 1, 1000, 1007,
                               addrs + one_enc_columns(4, 1, 1, /*first_delta=*/7)),
                  {"bad.seg", "first record timestamp disagrees with header first_ts"});
  expect_rejected(make_v2_blob(RecordKind::kEncFlow, 1, 1000, 5000, addrs + one_enc_columns()),
                  {"bad.seg", "disagrees with header last_ts"});
}

TEST(SegmentV2Errors, TruncatedPayloadStillNamesSource) {
  const std::string blob = build_segment_v2({conn_at(1000)});
  expect_rejected(blob.substr(0, blob.size() - 2),
                  {"bad.seg", "truncated segment payload"});
}

}  // namespace
}  // namespace dnsctx::stream
