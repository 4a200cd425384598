// dnsctx — ingest frame protocol tests: handshake validation, framing,
// CRC propagation, oversized/truncated/corrupt inputs, and the
// incremental (byte-at-a-time) feed path the nonblocking server relies
// on.
#include <gtest/gtest.h>

#include "capture/records.hpp"
#include "serve/http.hpp"
#include "serve/ingest.hpp"
#include "stream/segment_v2.hpp"

namespace dnsctx::serve {
namespace {

[[nodiscard]] std::string tiny_conn_segment() {
  capture::ConnRecord rec;
  rec.start = SimTime::from_us(1'000'000);
  rec.duration = SimDuration::us(5000);
  rec.orig_ip = Ipv4Addr{10, 0, 0, 1};
  rec.resp_ip = Ipv4Addr{93, 184, 216, 34};
  rec.orig_port = 49152;
  rec.resp_port = 443;
  return stream::build_segment_v2(std::vector<capture::ConnRecord>{rec});
}

TEST(IngestProtocol, TenantNameValidation) {
  EXPECT_TRUE(valid_tenant_name("town-a"));
  EXPECT_TRUE(valid_tenant_name("A.b_c-9"));
  EXPECT_FALSE(valid_tenant_name(""));
  EXPECT_FALSE(valid_tenant_name("has space"));
  EXPECT_FALSE(valid_tenant_name("slash/y"));
  EXPECT_FALSE(valid_tenant_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_tenant_name(std::string(64, 'a')));
}

TEST(IngestProtocol, HandshakeRoundTrip) {
  FrameDecoder dec{"test"};
  dec.feed(encode_handshake(Handshake{"town-a", true}));
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kHandshake);
  EXPECT_EQ(dec.handshake().tenant, "town-a");
  EXPECT_TRUE(dec.handshake().want_acks);
  EXPECT_TRUE(dec.handshaken());
  EXPECT_EQ(dec.next(), FrameDecoder::Event::kNeedMore);
}

TEST(IngestProtocol, EncodeHandshakeRejectsInvalidTenant) {
  EXPECT_THROW((void)encode_handshake(Handshake{"bad name", false}), std::runtime_error);
}

TEST(IngestProtocol, SegmentAndFlushFrames) {
  const std::string blob = tiny_conn_segment();
  std::string wire = encode_handshake(Handshake{"t", false});
  append_data_frame(wire, blob);
  append_flush_frame(wire);

  FrameDecoder dec{"test"};
  dec.feed(wire);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kHandshake);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kSegment);
  EXPECT_EQ(dec.segment().header().record_count, 1u);
  EXPECT_EQ(dec.segment().size(), 1u);
  EXPECT_EQ(dec.segment().kind(), stream::RecordKind::kConn);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kFlush);
  EXPECT_EQ(dec.next(), FrameDecoder::Event::kNeedMore);
}

TEST(IngestProtocol, ByteAtATimeFeedStillParses) {
  const std::string blob = tiny_conn_segment();
  std::string wire = encode_handshake(Handshake{"drip", true});
  append_data_frame(wire, blob);
  append_flush_frame(wire);

  FrameDecoder dec{"test"};
  std::vector<FrameDecoder::Event> events;
  for (const char c : wire) {
    dec.feed({&c, 1});
    for (;;) {
      const auto ev = dec.next();
      if (ev == FrameDecoder::Event::kNeedMore) break;
      events.push_back(ev);
      ASSERT_NE(ev, FrameDecoder::Event::kError) << dec.error();
    }
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], FrameDecoder::Event::kHandshake);
  EXPECT_EQ(events[1], FrameDecoder::Event::kSegment);
  EXPECT_EQ(events[2], FrameDecoder::Event::kFlush);
}

TEST(IngestProtocol, BadMagicNamesPeer) {
  FrameDecoder dec{"tcp 10.1.2.3:555"};
  dec.feed(std::string("XXXXxxxx", 8));
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kError);
  EXPECT_NE(dec.error().find("tcp 10.1.2.3:555"), std::string::npos) << dec.error();
  EXPECT_NE(dec.error().find("magic"), std::string::npos) << dec.error();
  // Poisoned: stays kError even with fresh bytes.
  dec.feed(encode_handshake(Handshake{"t", false}));
  EXPECT_EQ(dec.next(), FrameDecoder::Event::kError);
}

TEST(IngestProtocol, UnsupportedVersionRejected) {
  std::string wire = encode_handshake(Handshake{"t", false});
  wire[4] = 0x7f;  // version low byte
  FrameDecoder dec{"test"};
  dec.feed(wire);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kError);
  EXPECT_NE(dec.error().find("version"), std::string::npos) << dec.error();
}

TEST(IngestProtocol, UnknownFlagsRejected) {
  std::string wire = encode_handshake(Handshake{"t", false});
  wire[6] = static_cast<char>(0x80);
  FrameDecoder dec{"test"};
  dec.feed(wire);
  EXPECT_EQ(dec.next(), FrameDecoder::Event::kError);
}

TEST(IngestProtocol, InvalidTenantCharsetRejected) {
  std::string wire = encode_handshake(Handshake{"ab", false});
  wire[8] = ' ';  // first tenant byte
  FrameDecoder dec{"test"};
  dec.feed(wire);
  EXPECT_EQ(dec.next(), FrameDecoder::Event::kError);
}

TEST(IngestProtocol, OversizedFrameRejected) {
  std::string wire = encode_handshake(Handshake{"t", false});
  const std::uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  FrameDecoder dec{"test", FrameDecoder::Limits{16u << 20}};
  dec.feed(wire);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kHandshake);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kError);
  EXPECT_NE(dec.error().find("exceeds"), std::string::npos) << dec.error();
}

TEST(IngestProtocol, CorruptCrcRejected) {
  std::string blob = tiny_conn_segment();
  blob.back() = static_cast<char>(blob.back() ^ 0x01);  // flip a payload bit
  std::string wire = encode_handshake(Handshake{"t", false});
  append_data_frame(wire, blob);
  FrameDecoder dec{"tcp 127.0.0.1:9"};
  dec.feed(wire);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kHandshake);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kError);
  EXPECT_NE(dec.error().find("tcp 127.0.0.1:9"), std::string::npos) << dec.error();
}

TEST(IngestProtocol, V1SegmentRejectedWithTheRegenerateHint) {
  std::string blob = tiny_conn_segment();
  blob[4] = 1;  // segment version field: the retired v1 format
  std::string wire = encode_handshake(Handshake{"t", false});
  append_data_frame(wire, blob);
  FrameDecoder dec{"tcp 127.0.0.1:9"};
  dec.feed(wire);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kHandshake);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kError);
  for (const char* needle : {"tcp 127.0.0.1:9", "v1", "--binary-logs", "stream --import"}) {
    EXPECT_NE(dec.error().find(needle), std::string::npos) << dec.error();
  }
}

TEST(IngestProtocol, TruncatedSegmentBlobRejected) {
  const std::string blob = tiny_conn_segment();
  // Frame claims the truncated length, so the decoder hands a short
  // blob to the segment parser, which must reject it.
  std::string wire = encode_handshake(Handshake{"t", false});
  append_data_frame(wire, std::string_view{blob}.substr(0, blob.size() - 3));
  FrameDecoder dec{"test"};
  dec.feed(wire);
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kHandshake);
  EXPECT_EQ(dec.next(), FrameDecoder::Event::kError);
}

TEST(IngestProtocol, BufferCompactionKeepsParsing) {
  // Stream enough frames to trip the consumed-prefix compaction and
  // confirm nothing is lost across it.
  const std::string blob = tiny_conn_segment();
  FrameDecoder dec{"test"};
  dec.feed(encode_handshake(Handshake{"t", false}));
  ASSERT_EQ(dec.next(), FrameDecoder::Event::kHandshake);
  int segments = 0;
  for (int i = 0; i < 200; ++i) {
    std::string wire;
    append_data_frame(wire, blob);
    dec.feed(wire);
    while (dec.next() == FrameDecoder::Event::kSegment) ++segments;
  }
  EXPECT_EQ(segments, 200);
}

TEST(HttpRender, ResponseCarriesLengthAndClose) {
  const std::string wire =
      render_http_response(HttpResponse{200, "application/json", "{\"a\":1}"});
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 7), "{\"a\":1}");
}

TEST(HttpRender, StatusText) {
  EXPECT_STREQ(http_status_text(404), "Not Found");
  EXPECT_STREQ(http_status_text(405), "Method Not Allowed");
  EXPECT_STREQ(http_status_text(599), "Unknown");
}

}  // namespace
}  // namespace dnsctx::serve
