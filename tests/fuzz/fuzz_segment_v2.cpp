// libFuzzer target for the v2 columnar segment reader. Hostile blobs —
// bad codec ids, lying raw-length frames, truncated dictionaries,
// column overruns, non-canonical varints — must surface as
// std::runtime_error at SegmentView construction, never as a crash,
// OOB read, or unbounded allocation. Accepted blobs of every kind (conn,
// dns, enc) must survive a decode → rebuild → reparse round trip with
// every field intact. The raw LZ codec gets the input too: the
// decompressor must reject arbitrary bytes gracefully, and compressing
// the input must round-trip within the LZ4 size bound.
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "stream/codec.hpp"
#include "stream/segment_v2.hpp"
#include "stream/segment_view.hpp"

namespace stream = dnsctx::stream;
namespace capture = dnsctx::capture;

namespace {

void expect_eq(bool ok) {
  if (!ok) std::abort();
}

template <typename Rec>
std::vector<Rec> drain(stream::SegmentView& view) {
  std::vector<Rec> out;
  Rec rec;
  while (view.next(rec)) out.push_back(rec);
  return out;
}

void compare(const capture::ConnRecord& a, const capture::ConnRecord& b) {
  expect_eq(a.start == b.start && a.duration == b.duration && a.orig_ip == b.orig_ip &&
            a.resp_ip == b.resp_ip && a.orig_port == b.orig_port &&
            a.resp_port == b.resp_port && a.proto == b.proto && a.state == b.state &&
            a.orig_bytes == b.orig_bytes && a.resp_bytes == b.resp_bytes);
}

void compare(const capture::DnsRecord& a, const capture::DnsRecord& b) {
  expect_eq(a.ts == b.ts && a.duration == b.duration && a.client_ip == b.client_ip &&
            a.client_port == b.client_port && a.resolver_ip == b.resolver_ip &&
            a.query.view() == b.query.view() && a.qtype == b.qtype && a.rcode == b.rcode &&
            a.answered == b.answered && a.answers == b.answers);
}

void compare(const capture::EncFlowRecord& a, const capture::EncFlowRecord& b) {
  expect_eq(a.start == b.start && a.duration == b.duration && a.client_ip == b.client_ip &&
            a.server_ip == b.server_ip && a.client_port == b.client_port &&
            a.server_port == b.server_port && a.up_msgs == b.up_msgs &&
            a.down_msgs == b.down_msgs && a.up_bytes == b.up_bytes &&
            a.down_bytes == b.down_bytes && a.first_up_bytes == b.first_up_bytes &&
            a.first_down_bytes == b.first_down_bytes &&
            a.pad_aligned_up == b.pad_aligned_up && a.pad_aligned_down == b.pad_aligned_down);
}

/// Decode every record of `view`, rebuild them with `codec`, and demand
/// field-for-field equality between the two views. Returns the rebuilt blob.
template <typename Rec>
std::string round_trip(stream::SegmentView& view, stream::SegmentCodec codec) {
  view.rewind();
  const auto recs = drain<Rec>(view);
  expect_eq(recs.size() == view.size());
  std::string rebuilt = stream::build_segment_v2(recs, codec);
  stream::SegmentView again = stream::SegmentView::parse(rebuilt, "fuzz-roundtrip");
  expect_eq(again.size() == view.size());
  view.rewind();
  Rec a, b;
  while (view.next(a)) {
    expect_eq(again.next(b));
    compare(a, b);
  }
  return rebuilt;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view bytes{reinterpret_cast<const char*>(data), size};

  // The raw block decompressor sees network-supplied bytes before any
  // CRC can vouch for them on the serve path, so it gets the input
  // verbatim, with a raw length derived from the head of the input.
  const auto& lz = stream::codec(stream::SegmentCodec::kLz);
  if (size >= 2) {
    std::string out;
    const std::size_t raw_len = (std::size_t{data[0]} << 8 | data[1]) & 0xffff;
    (void)lz.decompress(bytes.substr(2), raw_len, out);
    expect_eq(out.size() <= raw_len);
  }
  {
    std::string comp;
    std::string back;
    lz.compress(bytes, comp);
    expect_eq(comp.size() <= size + size / 255 + 16);
    expect_eq(lz.decompress(comp, size, back) && back == bytes);
  }

  stream::SegmentView view;
  try {
    view = stream::SegmentView::parse(bytes, "fuzz");
  } catch (const std::runtime_error&) {
    return 0;
  }

  // Accepted blob: decode everything, re-encode through the builder
  // under both codecs, and demand field-for-field equality. (Byte
  // identity is NOT required — the reader tolerates non-canonical
  // varint encodings the builder never emits.)
  const auto& header = view.header();
  for (const auto codec : {stream::SegmentCodec::kNone, stream::SegmentCodec::kLz}) {
    std::string rebuilt;
    switch (header.kind) {
      case stream::RecordKind::kConn:
        rebuilt = round_trip<capture::ConnRecord>(view, codec);
        break;
      case stream::RecordKind::kDns:
        rebuilt = round_trip<capture::DnsRecord>(view, codec);
        break;
      case stream::RecordKind::kEncFlow:
        rebuilt = round_trip<capture::EncFlowRecord>(view, codec);
        break;
    }
    // The view validates header first/last_ts against the decoded
    // records at construction, so equality through the round trip is
    // guaranteed.
    if (header.record_count > 0) {
      stream::SegmentView reparsed = stream::SegmentView::parse(rebuilt, "fuzz-header");
      expect_eq(reparsed.header().first_ts == header.first_ts &&
                reparsed.header().last_ts == header.last_ts);
    }
  }
  return 0;
}
