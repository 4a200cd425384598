// dnsctx — zero-copy segment reader for segment format v2, the only
// version read (a v1 segment is refused with how to regenerate it).
//
// A SegmentView wraps a segment blob — borrowed bytes, an adopted
// buffer, or an mmap'd file — validates it completely up front, and
// then iterates records through a pull cursor that decodes straight out
// of the underlying bytes into a caller-provided record. No per-record
// heap allocation (the DnsRecord answers vector is reused across
// next() calls) and, for uncompressed payloads, no copy of the record
// data at all. Compressed payloads are decompressed once into an owned
// buffer at construction; iteration then runs over that buffer.
//
// Construction performs the full structural validation (magic, version,
// kind, CRC, dictionary and column bounds, exact column consumption,
// header timestamps against the records) and throws std::runtime_error
// naming the source plus a byte offset — so once a view exists, its
// cursors cannot fail. This is what lets `serve` apply a frame's
// records as soon as the frame is decoded: a malformed frame is
// rejected at the decoder boundary, and everything past it iterates
// unconditionally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "capture/records.hpp"
#include "stream/codec.hpp"
#include "stream/segment.hpp"

namespace dnsctx::stream {

class SegmentView {
 public:
  /// Empty view; every accessor throws std::logic_error until a parsed
  /// view is move-assigned in. Exists so owners (FrameDecoder) can hold
  /// a view member before the first frame arrives.
  SegmentView();
  ~SegmentView();
  SegmentView(SegmentView&&) noexcept;
  SegmentView& operator=(SegmentView&&) noexcept;
  SegmentView(const SegmentView&) = delete;
  SegmentView& operator=(const SegmentView&) = delete;

  /// Parse `bytes` without copying them; the caller keeps `bytes` alive
  /// for the view's lifetime.
  [[nodiscard]] static SegmentView parse(std::string_view bytes, std::string source);

  /// Take ownership of `blob` (the serve ingest path: the network frame
  /// buffer is reused, so the view must own its bytes).
  [[nodiscard]] static SegmentView adopt(std::string blob, std::string source);

  /// mmap `path` read-only (falling back to a plain read when mmap is
  /// unavailable, e.g. for empty files). Diagnostics name the path.
  [[nodiscard]] static SegmentView map_file(const std::string& path);
  [[nodiscard]] static SegmentView map_file(const std::string& path, std::string source);

  [[nodiscard]] const SegmentHeader& header() const;
  [[nodiscard]] RecordKind kind() const { return header().kind; }
  [[nodiscard]] std::uint32_t size() const { return header().record_count; }
  [[nodiscard]] const std::string& source() const;
  /// Codec the payload was stored with.
  [[nodiscard]] SegmentCodec stored_codec() const;

  /// Decode the next record into `out`, reusing its buffers. Returns
  /// false when the cursor is exhausted. Throws std::logic_error when
  /// the record type doesn't match kind().
  bool next(capture::ConnRecord& out);
  bool next(capture::DnsRecord& out);
  bool next(capture::EncFlowRecord& out);

  /// Reset the cursor to the first record.
  void rewind();

  /// Deliver every record from the current cursor position to `sink`,
  /// in order. Returns the number delivered.
  std::uint64_t deliver(capture::RecordSink& sink);

  struct Impl;

 private:
  explicit SegmentView(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace dnsctx::stream
