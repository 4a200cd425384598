// dnsctx — spool directories: rotating sequences of binary segments.
//
// A spool is a directory of segment files, one time-ordered sequence per
// record kind:
//
//   conn-00000000.seg  conn-00000001.seg  ...
//   dns-00000000.seg   dns-00000001.seg   ...
//   enc-00000000.seg   enc-00000001.seg   ...   (encrypted-flow metadata;
//                                                present only when the
//                                                monitor observed any)
//
// The writer rotates the open segment when it reaches a record-count or
// sim-time-span limit, so a live monitor produces a steady trickle of
// finished, CRC-protected files that a follower can consume while the
// producer keeps appending. Records must arrive in nondecreasing
// timestamp order per kind (the writer throws otherwise); the reader
// re-validates that invariant within and across segments so corrupt or
// misassembled spools fail loudly instead of silently skewing a study.
//
// Every segment is format v2 (stream/segment_v2.hpp); replaying a spool
// that holds a v1 segment fails with how to regenerate it
// (stream/segment.hpp). Converters to/from the Bro-style text logs
// round-trip byte-identically (text → spool → text reproduces the
// original files), so a codec change is an export followed by an import
// with the new codec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capture/records.hpp"
#include "stream/codec.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"

namespace dnsctx::stream {

struct SpoolConfig {
  /// Rotate the open segment once it holds this many records...
  std::uint32_t max_records_per_segment = 65'536;
  /// ...or spans this much simulated time, whichever comes first.
  SimDuration max_segment_span = SimDuration::hours(1);
  /// Block codec for the segments' columnar bodies.
  SegmentCodec codec = SegmentCodec::kLz;
};

/// Writes records into a spool directory as v2 segments, rotating them
/// per config. Implements RecordSink so a time-sorted feed can drive it
/// directly.
class SpoolWriter : public capture::RecordSink {
 public:
  SpoolWriter(std::string dir, SpoolConfig cfg = {});
  ~SpoolWriter() override;

  void on_conn(const capture::ConnRecord& rec) override;
  void on_dns(const capture::DnsRecord& rec) override;
  void on_encflow(const capture::EncFlowRecord& rec) override;

  /// Close the open segments (writing any buffered records). Called by
  /// the destructor, but callers that need the files on disk at a known
  /// point (or want write errors surfaced) should call it explicitly.
  void flush();

  [[nodiscard]] std::size_t segments_written() const { return segments_written_; }
  [[nodiscard]] std::uint64_t conns_written() const { return conn_.records_total; }
  [[nodiscard]] std::uint64_t dns_written() const { return dns_.records_total; }
  [[nodiscard]] std::uint64_t encflows_written() const { return enc_.records_total; }

 private:
  struct OpenSegment {
    OpenSegment(RecordKind kind, SegmentCodec codec) : builder{kind, codec} {}

    SegmentBuilderV2 builder;
    SimTime first;
    SimTime last;
    std::uint32_t next_seq = 0;
    std::uint64_t records_total = 0;
    bool any = false;  ///< a record has ever been written to this kind
  };

  template <typename Rec>
  void add(OpenSegment& seg, const Rec& rec, SimTime ts);
  void rotate(OpenSegment& seg);

  std::string dir_;
  SpoolConfig cfg_;
  OpenSegment conn_;
  OpenSegment dns_;
  OpenSegment enc_;
  std::size_t segments_written_ = 0;
};

/// Snapshot of a spool directory: segment file paths per kind, sorted in
/// sequence (= time) order.
struct SpoolListing {
  std::vector<std::string> conn_segments;
  std::vector<std::string> dns_segments;
  std::vector<std::string> enc_segments;

  [[nodiscard]] std::size_t total() const {
    return conn_segments.size() + dns_segments.size() + enc_segments.size();
  }
};

[[nodiscard]] SpoolListing list_spool(const std::string& dir);

/// Replay a spool into `sink`, merging the conn, dns, and enc sequences
/// into one nondecreasing timeline (ties deliver DNS first, then conn,
/// then enc — the DNS-before-conn rule matches the pairing engine; enc
/// metadata is purely observational and goes last). Segments stream one
/// at a time — memory is bounded by the largest single segment.
/// Validates CRCs and cross-segment timestamp ordering; throws naming
/// the offending file. Returns per-kind record counts.
struct ReplayCounts {
  std::uint64_t conns = 0;
  std::uint64_t dns = 0;
  std::uint64_t encflows = 0;
};
ReplayCounts replay_spool(const SpoolListing& listing, capture::RecordSink& sink);
ReplayCounts replay_spool(const std::string& dir, capture::RecordSink& sink);

/// Replay an in-memory dataset (timestamp-sorted, as Monitor::harvest
/// produces) through the same merged-timeline path.
ReplayCounts replay_dataset(const capture::Dataset& ds, capture::RecordSink& sink);

/// Converters between text logs and spools. `text_to_spool` reads
/// `<text_dir>/conn.log` + `<text_dir>/dns.log` (plus `encflow.log` when
/// present); `spool_to_text` writes the same files, emitting encflow.log
/// only when the spool holds enc records. Both directions preserve every
/// field exactly, so text → spool → text is byte-identical.
ReplayCounts text_to_spool(const std::string& text_dir, const std::string& spool_dir,
                           SpoolConfig cfg = {});
ReplayCounts spool_to_text(const std::string& spool_dir, const std::string& text_dir);

/// Total bytes-on-disk of every segment file in the listing.
[[nodiscard]] std::uint64_t spool_bytes(const SpoolListing& listing);
[[nodiscard]] std::uint64_t spool_bytes(const std::string& dir);

}  // namespace dnsctx::stream
