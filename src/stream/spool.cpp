#include "stream/spool.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "capture/logio.hpp"
#include "obs/metrics.hpp"
#include "stream/segment_view.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::string segment_name(RecordKind kind, std::uint32_t seq) {
  return strfmt("%s-%08u.seg", to_string(kind).data(), seq);
}

[[nodiscard]] SimTime floor_time() {
  return SimTime::from_us(std::numeric_limits<std::int64_t>::min());
}

template <typename Rec>
struct RecTraits;
template <>
struct RecTraits<capture::ConnRecord> {
  static constexpr RecordKind kKind = RecordKind::kConn;
  static SimTime time(const capture::ConnRecord& r) { return r.start; }
  static void deliver(capture::RecordSink& s, const capture::ConnRecord& r) {
    s.on_conn(r);
  }
};
template <>
struct RecTraits<capture::DnsRecord> {
  static constexpr RecordKind kKind = RecordKind::kDns;
  static SimTime time(const capture::DnsRecord& r) { return r.ts; }
  static void deliver(capture::RecordSink& s, const capture::DnsRecord& r) {
    s.on_dns(r);
  }
};
template <>
struct RecTraits<capture::EncFlowRecord> {
  static constexpr RecordKind kKind = RecordKind::kEncFlow;
  static SimTime time(const capture::EncFlowRecord& r) { return r.start; }
  static void deliver(capture::RecordSink& s, const capture::EncFlowRecord& r) {
    s.on_encflow(r);
  }
};

/// Streams one kind's segment sequence record by record through mmap'd
/// SegmentViews: segments are validated (CRC + structure) when opened,
/// records decode zero-copy into one reused head record, and
/// cross-segment timestamp order is enforced. Memory is bounded by one
/// mapped segment. Diagnostics carry the file path plus its index in
/// the sequence.
template <typename Rec>
class SegmentStream {
 public:
  SegmentStream(const std::vector<std::string>* paths, capture::RecordSink* sink)
      : paths_{paths}, sink_{sink} {
    advance();
  }

  [[nodiscard]] bool done() const { return exhausted_; }
  [[nodiscard]] SimTime head_time() const { return RecTraits<Rec>::time(head_); }

  /// Deliver the head record to the sink and advance.
  void pop() {
    RecTraits<Rec>::deliver(*sink_, head_);
    advance();
  }

 private:
  void advance() {
    for (;;) {
      if (in_segment_ && view_.next(head_)) return;
      in_segment_ = false;
      if (next_path_ >= paths_->size()) {
        exhausted_ = true;
        return;
      }
      const std::string& path = (*paths_)[next_path_];
      const std::string source = strfmt("%s (segment %zu)", path.c_str(), next_path_);
      ++next_path_;
      view_ = SegmentView::map_file(path, source);
      if (view_.kind() != RecTraits<Rec>::kKind) {
        throw std::runtime_error{strfmt("%s: segment kind is %s, expected %s",
                                        source.c_str(), to_string(view_.kind()).data(),
                                        to_string(RecTraits<Rec>::kKind).data())};
      }
      if (view_.size() == 0) continue;  // tolerate empty segments
      if (view_.header().first_ts < prev_) {
        throw std::runtime_error{
            strfmt("%s: segment starts at %lld us, before preceding segment end %lld us",
                   source.c_str(),
                   static_cast<long long>(view_.header().first_ts.count_us()),
                   static_cast<long long>(prev_.count_us()))};
      }
      prev_ = view_.header().last_ts;
      in_segment_ = true;
    }
  }

  const std::vector<std::string>* paths_;
  capture::RecordSink* sink_;
  std::size_t next_path_ = 0;
  SegmentView view_;
  bool in_segment_ = false;
  Rec head_;
  SimTime prev_ = floor_time();
  bool exhausted_ = false;
};

/// Merge three time-sorted sequences into one nondecreasing delivery
/// order. Tie priority is DNS, then conn, then enc: an answer landing at
/// the same microsecond a connection starts must already be visible to
/// the pairing engine, and enc metadata is purely observational so it
/// trails both. Each stream is a (done, head_time, pop) triple.
template <typename Dns, typename Conn, typename Enc>
ReplayCounts merge_deliver(Dns& dns, Conn& conn, Enc& enc) {
  ReplayCounts counts;
  for (;;) {
    int pick = -1;
    SimTime best;
    if (!dns.done()) {
      pick = 0;
      best = dns.head_time();
    }
    if (!conn.done() && (pick < 0 || conn.head_time() < best)) {
      pick = 1;
      best = conn.head_time();
    }
    if (!enc.done() && (pick < 0 || enc.head_time() < best)) {
      pick = 2;
    }
    if (pick == 0) {
      dns.pop();
      ++counts.dns;
    } else if (pick == 1) {
      conn.pop();
      ++counts.conns;
    } else if (pick == 2) {
      enc.pop();
      ++counts.encflows;
    } else {
      break;
    }
  }
  return counts;
}

/// Adapts an in-memory sorted vector to the (done, head_time, pop)
/// stream shape merge_deliver consumes.
template <typename Rec>
class VectorStream {
 public:
  VectorStream(const std::vector<Rec>* recs, capture::RecordSink* sink)
      : recs_{recs}, sink_{sink} {}

  [[nodiscard]] bool done() const { return pos_ >= recs_->size(); }
  [[nodiscard]] SimTime head_time() const { return RecTraits<Rec>::time((*recs_)[pos_]); }
  void pop() { RecTraits<Rec>::deliver(*sink_, (*recs_)[pos_++]); }

 private:
  const std::vector<Rec>* recs_;
  capture::RecordSink* sink_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---- SpoolWriter -----------------------------------------------------------

SpoolWriter::SpoolWriter(std::string dir, SpoolConfig cfg)
    : dir_{std::move(dir)},
      cfg_{cfg},
      conn_{RecordKind::kConn, cfg.codec},
      dns_{RecordKind::kDns, cfg.codec},
      enc_{RecordKind::kEncFlow, cfg.codec} {
  if (cfg_.max_records_per_segment == 0) {
    throw std::invalid_argument{"SpoolConfig::max_records_per_segment must be > 0"};
  }
  fs::create_directories(dir_);
}

SpoolWriter::~SpoolWriter() {
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; callers needing the error call flush().
  }
}

template <typename Rec>
void SpoolWriter::add(OpenSegment& seg, const Rec& rec, SimTime ts) {
  if (seg.any && ts < seg.last) {
    throw std::runtime_error{
        strfmt("spool %s: %s record at %lld us arrived after %lld us; spool input must be "
               "time-sorted",
               dir_.c_str(), to_string(seg.builder.kind()).data(),
               static_cast<long long>(ts.count_us()),
               static_cast<long long>(seg.last.count_us()))};
  }
  const std::uint32_t count = seg.builder.count();
  if (count > 0 &&
      (count >= cfg_.max_records_per_segment || ts - seg.first >= cfg_.max_segment_span)) {
    rotate(seg);
  }
  if (seg.builder.count() == 0) seg.first = ts;
  seg.builder.add(rec);
  seg.last = ts;
  seg.any = true;
  ++seg.records_total;
}

void SpoolWriter::rotate(OpenSegment& seg) {
  const std::uint32_t count = seg.builder.count();
  if (count == 0) return;
  const RecordKind kind = seg.builder.kind();
  const std::uint64_t raw_bytes = seg.builder.raw_bytes();
  const std::string blob = seg.builder.build();  // resets the builder
  write_segment_file((fs::path{dir_} / segment_name(kind, seg.next_seq)).string(), blob);
  ++seg.next_seq;
  ++segments_written_;
  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.counter("spool_segment_rotations_total").add();
    reg.counter("spool_bytes_written_total").add(blob.size());
    // Pre-compression payload bytes: spool_raw_bytes_total /
    // spool_bytes_written_total approximates the compression ratio.
    reg.counter("spool_raw_bytes_total").add(raw_bytes);
    reg.counter("spool_records_written_total").add(count);
  }
}

void SpoolWriter::on_conn(const capture::ConnRecord& rec) { add(conn_, rec, rec.start); }

void SpoolWriter::on_dns(const capture::DnsRecord& rec) { add(dns_, rec, rec.ts); }

void SpoolWriter::on_encflow(const capture::EncFlowRecord& rec) {
  add(enc_, rec, rec.start);
}

void SpoolWriter::flush() {
  rotate(conn_);
  rotate(dns_);
  rotate(enc_);
}

// ---- reading ---------------------------------------------------------------

SpoolListing list_spool(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    throw std::runtime_error{"spool directory not found: " + dir};
  }
  SpoolListing out;
  for (const auto& entry : fs::directory_iterator{dir}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".seg")) continue;
    if (name.starts_with("conn-")) {
      out.conn_segments.push_back(entry.path().string());
    } else if (name.starts_with("dns-")) {
      out.dns_segments.push_back(entry.path().string());
    } else if (name.starts_with("enc-")) {
      out.enc_segments.push_back(entry.path().string());
    }
  }
  std::sort(out.conn_segments.begin(), out.conn_segments.end());
  std::sort(out.dns_segments.begin(), out.dns_segments.end());
  std::sort(out.enc_segments.begin(), out.enc_segments.end());
  return out;
}

ReplayCounts replay_spool(const SpoolListing& listing, capture::RecordSink& sink) {
  SegmentStream<capture::DnsRecord> dns{&listing.dns_segments, &sink};
  SegmentStream<capture::ConnRecord> conn{&listing.conn_segments, &sink};
  SegmentStream<capture::EncFlowRecord> enc{&listing.enc_segments, &sink};
  return merge_deliver(dns, conn, enc);
}

ReplayCounts replay_spool(const std::string& dir, capture::RecordSink& sink) {
  return replay_spool(list_spool(dir), sink);
}

ReplayCounts replay_dataset(const capture::Dataset& ds, capture::RecordSink& sink) {
  VectorStream<capture::DnsRecord> dns{&ds.dns, &sink};
  VectorStream<capture::ConnRecord> conn{&ds.conns, &sink};
  VectorStream<capture::EncFlowRecord> enc{&ds.encflows, &sink};
  return merge_deliver(dns, conn, enc);
}

// ---- text converters -------------------------------------------------------

ReplayCounts text_to_spool(const std::string& text_dir, const std::string& spool_dir,
                           SpoolConfig cfg) {
  const auto conn_path = (fs::path{text_dir} / "conn.log").string();
  const auto dns_path = (fs::path{text_dir} / "dns.log").string();
  const auto enc_path = (fs::path{text_dir} / "encflow.log").string();
  capture::Dataset ds = capture::load_dataset(conn_path, dns_path);
  if (fs::exists(enc_path)) {
    std::ifstream is{enc_path};
    if (!is) throw std::runtime_error{"cannot open " + enc_path};
    ds.encflows = capture::read_encflow_log(is, enc_path);
  }
  SpoolWriter writer{spool_dir, cfg};
  const ReplayCounts counts = replay_dataset(ds, writer);
  writer.flush();
  return counts;
}

namespace {

/// RecordSink that accumulates back into a Dataset (records arrive merged
/// and time-sorted, so each vector ends up sorted too).
class DatasetSink : public capture::RecordSink {
 public:
  void on_conn(const capture::ConnRecord& rec) override { ds.conns.push_back(rec); }
  void on_dns(const capture::DnsRecord& rec) override { ds.dns.push_back(rec); }
  void on_encflow(const capture::EncFlowRecord& rec) override {
    ds.encflows.push_back(rec);
  }
  capture::Dataset ds;
};

}  // namespace

ReplayCounts spool_to_text(const std::string& spool_dir, const std::string& text_dir) {
  DatasetSink sink;
  const ReplayCounts counts = replay_spool(spool_dir, sink);
  fs::create_directories(text_dir);
  capture::save_dataset(sink.ds, (fs::path{text_dir} / "conn.log").string(),
                        (fs::path{text_dir} / "dns.log").string());
  // encflow.log only when the spool held enc metadata — cleartext spools
  // keep producing exactly the two classic files.
  if (!sink.ds.encflows.empty()) {
    const auto enc_path = (fs::path{text_dir} / "encflow.log").string();
    std::ofstream os{enc_path};
    if (!os) throw std::runtime_error{"cannot open " + enc_path};
    capture::write_encflow_log(os, sink.ds.encflows);
    if (!os) throw std::runtime_error{"short write to " + enc_path};
  }
  return counts;
}

std::uint64_t spool_bytes(const SpoolListing& listing) {
  std::uint64_t total = 0;
  for (const auto& path : listing.conn_segments) total += fs::file_size(path);
  for (const auto& path : listing.dns_segments) total += fs::file_size(path);
  for (const auto& path : listing.enc_segments) total += fs::file_size(path);
  return total;
}

std::uint64_t spool_bytes(const std::string& dir) { return spool_bytes(list_spool(dir)); }

}  // namespace dnsctx::stream
