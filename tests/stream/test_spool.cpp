// dnsctx — spool writer/reader tests: rotation, merged replay order,
// writer invariants, and byte-identical text↔binary conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "capture/logio.hpp"
#include "stream/segment_view.hpp"
#include "stream/spool.hpp"
#include "temp_dir.hpp"

namespace dnsctx::stream {
namespace {

/// A fresh, empty directory `name` under this process's own temporary
/// root, which is removed at exit.
std::string temp_dir(const char* name) {
  static const testutil::TempDir root{"dnsctx_spool_test"};
  const auto dir = root.path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

capture::ConnRecord conn_at(std::int64_t us) {
  capture::ConnRecord c;
  c.start = SimTime::from_us(us);
  c.duration = SimDuration::ms(10);
  c.orig_ip = Ipv4Addr{10, 0, 0, 1};
  c.resp_ip = Ipv4Addr{1, 2, 3, 4};
  c.orig_port = 40000;
  c.resp_port = 443;
  return c;
}

capture::DnsRecord dns_at(std::int64_t us) {
  capture::DnsRecord d;
  d.ts = SimTime::from_us(us);
  d.duration = SimDuration::ms(5);
  d.client_ip = Ipv4Addr{10, 0, 0, 1};
  d.client_port = 50000;
  d.resolver_ip = Ipv4Addr{8, 8, 8, 8};
  d.query = "example.com";
  d.answered = true;
  d.answers = {{Ipv4Addr{1, 2, 3, 4}, 60}};
  return d;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Records delivery order as (kind, key-µs) pairs.
struct OrderSink final : capture::RecordSink {
  std::vector<std::pair<char, std::int64_t>> order;
  void on_conn(const capture::ConnRecord& rec) override {
    order.emplace_back('c', rec.start.count_us());
  }
  void on_dns(const capture::DnsRecord& rec) override {
    order.emplace_back('d', rec.ts.count_us());
  }
};

TEST(SpoolWriter, RotatesByRecordCount) {
  const auto dir = temp_dir("dnsctx_spool_rot");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 2;
  SpoolWriter writer{dir, cfg};
  for (int i = 0; i < 5; ++i) {
    writer.on_conn(conn_at(1000 * (i + 1)));
  }
  writer.flush();
  const auto listing = list_spool(dir);
  EXPECT_EQ(listing.conn_segments.size(), 3u);  // 2 + 2 + 1
  EXPECT_TRUE(listing.dns_segments.empty());
  EXPECT_EQ(writer.conns_written(), 5u);
}

TEST(SpoolWriter, RotatesBySimTimeSpan) {
  const auto dir = temp_dir("dnsctx_spool_span");
  SpoolConfig cfg;
  cfg.max_segment_span = SimDuration::sec(10);
  SpoolWriter writer{dir, cfg};
  writer.on_dns(dns_at(0));
  writer.on_dns(dns_at(5'000'000));
  writer.on_dns(dns_at(11'000'000));  // > 10 s after segment start → new segment
  writer.on_dns(dns_at(12'000'000));
  writer.flush();
  EXPECT_EQ(list_spool(dir).dns_segments.size(), 2u);
}

TEST(SpoolWriter, RejectsTimestampRegression) {
  const auto dir = temp_dir("dnsctx_spool_regress");
  SpoolWriter writer{dir};
  writer.on_conn(conn_at(5000));
  EXPECT_THROW(writer.on_conn(conn_at(4000)), std::runtime_error);
  // The other kind has its own clock: an earlier DNS record is fine.
  EXPECT_NO_THROW(writer.on_dns(dns_at(1000)));
}

TEST(SpoolReplay, MergesKindsInTimeOrderDnsFirstOnTies) {
  const auto dir = temp_dir("dnsctx_spool_merge");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 2;  // force several segments per kind
  SpoolWriter writer{dir, cfg};
  for (const auto us : {1000, 3000, 5000, 5000, 9000}) {
    writer.on_conn(conn_at(us));
  }
  for (const auto us : {2000, 5000, 8000}) {
    writer.on_dns(dns_at(us));
  }
  writer.flush();

  OrderSink sink;
  const auto counts = replay_spool(dir, sink);
  EXPECT_EQ(counts.conns, 5u);
  EXPECT_EQ(counts.dns, 3u);
  const std::vector<std::pair<char, std::int64_t>> expected = {
      {'c', 1000}, {'d', 2000}, {'c', 3000}, {'d', 5000},
      {'c', 5000}, {'c', 5000}, {'d', 8000}, {'c', 9000}};
  EXPECT_EQ(sink.order, expected);
}

TEST(SpoolReplay, DatasetReplayMatchesSpoolReplay) {
  capture::Dataset ds;
  ds.conns = {conn_at(1000), conn_at(4000)};
  ds.dns = {dns_at(1000), dns_at(2000)};
  OrderSink sink;
  const auto counts = replay_dataset(ds, sink);
  EXPECT_EQ(counts.conns, 2u);
  EXPECT_EQ(counts.dns, 2u);
  const std::vector<std::pair<char, std::int64_t>> expected = {
      {'d', 1000}, {'c', 1000}, {'d', 2000}, {'c', 4000}};
  EXPECT_EQ(sink.order, expected);
}

TEST(SpoolConvert, TextRoundTripIsByteIdentical) {
  // Under either codec: text → spool → text gives back the same bytes,
  // and both spools replay the same records in the same order, so a
  // codec change (export, then import with the other codec) changes
  // nothing a study sees.
  const auto text_dir = temp_dir("dnsctx_spool_text");
  capture::Dataset ds;
  for (int i = 0; i < 40; ++i) {
    ds.conns.push_back(conn_at(1000 + 13 * i));
    if (i % 3 != 0) ds.dns.push_back(dns_at(1100 + 13 * i));
  }
  ds.conns.push_back(ds.conns.back());  // tied timestamps survive
  ds.dns[1].answered = false;
  ds.dns[1].answers.clear();
  ds.dns[1].duration = SimDuration::zero();
  capture::save_dataset(ds, text_dir + "/conn.log", text_dir + "/dns.log");

  std::vector<std::vector<std::pair<char, std::int64_t>>> orders;
  for (const auto codec : {SegmentCodec::kNone, SegmentCodec::kLz}) {
    const std::string name{stream::codec(codec).name()};
    const auto spool_dir = temp_dir(("dnsctx_spool_bin_" + name).c_str());
    const auto back_dir = temp_dir(("dnsctx_spool_back_" + name).c_str());
    SpoolConfig cfg;
    cfg.max_records_per_segment = 16;
    cfg.codec = codec;
    const auto in_counts = text_to_spool(text_dir, spool_dir, cfg);
    EXPECT_EQ(in_counts.conns, 41u);
    EXPECT_EQ(in_counts.dns, 26u);
    const auto out_counts = spool_to_text(spool_dir, back_dir);
    EXPECT_EQ(out_counts.conns, 41u);
    EXPECT_EQ(out_counts.dns, 26u);
    EXPECT_EQ(read_file(text_dir + "/conn.log"), read_file(back_dir + "/conn.log")) << name;
    EXPECT_EQ(read_file(text_dir + "/dns.log"), read_file(back_dir + "/dns.log")) << name;
    // The codec took effect (lz may still store a body it cannot shrink
    // uncompressed, so one lz segment is enough).
    std::size_t stored_as_requested = 0;
    for (const auto& path : list_spool(spool_dir).conn_segments) {
      if (SegmentView::map_file(path).stored_codec() == codec) ++stored_as_requested;
    }
    EXPECT_GT(stored_as_requested, 0u) << name;
    OrderSink sink;
    (void)replay_spool(spool_dir, sink);
    orders.push_back(std::move(sink.order));
  }
  EXPECT_EQ(orders[0], orders[1]);
}

TEST(SpoolWriter, DefaultsToV2Compressed) {
  const auto dir = temp_dir("dnsctx_spool_v2def");
  SpoolWriter writer{dir};
  for (int i = 0; i < 100; ++i) {
    writer.on_conn(conn_at(1000 + i));
    writer.on_dns(dns_at(1000 + i));
  }
  writer.flush();
  const auto listing = list_spool(dir);
  ASSERT_EQ(listing.total(), 2u);
  for (const auto* paths : {&listing.conn_segments, &listing.dns_segments}) {
    const std::string blob = read_file(paths->front());
    EXPECT_EQ(blob[4], static_cast<char>(kSegmentVersion)) << "version field, low byte";
    EXPECT_EQ(SegmentView::parse(blob, paths->front()).stored_codec(), SegmentCodec::kLz);
  }
}

TEST(SpoolConvert, V2SpoolExportsByteIdenticalText) {
  // A spool written record by record, as `simulate --binary-logs` does,
  // exports exactly the text logs the same records make in batch mode.
  const auto text_dir = temp_dir("dnsctx_conv_text");
  const auto spool_dir = temp_dir("dnsctx_conv_spool");
  const auto out_dir = temp_dir("dnsctx_conv_out");
  capture::Dataset ds;
  ds.conns = {conn_at(1000), conn_at(2500), conn_at(2500)};
  ds.dns = {dns_at(500), dns_at(2000)};
  capture::save_dataset(ds, text_dir + "/conn.log", text_dir + "/dns.log");
  {
    SpoolWriter writer{spool_dir};
    (void)replay_dataset(ds, writer);
    writer.flush();
  }
  (void)spool_to_text(spool_dir, out_dir);
  EXPECT_EQ(read_file(text_dir + "/conn.log"), read_file(out_dir + "/conn.log"));
  EXPECT_EQ(read_file(text_dir + "/dns.log"), read_file(out_dir + "/dns.log"));
}

TEST(SpoolListing, SortedAndFiltered) {
  const auto dir = temp_dir("dnsctx_spool_list");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 1;
  SpoolWriter writer{dir, cfg};
  for (int i = 0; i < 3; ++i) {
    writer.on_conn(conn_at(1000 * (i + 1)));
  }
  writer.flush();
  std::ofstream{dir + "/notes.txt"} << "not a segment\n";
  const auto listing = list_spool(dir);
  ASSERT_EQ(listing.conn_segments.size(), 3u);
  EXPECT_TRUE(std::is_sorted(listing.conn_segments.begin(), listing.conn_segments.end()));
  EXPECT_EQ(listing.total(), 3u);
}

}  // namespace
}  // namespace dnsctx::stream
