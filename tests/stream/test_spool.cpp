// dnsctx — spool writer/reader tests: rotation, merged replay order,
// writer invariants, and byte-identical text↔binary conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "capture/logio.hpp"
#include "segment_v1.hpp"
#include "stream/spool.hpp"
#include "temp_dir.hpp"
#include "util/strings.hpp"

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

/// Write `recs` into `dir` as v1 segments of at most `per` records, named
/// the way SpoolWriter names them (v1 spools predate the v2-only writer).
template <typename Rec, typename KeyTime>
void write_v1_segments(const std::string& dir, RecordKind kind,
                       const std::vector<Rec>& recs, std::size_t per, KeyTime key) {
  for (std::size_t i = 0, seq = 0; i < recs.size(); i += per, ++seq) {
    const std::size_t end = std::min(i + per, recs.size());
    std::string payload;
    for (std::size_t j = i; j < end; ++j) append_record(payload, recs[j]);
    write_segment_file(
        strfmt("%s/%s-%08zu.seg", dir.c_str(), to_string(kind).data(), seq),
        build_segment(kind, static_cast<std::uint32_t>(end - i), key(recs[i]),
                      key(recs[end - 1]), payload));
  }
}

void write_v1_spool(const std::string& dir, const capture::Dataset& ds, std::size_t per) {
  write_v1_segments(dir, RecordKind::kConn, ds.conns, per,
                    [](const capture::ConnRecord& r) { return r.start; });
  write_v1_segments(dir, RecordKind::kDns, ds.dns, per,
                    [](const capture::DnsRecord& r) { return r.ts; });
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
  const auto text_dir = temp_dir("dnsctx_spool_text");
  const auto spool_dir = temp_dir("dnsctx_spool_bin");
  const auto back_dir = temp_dir("dnsctx_spool_back");
  capture::Dataset ds;
  ds.conns = {conn_at(1000), conn_at(2500), conn_at(2500)};
  ds.dns = {dns_at(500), dns_at(2000)};
  ds.dns[1].answered = false;
  ds.dns[1].answers.clear();
  ds.dns[1].duration = SimDuration::zero();
  capture::save_dataset(ds, text_dir + "/conn.log", text_dir + "/dns.log");

  SpoolConfig cfg;
  cfg.max_records_per_segment = 2;
  const auto in_counts = text_to_spool(text_dir, spool_dir, cfg);
  EXPECT_EQ(in_counts.conns, 3u);
  EXPECT_EQ(in_counts.dns, 2u);
  const auto out_counts = spool_to_text(spool_dir, back_dir);
  EXPECT_EQ(out_counts.conns, 3u);
  EXPECT_EQ(out_counts.dns, 2u);

  auto slurp = [](const std::string& path) {
    std::ifstream is{path, std::ios::binary};
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(slurp(text_dir + "/conn.log"), slurp(back_dir + "/conn.log"));
  EXPECT_EQ(slurp(text_dir + "/dns.log"), slurp(back_dir + "/dns.log"));
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
    std::ifstream is{paths->front(), std::ios::binary};
    std::stringstream ss;
    ss << is.rdbuf();
    const auto header = parse_segment_header(ss.str(), paths->front());
    EXPECT_EQ(header.version, kSegmentVersionV2);
  }
}

TEST(SpoolConvert, V1ToV2RoundTripPreservesEveryRecord) {
  const auto v1_dir = temp_dir("dnsctx_conv_v1");
  const auto v2_dir = temp_dir("dnsctx_conv_v2");
  const auto back_dir = temp_dir("dnsctx_conv_back");
  const auto direct_dir = temp_dir("dnsctx_conv_direct");

  capture::Dataset ds;
  for (int i = 0; i < 40; ++i) {
    ds.conns.push_back(conn_at(1000 + 13 * i));
    if (i % 3 != 0) ds.dns.push_back(dns_at(1100 + 13 * i));
  }
  write_v1_spool(v1_dir, ds, 16);

  SpoolConfig v2_cfg;  // defaults: lz
  const auto up = convert_spool(v1_dir, v2_dir, v2_cfg);
  EXPECT_EQ(up.conns, 40u);
  EXPECT_EQ(up.dns, 26u);
  SpoolConfig plain_cfg;
  plain_cfg.codec = SegmentCodec::kNone;
  plain_cfg.max_records_per_segment = 16;
  const auto down = convert_spool(v2_dir, back_dir, plain_cfg);
  EXPECT_EQ(down.conns, 40u);
  EXPECT_EQ(down.dns, 26u);

  // Replay order and content are invariant across both conversions —
  // the property that makes study results byte-identical per format.
  OrderSink a, b, c;
  (void)replay_spool(v1_dir, a);
  (void)replay_spool(v2_dir, b);
  (void)replay_spool(back_dir, c);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.order, c.order);

  // The v2 spool is the small one.
  EXPECT_LT(spool_bytes(v2_dir), spool_bytes(v1_dir));
  // The writer is a function of the record stream alone: converting the
  // v1 spool directly gives the same files as going through v2 + lz.
  (void)convert_spool(v1_dir, direct_dir, plain_cfg);
  const auto back = list_spool(back_dir);
  const auto direct = list_spool(direct_dir);
  ASSERT_EQ(back.total(), direct.total());
  for (std::size_t i = 0; i < back.conn_segments.size(); ++i) {
    EXPECT_EQ(read_file(back.conn_segments[i]), read_file(direct.conn_segments[i]));
  }
  for (std::size_t i = 0; i < back.dns_segments.size(); ++i) {
    EXPECT_EQ(read_file(back.dns_segments[i]), read_file(direct.dns_segments[i]));
  }
}

TEST(SpoolConvert, V2SpoolExportsByteIdenticalText) {
  const auto text_dir = temp_dir("dnsctx_conv_text");
  const auto v1_dir = temp_dir("dnsctx_conv_t_v1");
  const auto v2_dir = temp_dir("dnsctx_conv_t_v2");
  const auto out1 = temp_dir("dnsctx_conv_t_out1");
  const auto out2 = temp_dir("dnsctx_conv_t_out2");
  capture::Dataset ds;
  ds.conns = {conn_at(1000), conn_at(2500), conn_at(2500)};
  ds.dns = {dns_at(500), dns_at(2000)};
  capture::save_dataset(ds, text_dir + "/conn.log", text_dir + "/dns.log");

  write_v1_spool(v1_dir, ds, 65'536);
  (void)convert_spool(v1_dir, v2_dir);
  (void)spool_to_text(v1_dir, out1);
  (void)spool_to_text(v2_dir, out2);

  EXPECT_EQ(read_file(out1 + "/conn.log"), read_file(out2 + "/conn.log"));
  EXPECT_EQ(read_file(out1 + "/dns.log"), read_file(out2 + "/dns.log"));
  EXPECT_EQ(read_file(text_dir + "/conn.log"), read_file(out2 + "/conn.log"));
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
