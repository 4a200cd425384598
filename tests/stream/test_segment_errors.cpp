// dnsctx — segment/spool failure-path tests: every structural defect
// must throw an error that names the offending source so operators can
// find the bad file in a large spool, and a segment in the retired v1
// format is refused on every read path with how to regenerate it. Also
// covers the text-log loaders' path-bearing diagnostics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "capture/logio.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"
#include "stream/segment_view.hpp"
#include "stream/spool.hpp"
#include "stream/wire.hpp"
#include "temp_dir.hpp"

namespace dnsctx::stream {
namespace {

/// A fresh, empty directory `name` under this process's own temporary
/// root, which is removed at exit.
std::string temp_dir(const char* name) {
  static const testutil::TempDir root{"dnsctx_segerr_test"};
  const auto dir = root.path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// EXPECT that `fn` throws a std::runtime_error whose message contains
/// every needle.
template <typename Fn>
void expect_throw_containing(Fn&& fn, const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message \"" << msg << "\" lacks \"" << needle << "\"";
    }
  }
}

std::string one_conn_blob(SimTime ts = SimTime::from_us(1000)) {
  capture::ConnRecord c;
  c.start = ts;
  c.orig_ip = Ipv4Addr{10, 0, 0, 1};
  c.resp_ip = Ipv4Addr{1, 2, 3, 4};
  return build_segment_v2(std::vector<capture::ConnRecord>{c});
}

/// A well-formed segment whose version field says 1: what every segment
/// of a spool written before v2 starts with.
std::string v1_blob() {
  auto blob = one_conn_blob();
  blob[4] = 1;  // version lives right after the u32 magic
  return blob;
}

/// The refusal names the source and both ways to regenerate a spool.
std::vector<std::string> v1_refusal(const std::string& source) {
  return {source, "v1", "simulate --config", "--binary-logs", "stream --import"};
}

TEST(SegmentErrors, TruncatedHeader) {
  expect_throw_containing([] { (void)SegmentView::parse("DCSG", "short.seg"); },
                          {"short.seg", "truncated"});
}

TEST(SegmentErrors, BadMagic) {
  auto blob = one_conn_blob();
  blob[0] = 'X';
  expect_throw_containing([&] { (void)SegmentView::parse(blob, "bad.seg"); },
                          {"bad.seg", "magic"});
}

TEST(SegmentErrors, UnsupportedVersion) {
  auto blob = one_conn_blob();
  blob[4] = 99;  // version lives right after the u32 magic
  expect_throw_containing([&] { (void)SegmentView::parse(blob, "vers.seg"); },
                          {"vers.seg", "version 99"});
}

TEST(SegmentErrors, V1SegmentIsRefusedWithTheRegenerateHint) {
  const std::string blob = v1_blob();
  expect_throw_containing([&] { (void)SegmentView::parse(blob, "old/conn-00000000.seg"); },
                          v1_refusal("old/conn-00000000.seg"));
  expect_throw_containing([&] { (void)SegmentView::adopt(blob, "tcp 10.0.0.9:4242"); },
                          v1_refusal("tcp 10.0.0.9:4242"));
  const auto dir = temp_dir("dnsctx_segerr_v1_map");
  const auto path = dir + "/conn-00000000.seg";
  write_segment_file(path, blob);
  expect_throw_containing([&] { (void)SegmentView::map_file(path); }, v1_refusal(path));
  // The header alone is enough to tell: the parser `stream --push` runs
  // before it sends a file gives the same refusal.
  expect_throw_containing(
      [&] { (void)parse_segment_header(std::string_view{blob}.substr(0, kSegmentHeaderBytes), path); },
      v1_refusal(path));
}

TEST(SegmentErrors, TruncatedPayload) {
  const auto blob = one_conn_blob();
  expect_throw_containing(
      [&] {
        (void)SegmentView::parse(std::string_view{blob}.substr(0, blob.size() - 3), "cut.seg");
      },
      {"cut.seg", "truncated"});
}

TEST(SegmentErrors, CrcCorruptionNamesTheFile) {
  auto blob = one_conn_blob();
  blob[blob.size() - 1] ^= 0x01;  // flip one payload bit
  expect_throw_containing([&] { (void)SegmentView::parse(blob, "spool/conn-00000003.seg"); },
                          {"spool/conn-00000003.seg", "CRC"});
}

TEST(SegmentErrors, OutOfOrderTimestampsRejected) {
  // Deltas cannot run backwards inside a segment, but the header is not
  // CRC-covered: one that starts the records after the last of them is
  // caught when they are decoded against it.
  capture::ConnRecord early, late;
  early.start = SimTime::from_us(2000);
  late.start = SimTime::from_us(5000);
  std::string blob = build_segment_v2(std::vector<capture::ConnRecord>{early, late});
  std::string first_ts;
  wire::put_i64(first_ts, 9000);
  blob.replace(12, 8, first_ts);  // header: magic, version, kind, pad, count, first_ts
  expect_throw_containing([&] { (void)SegmentView::parse(blob, "ooo.seg"); },
                          {"ooo.seg", "last_ts"});
}

TEST(SegmentErrors, TrailingBytesRejected) {
  auto blob = one_conn_blob();
  blob += "extra";
  expect_throw_containing([&] { (void)SegmentView::parse(blob, "trail.seg"); },
                          {"trail.seg"});
}

TEST(SegmentErrors, MissingFileNamesPath) {
  expect_throw_containing([] { (void)SegmentView::map_file("/nonexistent/zone/x.seg"); },
                          {"/nonexistent/zone/x.seg"});
}

TEST(SpoolErrors, CorruptSegmentFailsReplayNamingFile) {
  const auto dir = temp_dir("dnsctx_spool_corrupt");
  {
    SpoolConfig cfg;
    cfg.max_records_per_segment = 1;
    SpoolWriter writer{dir, cfg};
    capture::ConnRecord c;
    c.start = SimTime::from_us(1000);
    c.orig_ip = Ipv4Addr{10, 0, 0, 1};
    writer.on_conn(c);
    c.start = SimTime::from_us(2000);
    writer.on_conn(c);
    writer.flush();
  }
  const auto victim = dir + "/conn-00000001.seg";
  {
    std::fstream f{victim, std::ios::in | std::ios::out | std::ios::binary};
    ASSERT_TRUE(f);
    f.seekp(-1, std::ios::end);
    char last = 0;
    f.seekg(-1, std::ios::end);
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x40));
  }
  struct Null final : capture::RecordSink {
    void on_conn(const capture::ConnRecord&) override {}
    void on_dns(const capture::DnsRecord&) override {}
  } null;
  // Spool-level diagnostics carry the segment's index in the listing on
  // top of its path, so operators can locate it in a long run.
  expect_throw_containing([&] { (void)replay_spool(dir, null); },
                          {"conn-00000001.seg", "(segment 1)", "CRC"});
}

TEST(SpoolErrors, CrossSegmentOrderViolation) {
  const auto dir = temp_dir("dnsctx_spool_ooo");
  write_segment_file(dir + "/conn-00000000.seg", one_conn_blob(SimTime::from_us(9000)));
  write_segment_file(dir + "/conn-00000001.seg", one_conn_blob(SimTime::from_us(4000)));
  struct Null final : capture::RecordSink {
    void on_conn(const capture::ConnRecord&) override {}
    void on_dns(const capture::DnsRecord&) override {}
  } null;
  expect_throw_containing([&] { (void)replay_spool(dir, null); },
                          {"conn-00000001.seg", "(segment 1)", "before preceding segment"});
}

TEST(SpoolErrors, V1SegmentFailsReplayWithTheRegenerateHint) {
  // A spool whose first dns segment predates v2 fails as soon as the
  // replay opens it, naming the file; nothing is delivered.
  const auto dir = temp_dir("dnsctx_spool_v1");
  write_segment_file(dir + "/conn-00000000.seg", one_conn_blob());
  write_segment_file(dir + "/dns-00000000.seg", v1_blob());
  struct Count final : capture::RecordSink {
    std::size_t records = 0;
    void on_conn(const capture::ConnRecord&) override { ++records; }
    void on_dns(const capture::DnsRecord&) override { ++records; }
  } sink;
  auto needles = v1_refusal(dir + "/dns-00000000.seg");
  needles.emplace_back("(segment 0)");
  expect_throw_containing([&] { (void)replay_spool(dir, sink); }, needles);
  EXPECT_EQ(sink.records, 0u);
}

TEST(LogioErrors, ConnParseErrorNamesFile) {
  const auto dir = temp_dir("dnsctx_logio_err");
  const auto conn_path = dir + "/conn.log";
  const auto dns_path = dir + "/dns.log";
  std::ofstream{conn_path} << "0.1\tnot-an-ip\t1.2.3.4\t80\t80\ttcp\t0\t0\tSF\t0.0\n";
  std::ofstream{dns_path} << "";
  expect_throw_containing([&] { (void)capture::load_dataset(conn_path, dns_path); },
                          {conn_path});
}

TEST(LogioErrors, DnsMissingFieldsNamesFile) {
  const auto dir = temp_dir("dnsctx_logio_err2");
  const auto conn_path = dir + "/conn.log";
  const auto dns_path = dir + "/dns.log";
  std::ofstream{conn_path} << "";
  std::ofstream{dns_path} << "0.5\t10.0.0.1\n";  // far too few columns
  expect_throw_containing([&] { (void)capture::load_dataset(conn_path, dns_path); },
                          {dns_path});
}

}  // namespace
}  // namespace dnsctx::stream
