// dnsctx — segment/spool failure-path tests: every structural defect
// must throw an error that names the offending source so operators can
// find the bad file in a large spool. Also covers the text-log loaders'
// path-bearing diagnostics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "capture/logio.hpp"
#include "segment_v1.hpp"
#include "stream/segment.hpp"
#include "stream/spool.hpp"
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
void expect_throw_containing(Fn&& fn, std::initializer_list<std::string> needles) {
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
  std::string payload;
  append_record(payload, c);
  return build_segment(RecordKind::kConn, 1, ts, ts, payload);
}

TEST(SegmentErrors, TruncatedHeader) {
  expect_throw_containing([] { (void)parse_segment("DCSG", "short.seg"); },
                          {"short.seg", "truncated"});
}

TEST(SegmentErrors, BadMagic) {
  auto blob = one_conn_blob();
  blob[0] = 'X';
  expect_throw_containing([&] { (void)parse_segment(blob, "bad.seg"); },
                          {"bad.seg", "magic"});
}

TEST(SegmentErrors, UnsupportedVersion) {
  auto blob = one_conn_blob();
  blob[4] = 99;  // version lives right after the u32 magic
  expect_throw_containing([&] { (void)parse_segment(blob, "vers.seg"); },
                          {"vers.seg", "version"});
}

TEST(SegmentErrors, TruncatedPayload) {
  const auto blob = one_conn_blob();
  expect_throw_containing(
      [&] { (void)parse_segment(std::string_view{blob}.substr(0, blob.size() - 3), "cut.seg"); },
      {"cut.seg", "truncated"});
}

TEST(SegmentErrors, CrcCorruptionNamesTheFile) {
  auto blob = one_conn_blob();
  blob[blob.size() - 1] ^= 0x01;  // flip one payload bit
  expect_throw_containing([&] { (void)parse_segment(blob, "spool/conn-00000003.seg"); },
                          {"spool/conn-00000003.seg", "CRC"});
}

TEST(SegmentErrors, OutOfOrderTimestampsRejected) {
  capture::ConnRecord late, early;
  late.start = SimTime::from_us(5000);
  early.start = SimTime::from_us(2000);
  std::string payload;
  append_record(payload, late);
  append_record(payload, early);
  const auto blob = build_segment(RecordKind::kConn, 2, early.start, late.start, payload);
  expect_throw_containing([&] { (void)parse_segment(blob, "ooo.seg"); },
                          {"ooo.seg", "out of order"});
}

TEST(SegmentErrors, TruncatedRecordBodyReportsByteOffset) {
  // A v1 record whose length prefix admits only 3 body bytes: the
  // field decoder must say where inside the body it ran dry.
  std::string payload;
  payload += std::string("\x03\x00\x00\x00", 4);  // body_len = 3
  payload += "abc";
  const auto blob = build_segment(RecordKind::kConn, 1, SimTime::from_us(1000),
                                  SimTime::from_us(1000), payload);
  expect_throw_containing([&] { (void)parse_segment(blob, "tiny.seg"); },
                          {"tiny.seg", "truncated", "byte offset"});
}

TEST(SegmentErrors, TrailingBytesRejected) {
  auto blob = one_conn_blob();
  blob += "extra";
  expect_throw_containing([&] { (void)parse_segment(blob, "trail.seg"); }, {"trail.seg"});
}

TEST(SegmentErrors, MissingFileNamesPath) {
  expect_throw_containing([] { (void)read_segment_file("/nonexistent/zone/x.seg"); },
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
