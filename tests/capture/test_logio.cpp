// Unit tests for TSV log persistence.
#include <gtest/gtest.h>

#include <sstream>

#include "capture/logio.hpp"
#include "temp_dir.hpp"

namespace dnsctx::capture {
namespace {

[[nodiscard]] ConnRecord sample_conn() {
  ConnRecord c;
  c.start = SimTime::from_us(1'234'567);
  c.duration = SimDuration::us(987'654);
  c.orig_ip = Ipv4Addr{100, 66, 1, 7};
  c.orig_port = 23'456;
  c.resp_ip = Ipv4Addr{34, 2, 3, 4};
  c.resp_port = 443;
  c.proto = Proto::kTcp;
  c.orig_bytes = 512;
  c.resp_bytes = 1'048'576;
  c.state = ConnState::kSf;
  return c;
}

[[nodiscard]] DnsRecord sample_dns() {
  DnsRecord d;
  d.ts = SimTime::from_us(55);
  d.duration = SimDuration::us(2'100);
  d.client_ip = Ipv4Addr{100, 66, 1, 7};
  d.client_port = 40'001;
  d.resolver_ip = Ipv4Addr{8, 8, 8, 8};
  d.query = "www.example.com";
  d.qtype = dns::RrType::kA;
  d.rcode = dns::Rcode::kNoError;
  d.answered = true;
  d.answers = {{Ipv4Addr{93, 184, 216, 34}, 300}, {Ipv4Addr{93, 184, 216, 35}, 60}};
  return d;
}

TEST(LogIo, ConnRoundTrip) {
  std::stringstream ss;
  write_conn_log(ss, {sample_conn()});
  const auto back = read_conn_log(ss);
  ASSERT_EQ(back.size(), 1u);
  const auto& c = back[0];
  const auto& ref = sample_conn();
  EXPECT_EQ(c.start, ref.start);
  EXPECT_EQ(c.duration, ref.duration);
  EXPECT_EQ(c.orig_ip, ref.orig_ip);
  EXPECT_EQ(c.resp_port, ref.resp_port);
  EXPECT_EQ(c.orig_bytes, ref.orig_bytes);
  EXPECT_EQ(c.resp_bytes, ref.resp_bytes);
  EXPECT_EQ(c.state, ref.state);
}

TEST(LogIo, DnsRoundTrip) {
  std::stringstream ss;
  write_dns_log(ss, {sample_dns()});
  const auto back = read_dns_log(ss);
  ASSERT_EQ(back.size(), 1u);
  const auto& d = back[0];
  const auto ref = sample_dns();
  EXPECT_EQ(d.ts, ref.ts);
  EXPECT_EQ(d.duration, ref.duration);
  EXPECT_EQ(d.query, ref.query);
  EXPECT_EQ(d.qtype, ref.qtype);
  EXPECT_TRUE(d.answered);
  EXPECT_EQ(d.answers, ref.answers);
}

TEST(LogIo, UnansweredAndEmptyQueryRoundTrip) {
  DnsRecord d = sample_dns();
  d.answered = false;
  d.answers.clear();
  d.query.clear();
  std::stringstream ss;
  write_dns_log(ss, {d});
  const auto back = read_dns_log(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_FALSE(back[0].answered);
  EXPECT_TRUE(back[0].answers.empty());
  EXPECT_TRUE(back[0].query.empty());
}

TEST(LogIo, AllConnStatesRoundTrip) {
  std::vector<ConnRecord> conns;
  for (const auto s :
       {ConnState::kS0, ConnState::kSf, ConnState::kRej, ConnState::kRst, ConnState::kOth}) {
    auto c = sample_conn();
    c.state = s;
    conns.push_back(c);
  }
  std::stringstream ss;
  write_conn_log(ss, conns);
  const auto back = read_conn_log(ss);
  ASSERT_EQ(back.size(), conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) EXPECT_EQ(back[i].state, conns[i].state);
}

TEST(LogIo, UdpProtoRoundTrip) {
  auto c = sample_conn();
  c.proto = Proto::kUdp;
  std::stringstream ss;
  write_conn_log(ss, {c});
  EXPECT_EQ(read_conn_log(ss)[0].proto, Proto::kUdp);
}

TEST(LogIo, EmptyLogsAreJustHeaders) {
  std::stringstream ss;
  write_conn_log(ss, {});
  EXPECT_TRUE(read_conn_log(ss).empty());
  std::stringstream ss2;
  write_dns_log(ss2, {});
  EXPECT_TRUE(read_dns_log(ss2).empty());
}

TEST(LogIo, MalformedConnLineReportsLineNumber) {
  std::stringstream ss{"#header\nnot\tenough\tfields\n"};
  try {
    (void)read_conn_log(ss);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

TEST(LogIo, MalformedNumberRejected) {
  auto c = sample_conn();
  std::stringstream ss;
  write_conn_log(ss, {c});
  std::string text = ss.str();
  const auto pos = text.find("512");
  text.replace(pos, 3, "xyz");
  std::stringstream bad{text};
  EXPECT_THROW((void)read_conn_log(bad), std::runtime_error);
}

TEST(LogIo, MalformedAnswerRejected) {
  std::stringstream ss;
  write_dns_log(ss, {sample_dns()});
  std::string text = ss.str();
  const auto pos = text.find("93.184.216.34:300");
  text.replace(pos, 17, "93.184.216.34#300");
  std::stringstream bad{text};
  EXPECT_THROW((void)read_dns_log(bad), std::runtime_error);
}

TEST(LogIo, SaveAndLoadDatasetFiles) {
  Dataset ds;
  ds.conns = {sample_conn()};
  ds.dns = {sample_dns()};
  const testutil::TempDir tmp{"dnsctx_logio"};
  const std::string conn_path = tmp.file("conn.log");
  const std::string dns_path = tmp.file("dns.log");
  save_dataset(ds, conn_path, dns_path);
  const Dataset back = load_dataset(conn_path, dns_path);
  EXPECT_EQ(back.conns.size(), 1u);
  EXPECT_EQ(back.dns.size(), 1u);
  EXPECT_EQ(back.dns[0].answers, ds.dns[0].answers);
}

TEST(LogIo, MissingFileThrows) {
  EXPECT_THROW((void)load_dataset("/nonexistent/a.log", "/nonexistent/b.log"),
               std::runtime_error);
}

TEST(LogIo, LargeDatasetRoundTripsExactly) {
  std::vector<DnsRecord> dns;
  for (int i = 0; i < 500; ++i) {
    auto d = sample_dns();
    d.ts = SimTime::from_us(i * 1'000);
    d.query = "host" + std::to_string(i) + ".example.com";
    d.answers[0].ttl = static_cast<std::uint32_t>(i);
    dns.push_back(std::move(d));
  }
  std::stringstream ss;
  write_dns_log(ss, dns);
  const auto back = read_dns_log(ss);
  ASSERT_EQ(back.size(), dns.size());
  for (std::size_t i = 0; i < dns.size(); ++i) {
    EXPECT_EQ(back[i].query, dns[i].query);
    EXPECT_EQ(back[i].answers[0].ttl, dns[i].answers[0].ttl);
  }
}

// Exercise the buffered readers at a size where reserve() and the
// fixed-field splitter matter, and verify byte-exactness by
// re-serializing what was read back.
TEST(LogIo, HugeRoundTripIsByteExact) {
  std::vector<ConnRecord> conns;
  std::vector<DnsRecord> dns;
  for (int i = 0; i < 20'000; ++i) {
    auto c = sample_conn();
    c.start = SimTime::from_us(i * 997);
    c.orig_port = static_cast<std::uint16_t>(1'024 + (i % 60'000));
    c.orig_bytes = static_cast<std::uint64_t>(i) * 31;
    c.proto = (i % 3) ? Proto::kTcp : Proto::kUdp;
    conns.push_back(c);

    auto d = sample_dns();
    d.ts = SimTime::from_us(i * 1'009);
    d.query = (i % 7) ? "host" + std::to_string(i) + ".example.com" : std::string{};
    d.answers.clear();
    for (int a = 0; a < i % 5; ++a) {
      d.answers.push_back({Ipv4Addr{93, 184, static_cast<std::uint8_t>(a), 34},
                           static_cast<std::uint32_t>(60 * (a + 1))});
    }
    d.answered = !d.answers.empty();
    dns.push_back(std::move(d));
  }

  std::stringstream conn_ss, dns_ss;
  write_conn_log(conn_ss, conns);
  write_dns_log(dns_ss, dns);

  const auto conns_back = read_conn_log(conn_ss);
  const auto dns_back = read_dns_log(dns_ss);
  ASSERT_EQ(conns_back.size(), conns.size());
  ASSERT_EQ(dns_back.size(), dns.size());

  std::stringstream conn_ss2, dns_ss2;
  write_conn_log(conn_ss2, conns_back);
  write_dns_log(dns_ss2, dns_back);
  EXPECT_EQ(conn_ss.str(), conn_ss2.str());
  EXPECT_EQ(dns_ss.str(), dns_ss2.str());
}

TEST(LogIo, MissingTrailingNewlineStillParses) {
  std::stringstream ss;
  write_conn_log(ss, {sample_conn(), sample_conn()});
  std::string text = ss.str();
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  std::stringstream trimmed{text};
  EXPECT_EQ(read_conn_log(trimmed).size(), 2u);
}

}  // namespace
}  // namespace dnsctx::capture
