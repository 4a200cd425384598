// dnsctx — loopback integration tests for the telemetry server.
//
// The headline contract: /results/<tenant> is byte-identical to the
// offline engine over the same records, for multiple tenants on one
// server, for in-order and cross-kind-reordered delivery, and for
// partial streams flushed by a graceful shutdown. The robustness
// contract: a malformed or oversized frame closes only the offending
// connection, and a producer faster than the server is held back by TCP
// instead of losing anything.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "serve/push.hpp"
#include "serve/server.hpp"
#include "serve/sockets.hpp"
#include "stream/segment_v2.hpp"
#include "stream/spool.hpp"
#include "temp_dir.hpp"

namespace dnsctx::serve {
namespace {

capture::Dataset simulate(std::size_t houses, int hours, std::uint64_t seed) {
  scenario::ScenarioConfig cfg;
  cfg.houses = houses;
  cfg.duration = SimDuration::hours(hours);
  cfg.seed = seed;
  scenario::Town town{cfg};
  town.run();
  return town.dataset();
}

/// What the server must serve for `ds`: the offline engine's JSON.
std::string expected_json(const capture::Dataset& ds) {
  stream::OnlineStudy engine;
  stream::replay_dataset(ds, engine);
  return result_json(engine.finalize());
}

/// `recs` as segments of at most `per` records each.
template <typename Rec>
std::vector<std::string> chunk_segments(const std::vector<Rec>& recs, std::size_t per) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < recs.size(); i += per) {
    const auto first = recs.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last = recs.begin() + static_cast<std::ptrdiff_t>(std::min(i + per, recs.size()));
    out.push_back(stream::build_segment_v2(std::vector<Rec>(first, last)));
  }
  return out;
}

/// Server fixture: loop on a background thread, ephemeral ports. A held
/// server has bound its sockets but runs no loop until run().
struct TestServer {
  EventLoop loop;
  std::unique_ptr<Server> server;
  std::thread thread;

  explicit TestServer(ServeConfig cfg = {}, bool held = false) {
    server = std::make_unique<Server>(loop, std::move(cfg));
    server->start();
    if (!held) run();
  }

  void run() {
    thread = std::thread{[this] { loop.run(); }};
  }

  ~TestServer() { stop(); }

  void stop() {
    if (thread.joinable()) {
      loop.stop();
      thread.join();
    }
  }

  [[nodiscard]] std::uint16_t ingest_port() const { return server->ingest_port(); }
  [[nodiscard]] std::uint16_t http_port() const { return server->http_port(); }
};

void write_all_fd(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        << std::strerror(errno);
    pollfd pfd{fd, POLLOUT, 0};
    ASSERT_GT(::poll(&pfd, 1, 5000), 0);
  }
}

/// Read until EOF (with a deadline); returns everything received.
std::string read_to_eof(int fd, int timeout_ms = 5000) {
  std::string out;
  char buf[4096];
  for (;;) {
    const auto n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return out;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, timeout_ms) <= 0) return out;  // deadline: return what we have
      continue;
    }
    if (errno == EINTR) continue;
    return out;
  }
}

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = connect_tcp("127.0.0.1", port);
  write_all_fd(fd, "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string resp = read_to_eof(fd);
  ::close(fd);
  return resp;
}

std::string status_line(const std::string& resp) {
  return resp.substr(0, resp.find("\r\n"));
}

std::string body_of(const std::string& resp) {
  const auto split = resp.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : resp.substr(split + 4);
}

/// True once read() reports EOF on `fd` (server closed the connection).
bool wait_closed(int fd, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds{timeout_ms};
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    const auto n = ::read(fd, buf, sizeof buf);
    if (n == 0) return true;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLIN, 0};
      (void)::poll(&pfd, 1, 100);
      continue;
    }
    if (n < 0 && errno != EINTR) return true;  // ECONNRESET counts as closed
  }
  return false;
}

TEST(Serve, TwoTenantsByteIdenticalToBatchAcrossDeliveryOrders) {
  const auto ds1 = simulate(8, 2, 1);
  const auto ds2 = simulate(8, 2, 7);
  const std::string want1 = expected_json(ds1);
  const std::string want2 = expected_json(ds2);

  TestServer ts;

  // Tenant alpha: near-in-order interleave of conn and dns segments.
  {
    PushClient client{"127.0.0.1", ts.ingest_port(), Handshake{"alpha", true}};
    const auto conns = chunk_segments(ds1.conns, 257);
    const auto dns = chunk_segments(ds1.dns, 257);
    std::size_t sent = 0;
    for (std::size_t i = 0; i < std::max(conns.size(), dns.size()); ++i) {
      if (i < conns.size()) client.send_segment(conns[i]), ++sent;
      if (i < dns.size()) client.send_segment(dns[i]), ++sent;
    }
    client.flush();
    ++sent;
    std::uint64_t released = 0;
    for (std::size_t i = 0; i < sent; ++i) released = client.read_ack();
    EXPECT_EQ(released, ds1.conns.size() + ds1.dns.size());
  }

  // Tenant beta: maximal cross-kind reorder — every conn segment before
  // any dns segment. The LiveFeed watermark must still deliver the
  // canonical order.
  {
    PushClient client{"127.0.0.1", ts.ingest_port(), Handshake{"beta", true}};
    std::size_t sent = 0;
    for (const auto& seg : chunk_segments(ds2.conns, 509)) {
      client.send_segment(seg);
      ++sent;
    }
    for (const auto& seg : chunk_segments(ds2.dns, 509)) {
      client.send_segment(seg);
      ++sent;
    }
    client.flush();
    ++sent;
    std::uint64_t released = 0;
    for (std::size_t i = 0; i < sent; ++i) released = client.read_ack();
    EXPECT_EQ(released, ds2.conns.size() + ds2.dns.size());
  }

  const std::string resp1 = http_get(ts.http_port(), "/results/alpha");
  const std::string resp2 = http_get(ts.http_port(), "/results/beta");
  EXPECT_EQ(status_line(resp1), "HTTP/1.1 200 OK");
  EXPECT_EQ(body_of(resp1), want1 + "\n");
  EXPECT_EQ(body_of(resp2), want2 + "\n");

  ts.stop();
  EXPECT_EQ(ts.server->stats().connections_errored, 0u);
}

TEST(Serve, GracefulShutdownFlushesPartialResults) {
  const auto ds = simulate(6, 1, 3);
  const std::string want = expected_json(ds);

  const testutil::TempDir tmp{"dnsctx_serve_results"};
  const auto& results_dir = tmp.path();

  ServeConfig cfg;
  cfg.results_dir = results_dir.string();
  TestServer ts{cfg};
  {
    PushClient client{"127.0.0.1", ts.ingest_port(), Handshake{"town", true}};
    for (const auto& seg : chunk_segments(ds.conns, 997)) {
      client.send_segment(seg);
      (void)client.read_ack();
    }
    for (const auto& seg : chunk_segments(ds.dns, 997)) {
      client.send_segment(seg);
      (void)client.read_ack();
    }
    // No FLUSH frame: the reorder window still holds the record tail.
  }

  ts.stop();  // what `kill -TERM` does, minus the signal plumbing
  ts.server->finish();

  const auto tenant = ts.server->tenants().find("town");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->results(), want);

  std::ifstream in{results_dir / "town.json"};
  ASSERT_TRUE(in.good());
  std::ostringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), want + "\n");
}

TEST(Serve, MalformedFrameClosesOnlyThatConnection) {
  const auto ds = simulate(4, 1, 2);
  TestServer ts;

  PushClient good{"127.0.0.1", ts.ingest_port(), Handshake{"steady", true}};
  const auto segs = chunk_segments(ds.conns, 4096);
  ASSERT_FALSE(segs.empty());
  good.send_segment(segs[0]);
  (void)good.read_ack();

  // A second producer sends garbage where the handshake belongs.
  const int bad = connect_tcp("127.0.0.1", ts.ingest_port());
  write_all_fd(bad, "GARBAGE!");
  EXPECT_TRUE(wait_closed(bad));
  ::close(bad);

  // And a third handshakes fine, then corrupts a frame CRC.
  {
    std::string blob = segs[0];
    blob.back() = static_cast<char>(blob.back() ^ 0x01);
    PushClient corrupt{"127.0.0.1", ts.ingest_port(), Handshake{"corrupt", false}};
    corrupt.send_segment(blob);
    EXPECT_TRUE(wait_closed(corrupt.fd()));
  }

  // The survivor keeps streaming on the same connection. (A conn-only
  // stream acks 0 until FLUSH — the watermark needs both kinds.)
  good.send_segment(segs[0]);
  (void)good.read_ack();
  good.flush();
  EXPECT_EQ(good.read_ack(), 2 * ds.conns.size());

  ts.stop();
  EXPECT_EQ(ts.server->stats().connections_errored, 2u);
  EXPECT_NE(ts.server->tenants().find("steady"), nullptr);
}

TEST(Serve, V1SegmentFrameClosesOnlyThatConnection) {
  const auto ds = simulate(4, 1, 2);
  TestServer ts;

  PushClient steady{"127.0.0.1", ts.ingest_port(), Handshake{"steady", true}};
  const auto segs = chunk_segments(ds.conns, 4096);
  ASSERT_FALSE(segs.empty());
  steady.send_segment(segs[0]);
  (void)steady.read_ack();

  // A producer replaying a spool written before v2: its first frame is
  // refused and its connection closed.
  std::string old = segs[0];
  old[4] = 1;  // segment version field
  {
    PushClient legacy{"127.0.0.1", ts.ingest_port(), Handshake{"legacy", false}};
    legacy.send_segment(old);
    EXPECT_TRUE(wait_closed(legacy.fd()));
  }

  // The other tenant keeps flowing on its connection.
  steady.send_segment(segs[0]);
  (void)steady.read_ack();
  steady.flush();
  EXPECT_EQ(steady.read_ack(), 2 * ds.conns.size());

  ts.stop();
  EXPECT_EQ(ts.server->stats().connections_errored, 1u);
  // Its handshake opened a tenant; no segment reached it, so the close
  // removed it again.
  EXPECT_EQ(ts.server->tenants().find("legacy"), nullptr);
  EXPECT_EQ(ts.server->tenants().size(), 1u);
}

TEST(Serve, RefusedProducerLeavesNoTenantBehind) {
  ServeConfig cfg;
  cfg.tenant.max_tenants = 1;
  TestServer ts{cfg};
  const auto ds = simulate(4, 1, 2);
  const auto segs = chunk_segments(ds.conns, 8192);
  ASSERT_EQ(segs.size(), 1u);

  // The only slot goes to a producer whose first frame is refused.
  std::string old = segs[0];
  old[4] = 1;  // segment version field
  {
    PushClient legacy{"127.0.0.1", ts.ingest_port(), Handshake{"legacy", false}};
    legacy.send_segment(old);
    EXPECT_TRUE(wait_closed(legacy.fd()));
  }

  // The next tenant's handshake still gets it.
  PushClient next{"127.0.0.1", ts.ingest_port(), Handshake{"next", true}};
  next.send_segment(segs[0]);
  (void)next.read_ack();
  next.flush();
  EXPECT_EQ(next.read_ack(), ds.conns.size());

  ts.stop();
  EXPECT_EQ(ts.server->stats().connections_errored, 1u);
  EXPECT_EQ(ts.server->tenants().find("legacy"), nullptr);
  EXPECT_NE(ts.server->tenants().find("next"), nullptr);
}

TEST(Serve, OversizedFrameClosesConnection) {
  ServeConfig cfg;
  cfg.max_frame_bytes = 1024;
  TestServer ts{cfg};

  PushClient client{"127.0.0.1", ts.ingest_port(), Handshake{"big", false}};
  client.send_segment(std::string(4096, '\0'));
  EXPECT_TRUE(wait_closed(client.fd()));

  ts.stop();
  EXPECT_EQ(ts.server->stats().connections_errored, 1u);
}

TEST(Serve, MaxTenantsRejectsHandshake) {
  ServeConfig cfg;
  cfg.tenant.max_tenants = 1;
  TestServer ts{cfg};

  PushClient first{"127.0.0.1", ts.ingest_port(), Handshake{"only", true}};
  const auto ds = simulate(4, 1, 2);
  first.send_segment(chunk_segments(ds.conns, 8192)[0]);
  (void)first.read_ack();  // tenant "only" is live

  PushClient second{"127.0.0.1", ts.ingest_port(), Handshake{"overflow", false}};
  EXPECT_TRUE(wait_closed(second.fd()));

  // A RE-handshake into the existing tenant still succeeds.
  PushClient rejoin{"127.0.0.1", ts.ingest_port(), Handshake{"only", true}};
  rejoin.send_segment(chunk_segments(ds.conns, 8192)[0]);
  (void)rejoin.read_ack();
  rejoin.flush();
  EXPECT_EQ(rejoin.read_ack(), 2 * ds.conns.size());

  ts.stop();
  EXPECT_EQ(ts.server->tenants().size(), 1u);
}

TEST(Serve, IdleTenantIsEvicted) {
  ServeConfig cfg;
  cfg.tenant.idle_evict = std::chrono::milliseconds{100};
  TestServer ts{cfg};

  const auto ds = simulate(4, 1, 2);
  {
    PushClient client{"127.0.0.1", ts.ingest_port(), Handshake{"ghost", true}};
    client.send_segment(chunk_segments(ds.conns, 8192)[0]);
    (void)client.read_ack();
    client.flush();
    (void)client.read_ack();
    EXPECT_EQ(status_line(http_get(ts.http_port(), "/results/ghost")), "HTTP/1.1 200 OK");
  }  // producer disconnects; the tenant is now unattached and idle

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  bool evicted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (status_line(http_get(ts.http_port(), "/results/ghost")) ==
        "HTTP/1.1 404 Not Found") {
      evicted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{25});
  }
  EXPECT_TRUE(evicted);

  ts.stop();
  EXPECT_EQ(ts.server->tenants().evicted(), 1u);
}

TEST(Serve, DestroyedServerLeavesNothingOnItsLoop) {
  // The loop outlives the server: its idle-eviction timer may not call
  // into the destroyed server.
  EventLoop loop;
  ServeConfig cfg;
  cfg.tenant.idle_evict = std::chrono::milliseconds{1};
  auto server = std::make_unique<Server>(loop, cfg);
  server->start();
  server.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds{5});  // the timer is due
  loop.run_once(0);
  loop.run_once(0);
}

// A producer without acks writes as fast as TCP lets it. With the loop
// held, nothing is read: the kernel's buffers fill and a write on the
// producer's nonblocking socket fails with EAGAIN well before the
// stream is out. Once the loop runs, the rest goes through as the
// server applies what it reads, and nothing is lost.
TEST(Serve, ProducerWithoutAcksIsHeldBackByTcpAndLosesNothing) {
  const auto ds = simulate(8, 2, 5);
  const std::string want = expected_json(ds);

  TestServer ts{ServeConfig{}, /*held=*/true};
  std::string wire = encode_handshake(Handshake{"squeeze", false});
  for (const auto& seg : chunk_segments(ds.conns, 101)) append_data_frame(wire, seg);
  for (const auto& seg : chunk_segments(ds.dns, 101)) append_data_frame(wire, seg);
  append_flush_frame(wire);

  const int fd = connect_tcp("127.0.0.1", ts.ingest_port());
  // A small send buffer on the producer's side only: how much loopback
  // buffers hold otherwise depends on the kernel's autotuning.
  set_socket_buffers(fd, 4096);
  std::size_t sent = 0;
  for (;;) {
    const auto n = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      if (sent == wire.size()) break;
    } else if (n < 0 && errno != EINTR) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
      break;
    }
  }
  ASSERT_LT(sent, wire.size()) << "the kernel took the whole stream while the loop was held";

  ts.run();
  write_all_fd(fd, std::string_view{wire}.substr(sent));

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  std::string body;
  while (std::chrono::steady_clock::now() < deadline) {
    body = body_of(http_get(ts.http_port(), "/results/squeeze"));
    if (body == want + "\n") break;
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  EXPECT_EQ(body, want + "\n");
  ::close(fd);

  ts.stop();
  EXPECT_EQ(ts.server->stats().connections_errored, 0u);
  const auto tenant = ts.server->tenants().find("squeeze");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->records_released(), ds.conns.size() + ds.dns.size());
}

// `stream --push` without --acks writes its frames and FLUSH and hangs
// up at once, so the last frames and the EOF often reach the server in
// one read burst. Driven single-threaded so that all of them do: the
// loop first runs after the producer has closed.
TEST(Serve, ProducerHangingUpAfterItsFlushLosesNothing) {
  const auto ds = simulate(4, 1, 2);
  const std::string want = expected_json(ds);

  EventLoop loop;
  Server server{loop, ServeConfig{}};
  server.start();
  std::string wire = encode_handshake(Handshake{"hangup", false});
  append_data_frame(wire, stream::build_segment_v2(ds.conns));
  append_data_frame(wire, stream::build_segment_v2(ds.dns));
  append_flush_frame(wire);
  ASSERT_LT(wire.size(), 64u * 1024) << "must fit the socket buffers unread";
  const int fd = connect_tcp("127.0.0.1", server.ingest_port());
  write_all_fd(fd, wire);
  ::close(fd);

  for (int i = 0; i < 100 && server.stats().connections_closed == 0; ++i) loop.run_once(10);
  EXPECT_EQ(server.stats().connections_closed, 1u);
  const auto tenant = server.tenants().find("hangup");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->records_released(), ds.conns.size() + ds.dns.size());
  EXPECT_EQ(tenant->results(), want);
}

TEST(Serve, HttpEndpointsAndErrors) {
  obs::set_enabled(true);
  TestServer ts;

  EXPECT_EQ(body_of(http_get(ts.http_port(), "/healthz")), "ok\n");
  EXPECT_EQ(status_line(http_get(ts.http_port(), "/nope")), "HTTP/1.1 404 Not Found");
  EXPECT_EQ(status_line(http_get(ts.http_port(), "/results/..%2f..")),
            "HTTP/1.1 400 Bad Request");
  EXPECT_EQ(status_line(http_get(ts.http_port(), "/results/absent")),
            "HTTP/1.1 404 Not Found");

  const std::string metrics = http_get(ts.http_port(), "/metrics");
  EXPECT_EQ(status_line(metrics), "HTTP/1.1 200 OK");
  EXPECT_NE(body_of(metrics).find("dnsctx_serve_connections_active"), std::string::npos);

  // Non-GET method.
  {
    const int fd = connect_tcp("127.0.0.1", ts.http_port());
    write_all_fd(fd, "POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_EQ(status_line(read_to_eof(fd)), "HTTP/1.1 405 Method Not Allowed");
    ::close(fd);
  }
  // Malformed request line.
  {
    const int fd = connect_tcp("127.0.0.1", ts.http_port());
    write_all_fd(fd, "NONSENSE\r\n\r\n");
    EXPECT_EQ(status_line(read_to_eof(fd)), "HTTP/1.1 400 Bad Request");
    ::close(fd);
  }
  // Oversized request headers.
  {
    const int fd = connect_tcp("127.0.0.1", ts.http_port());
    write_all_fd(fd, "GET /healthz HTTP/1.1\r\nX-Pad: " + std::string(10000, 'a'));
    EXPECT_EQ(status_line(read_to_eof(fd)), "HTTP/1.1 400 Bad Request");
    ::close(fd);
  }
  obs::set_enabled(false);
}

// A response far larger than the socket buffer must survive a reader
// that drains slowly: the connection parks the remainder and finishes
// under EPOLLOUT. Driven single-threaded so the interleaving is exact.
TEST(Serve, HttpSlowReaderGetsFullResponse) {
  EventLoop loop;
  const int listen_fd = listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = bound_port(listen_fd);
  const int client = connect_tcp("127.0.0.1", port);
  const int served = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(served, 0);
  set_nonblocking(served);
  set_socket_buffers(served, 4096);

  const std::string big_body(512 * 1024, 'x');
  bool closed = false;
  HttpConnection conn{
      loop, served, "test",
      [&](const HttpRequest&) { return HttpResponse{200, "text/plain", big_body}; },
      [&](int) { closed = true; }};
  conn.start();

  write_all_fd(client, "GET /big HTTP/1.1\r\nHost: t\r\n\r\n");

  std::string got;
  char buf[2048];  // drain in sips, smaller than the server's buffer
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(5);
    const auto n = ::read(client, buf, sizeof buf);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
  }
  // Drain whatever is still in flight after close.
  got += read_to_eof(client, 1000);

  EXPECT_TRUE(closed);
  EXPECT_EQ(body_of(got).size(), big_body.size());
  EXPECT_EQ(body_of(got), big_body);

  ::close(client);
  ::close(listen_fd);
}

}  // namespace
}  // namespace dnsctx::serve
