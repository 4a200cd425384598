#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/sockets.hpp"
#include "util/strings.hpp"

namespace dnsctx::serve {

// ---- Listener --------------------------------------------------------------

class Server::Listener : public FdHandler {
 public:
  explicit Listener(std::function<void()> on_accept) : on_accept_{std::move(on_accept)} {}
  void on_readable() override { on_accept_(); }

 private:
  std::function<void()> on_accept_;
};

// ---- IngestConnection ------------------------------------------------------

class Server::IngestConnection : public FdHandler {
 public:
  IngestConnection(Server& server, int fd, std::string peer)
      : server_{server},
        loop_{server.loop_},
        fd_{fd},
        peer_{std::move(peer)},
        decoder_{strfmt("tcp %s", peer_.c_str()),
                 FrameDecoder::Limits{server.cfg_.max_frame_bytes}} {}

  // Level-triggered: one read per wakeup, so every ready connection and
  // HTTP request gets a turn between two chunks of a busy producer.
  void start() { loop_.add(fd_, this, /*read=*/true, /*write=*/false); }

  void on_readable() override {
    if (closing_) return;
    char buf[16 * 1024];
    const auto n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      // Apply every complete frame before reading more: while this runs
      // the socket buffers fill and TCP holds the producer back.
      decoder_.feed({buf, static_cast<std::size_t>(n)});
      apply_frames();
      return;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
    if (n < 0) {
      std::fprintf(stderr, "serve: read error from %s: %s\n", peer_.c_str(),
                   std::strerror(errno));
    }
    close_now();  // EOF (every complete frame is already applied) or an error
  }

  void on_writable() override {
    if (closing_) return;
    flush_out();
  }

 private:
  void apply_frames() {
    while (!closing_) {
      switch (decoder_.next()) {
        case FrameDecoder::Event::kNeedMore:
          return;

        case FrameDecoder::Event::kHandshake: {
          std::string err;
          tenant_ = server_.tenants_.open(decoder_.handshake().tenant, &err);
          if (!tenant_) {
            fail(err);
            return;
          }
          want_acks_ = decoder_.handshake().want_acks;
          tenant_->attach();
          tenant_->touch(Tenant::Clock::now());
          break;
        }

        case FrameDecoder::Event::kSegment: {
          auto& seg = decoder_.segment();
          ++server_.stats_.frames;
          server_.stats_.records_ingested += seg.size();
          if (obs::enabled()) {
            auto& reg = obs::registry();
            reg.counter("serve_frames_total").add(1);
            reg.counter("serve_records_ingested_total").add(seg.size());
          }
          tenant_->touch(Tenant::Clock::now());
          tenant_->enqueue(std::move(seg));
          tenant_->process_one();
          if (want_acks_) send_ack();
          break;
        }

        case FrameDecoder::Event::kFlush: {
          tenant_->flush();
          tenant_->touch(Tenant::Clock::now());
          ++server_.stats_.flushes;
          if (want_acks_) send_ack();
          break;
        }

        case FrameDecoder::Event::kError:
          ++server_.stats_.connections_errored;
          if (obs::enabled()) obs::registry().counter("serve_frame_errors_total").add(1);
          if (tenant_) server_.tenants_.drop_unfed(*tenant_);
          fail(decoder_.error());
          return;
      }
    }
  }

  void send_ack() {
    std::uint64_t v = tenant_->records_released();
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>(v & 0xff);
      v >>= 8;
    }
    out_.append(bytes, sizeof bytes);
    flush_out();
  }

  void flush_out() {
    while (out_pos_ < out_.size()) {
      const auto n = ::write(fd_, out_.data() + out_pos_, out_.size() - out_pos_);
      if (n > 0) {
        out_pos_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        update_interest();
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      std::fprintf(stderr, "serve: ack write to %s failed: %s\n", peer_.c_str(),
                   std::strerror(errno));
      close_now();
      return;
    }
    out_.clear();
    out_pos_ = 0;
    update_interest();
  }

  void update_interest() {
    loop_.modify(fd_, /*read=*/true, /*write=*/out_pos_ < out_.size());
  }

  void fail(const std::string& msg) {
    std::fprintf(stderr, "serve: closing connection: %s\n", msg.c_str());
    close_now();
  }

  void close_now() {
    if (closing_) return;
    closing_ = true;
    if (tenant_) tenant_->detach();
    loop_.remove(fd_);
    server_.close_ingest(fd_);  // may destroy *this via defer — return immediately
  }

  Server& server_;
  EventLoop& loop_;
  int fd_;
  std::string peer_;
  FrameDecoder decoder_;
  std::shared_ptr<Tenant> tenant_;
  bool want_acks_ = false;
  bool closing_ = false;
  std::string out_;
  std::size_t out_pos_ = 0;
};

// ---- Server ----------------------------------------------------------------

Server::Server(EventLoop& loop, ServeConfig cfg)
    : loop_{loop}, cfg_{std::move(cfg)}, tenants_{cfg_.tenant} {}

Server::~Server() {
  // The loop may outlive this server: leave no callback on it.
  if (idle_timer_ != 0) loop_.cancel_timer(idle_timer_);
  for (const auto& [fd, conn] : ingest_conns_) loop_.remove(fd);
  for (const auto& [fd, conn] : http_conns_) loop_.remove(fd);
  ingest_conns_.clear();
  http_conns_.clear();
  if (ingest_listen_fd_ >= 0) loop_.remove(ingest_listen_fd_);
  if (http_listen_fd_ >= 0) loop_.remove(http_listen_fd_);
}

void Server::start() {
  ingest_listen_fd_ = listen_tcp(cfg_.ingest_host, cfg_.ingest_port);
  ingest_port_ = bound_port(ingest_listen_fd_);
  http_listen_fd_ = listen_tcp(cfg_.http_host, cfg_.http_port);
  http_port_ = bound_port(http_listen_fd_);

  ingest_listener_ = std::make_unique<Listener>([this] { accept_ingest(); });
  http_listener_ = std::make_unique<Listener>([this] { accept_http(); });
  loop_.add(ingest_listen_fd_, ingest_listener_.get(), /*read=*/true, /*write=*/false);
  loop_.add(http_listen_fd_, http_listener_.get(), /*read=*/true, /*write=*/false);
  if (cfg_.tenant.idle_evict.count() > 0) arm_idle_evict();
}

void Server::arm_idle_evict() {
  // A tenant then goes at most one period after its idle_evict has passed.
  const auto period = std::min(cfg_.tenant.idle_evict, std::chrono::milliseconds{1000});
  idle_timer_ = loop_.add_timer(period, [this] {
    tenants_.evict_idle(Tenant::Clock::now());
    publish_metrics();
    arm_idle_evict();
  });
}

namespace {

[[nodiscard]] int accept_one(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;  // EAGAIN or transient accept failure: try again next wakeup
  }
}

void tune_socket(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

void Server::accept_ingest() {
  for (;;) {
    const int fd = accept_one(ingest_listen_fd_);
    if (fd < 0) return;
    tune_socket(fd);
    ++stats_.connections_accepted;
    if (obs::enabled()) {
      obs::registry().counter("serve_connections_total").add(1);
      obs::registry()
          .gauge("serve_connections_active")
          .set(static_cast<double>(ingest_conns_.size() + 1));
    }
    auto conn = std::make_unique<IngestConnection>(*this, fd, peer_name(fd));
    conn->start();
    ingest_conns_.emplace(fd, std::move(conn));
  }
}

void Server::accept_http() {
  for (;;) {
    const int fd = accept_one(http_listen_fd_);
    if (fd < 0) return;
    tune_socket(fd);
    auto conn = std::make_unique<HttpConnection>(
        loop_, fd, peer_name(fd), [this](const HttpRequest& req) { return route(req); },
        [this](int closed_fd) { close_http(closed_fd); });
    conn->start();
    http_conns_.emplace(fd, std::move(conn));
  }
}

void Server::close_ingest(int fd) {
  ++stats_.connections_closed;
  if (obs::enabled()) {
    obs::registry()
        .gauge("serve_connections_active")
        .set(static_cast<double>(ingest_conns_.empty() ? 0 : ingest_conns_.size() - 1));
  }
  loop_.defer([this, fd] { ingest_conns_.erase(fd); });
}

void Server::close_http(int fd) {
  loop_.defer([this, fd] { http_conns_.erase(fd); });
}

HttpResponse Server::route(const HttpRequest& req) {
  ++stats_.http_requests;
  if (obs::enabled()) obs::registry().counter("serve_http_requests_total").add(1);

  if (req.target == "/healthz") {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  }
  if (req.target == "/metrics") {
    publish_metrics();
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        obs::to_prometheus(obs::registry().snapshot())};
  }
  constexpr std::string_view kResults = "/results/";
  if (req.target.size() > kResults.size() &&
      std::string_view{req.target}.substr(0, kResults.size()) == kResults) {
    const std::string name = req.target.substr(kResults.size());
    if (!valid_tenant_name(name)) {
      return HttpResponse{400, "text/plain; charset=utf-8", "invalid tenant name\n"};
    }
    const auto tenant = tenants_.find(name);
    if (!tenant) {
      return HttpResponse{404, "text/plain; charset=utf-8", "unknown tenant\n"};
    }
    return HttpResponse{200, "application/json", tenant->results() + "\n"};
  }
  return HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
}

void Server::publish_metrics() {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  reg.gauge("serve_connections_active").set(static_cast<double>(ingest_conns_.size()));
  reg.gauge("serve_tenants_active").set(static_cast<double>(tenants_.size()));
  tenants_.for_each([&reg](const Tenant& t) {
    reg.gauge(strfmt("serve_tenant_queue_peak{tenant=\"%s\"}", t.name().c_str()))
        .set(static_cast<double>(t.queue_peak()));
    reg.gauge(strfmt("serve_tenant_records_released{tenant=\"%s\"}", t.name().c_str()))
        .set(static_cast<double>(t.records_released()));
  });
}

void Server::finish() {
  if (finished_) return;
  finished_ = true;
  tenants_.flush_all();
  if (!cfg_.results_dir.empty()) {
    tenants_.for_each([this](const Tenant& t) {
      const std::string path = strfmt("%s/%s.json", cfg_.results_dir.c_str(), t.name().c_str());
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (!f) {
        std::fprintf(stderr, "serve: cannot write %s: %s\n", path.c_str(),
                     std::strerror(errno));
        return;
      }
      const std::string doc = t.results() + "\n";
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
    });
  }
  publish_metrics();
}

}  // namespace dnsctx::serve
