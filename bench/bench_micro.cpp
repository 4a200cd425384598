// Microbenchmarks (google-benchmark) for the performance-critical
// building blocks: DNS wire codec, cache operations, event dispatch,
// NAT mapping, monitor packet handling, DN-Hunter pairing throughput,
// the live stream path (LiveFeed reordering, OnlineStudy ingest) and
// the spool codec (lz, CRC-32, v2 segment encode/decode).
#include <benchmark/benchmark.h>

#include <map>
#include <tuple>

#include "analysis/classify.hpp"
#include "analysis/pairing.hpp"
#include "resolver/zonedb.hpp"
#include "capture/monitor.hpp"
#include "dns/cache.hpp"
#include "dns/codec.hpp"
#include "netsim/arena.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/nat.hpp"
#include "netsim/network.hpp"
#include "netsim/sim.hpp"
#include "resolver/recursive.hpp"
#include "resolver/stub.hpp"
#include "scenario/scenario.hpp"
#include "stream/feed.hpp"
#include "stream/online_study.hpp"
#include "stream/segment_v2.hpp"
#include "stream/segment_view.hpp"
#include "stream/spool.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace dnsctx;

dns::DnsMessage sample_response() {
  auto q = dns::DnsMessage::query(0x1234, dns::DomainName::must("www.example.com"));
  return dns::DnsMessage::response(
      q, {dns::ResourceRecord::a(dns::DomainName::must("www.example.com"),
                                 Ipv4Addr{93, 184, 216, 34}, 300),
          dns::ResourceRecord::a(dns::DomainName::must("www.example.com"),
                                 Ipv4Addr{93, 184, 216, 35}, 300)});
}

void BM_DnsEncode(benchmark::State& state) {
  const auto msg = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(msg));
  }
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = dns::encode(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_DnsDecode);

void BM_CacheInsertLookup(benchmark::State& state) {
  dns::DnsCache cache{dns::CacheConfig{.capacity = 10'000}};
  const auto answers = sample_response().answers;
  std::vector<dns::DomainName> names;
  for (int i = 0; i < 1'000; ++i) {
    names.push_back(dns::DomainName::must("host" + std::to_string(i) + ".example.com"));
  }
  SimTime now = SimTime::origin();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& name = names[i % names.size()];
    cache.insert(name, dns::RrType::kA, answers, dns::Rcode::kNoError, now);
    benchmark::DoNotOptimize(cache.lookup(name, dns::RrType::kA, now));
    now += SimDuration::us(10);
    ++i;
  }
}
BENCHMARK(BM_CacheInsertLookup);

void BM_StubResolveCached(benchmark::State& state) {
  // A device-cache hit through StubResolver::resolve: the lookup, the
  // addresses read out of the entry and the 50 µs callback event.
  netsim::Simulator sim;
  resolver::StubConfig cfg;
  cfg.resolver_addrs = {Ipv4Addr{100, 66, 250, 1}};
  resolver::StubResolver stub{sim, Ipv4Addr{192, 168, 1, 10}, cfg, 1,
                              [](netsim::Packet) {}};
  const auto name = dns::DomainName::must("www.example.com");
  auto answers = sample_response().answers;
  for (auto& rr : answers) rr.ttl = 86'400;  // stays fresh for the whole run
  stub.insert_pushed(name, answers, sim.now());
  std::size_t addrs = 0;
  for (auto _ : state) {
    stub.resolve(name, [&](const resolver::ResolveResult& r) { addrs += r.addrs.size(); });
    sim.run_to_completion();
  }
  benchmark::DoNotOptimize(addrs);
  if (addrs != 2 * static_cast<std::size_t>(state.iterations())) {
    state.SkipWithError("a resolve missed the device cache");
  }
}
BENCHMARK(BM_StubResolveCached);

void BM_RecursiveAnswerHit(benchmark::State& state) {
  // A platform-cache hit through the recursive answer path: lookup, the
  // rebuilt answer records, the response and its delivery events. The
  // first query resolves and caches the name; every timed one hits.
  struct Sink final : netsim::Host {
    std::size_t responses = 0;
    void receive(const netsim::Packet&) override { ++responses; }
  } client;
  constexpr Ipv4Addr kClient{100, 66, 1, 1};
  constexpr Ipv4Addr kService{9, 9, 9, 9};
  netsim::Simulator sim;
  netsim::LatencyModel lat;
  lat.set_site(kClient, {SimDuration::from_ms(0.5), 0.0});
  lat.set_site(kService, {SimDuration::from_ms(0.5), 0.0});
  netsim::Network net{sim, lat, 3};
  net.attach(kClient, &client);
  resolver::ZoneDbConfig zone_cfg;
  zone_cfg.web_sites = 30;
  const resolver::ZoneDb zones{zone_cfg};
  resolver::PlatformConfig cfg;
  cfg.name = "Bench";
  cfg.addrs = {kService};
  cfg.site = {SimDuration::from_ms(0.5), 0.0};
  cfg.ambient_warmth = 0.0;
  cfg.cache.min_ttl_sec = 86'400;  // stays fresh for the whole run
  resolver::RecursiveResolverPlatform platform{sim, net, zones, cfg, 7};
  const auto& name = zones.record(zones.ids_of(resolver::ServiceClass::kWebOrigin)[0]).name;
  netsim::Packet query;
  query.src_ip = kClient;
  query.dst_ip = kService;
  query.src_port = 40'000;
  query.dst_port = 53;
  query.proto = Proto::kUdp;
  query.dns = dns::DnsPayload::from_message(dns::DnsMessage::query(1, name));
  platform.receive(query);
  sim.run_to_completion();
  for (auto _ : state) {
    platform.receive(query);
    sim.run_to_completion();
  }
  if (platform.stats().shard_hits != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a query missed the platform cache");
  }
  benchmark::DoNotOptimize(client.responses);
}
BENCHMARK(BM_RecursiveAnswerHit);

void BM_SimulatorDispatch(benchmark::State& state) {
  for (auto _ : state) {
    netsim::Simulator sim;
    for (int i = 0; i < 1'000; ++i) {
      sim.at(SimTime::from_us(i), [] {});
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(sim.dispatched());
  }
}
BENCHMARK(BM_SimulatorDispatch)->Unit(benchmark::kMicrosecond);

void BM_EventQueuePushPop(benchmark::State& state) {
  // Pure queue cost: the BM_SimulatorDispatch pattern (batch insert,
  // then drain in order) without Simulator bookkeeping.
  for (auto _ : state) {
    netsim::EventQueue q;
    for (int i = 0; i < 1'000; ++i) {
      q.push(SimTime::from_us(i), static_cast<std::uint64_t>(i), netsim::InlineAction{[] {}});
    }
    SimTime when;
    netsim::InlineAction action;
    while (q.pop_min(&when, &action)) benchmark::DoNotOptimize(when);
  }
}
BENCHMARK(BM_EventQueuePushPop)->Unit(benchmark::kMicrosecond);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Hold-and-churn at `range(0)` pending events: every pop schedules a
  // successor a pseudo-random delay ahead, the classic timer-wheel
  // workload (DNS timeouts, app think times). Spans wheel0, wheel1 and
  // occasional overflow insertions.
  const auto pending = static_cast<std::size_t>(state.range(0));
  netsim::EventQueue q;
  Rng rng{17};
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(SimTime::from_us(static_cast<std::int64_t>(rng.bounded(2'000'000))), seq++,
           netsim::InlineAction{[] {}});
  }
  SimTime when;
  netsim::InlineAction action;
  for (auto _ : state) {
    q.pop_min(&when, &action);
    const auto delay = 1 + static_cast<std::int64_t>(rng.bounded(2'000'000));
    q.push(when + SimDuration::us(delay), seq++, netsim::InlineAction{[] {}});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(1'000)->Arg(100'000);

void BM_PacketArena(benchmark::State& state) {
  // Adopt/duplicate/release churn as the network fabric performs it:
  // one handle for the tap closure, one for the delivery closure.
  netsim::PacketArena arena;
  netsim::Packet proto;
  proto.src_ip = Ipv4Addr{100, 66, 1, 1};
  proto.dst_ip = Ipv4Addr{8, 8, 8, 8};
  proto.src_port = 40'000;
  proto.dst_port = 53;
  proto.proto = Proto::kUdp;
  for (auto _ : state) {
    netsim::PacketHandle h = arena.adopt(netsim::Packet{proto});
    netsim::PacketHandle tap = h;
    benchmark::DoNotOptimize(&*tap);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketArena);

void BM_MonitorTcpConn(benchmark::State& state) {
  capture::Monitor monitor;
  const Ipv4Addr house{100, 66, 1, 1};
  const Ipv4Addr server{34, 1, 1, 1};
  std::int64_t t = 0;
  std::uint16_t port = 10'000;
  for (auto _ : state) {
    netsim::Packet syn;
    syn.src_ip = house;
    syn.dst_ip = server;
    syn.src_port = port;
    syn.dst_port = 443;
    syn.proto = Proto::kTcp;
    syn.tcp = netsim::TcpFlags{.syn = true};
    monitor.observe(SimTime::from_us(t), syn);
    netsim::Packet fin = syn;
    fin.tcp = netsim::TcpFlags{.ack = true, .fin = true};
    std::swap(fin.src_ip, fin.dst_ip);
    std::swap(fin.src_port, fin.dst_port);
    monitor.observe(SimTime::from_us(t + 10), fin);
    netsim::Packet fin2 = syn;
    fin2.tcp = netsim::TcpFlags{.ack = true, .fin = true};
    monitor.observe(SimTime::from_us(t + 20), fin2);
    t += 100;
    port = port == 60'000 ? std::uint16_t{10'000} : static_cast<std::uint16_t>(port + 1);
  }
  benchmark::DoNotOptimize(monitor.packets_seen());
}
BENCHMARK(BM_MonitorTcpConn);

void BM_NatMapOutbound(benchmark::State& state) {
  // One gateway, five devices, each query on a new UDP source port from
  // its device's sequential allocator (StubResolver::alloc_port). A
  // query every 675 simulated ms against the 15 min idle limit keeps
  // 1 300-2 700 mappings live (2 000 on average). The simulator runs
  // every 16 queries, so each query also pays its LAN hop and WAN send.
  struct Sink : netsim::Host {
    void receive(const netsim::Packet&) override {}
  } sink;
  netsim::Simulator sim;
  netsim::Network net{sim, netsim::LatencyModel{}, 1};
  net.set_default_host(&sink);
  netsim::HouseGateway gateway{sim, net, Ipv4Addr{100, 66, 2, 1}, 7};
  constexpr int kDevices = 5;
  for (std::uint8_t d = 0; d < kDevices; ++d) {
    gateway.attach_device(Ipv4Addr{192, 168, 1, static_cast<std::uint8_t>(10 + d)}, &sink);
  }
  std::uint16_t next_port[kDevices] = {20'000, 20'000, 20'000, 20'000, 20'000};
  const SimDuration step = SimDuration::ms(675);
  std::uint64_t i = 0;
  auto query = [&] {
    const auto d = static_cast<std::size_t>(i % kDevices);
    netsim::Packet p;
    p.src_ip = Ipv4Addr{192, 168, 1, static_cast<std::uint8_t>(10 + d)};
    p.src_port = next_port[d];
    next_port[d] = next_port[d] >= 64'000 ? std::uint16_t{20'000}
                                          : static_cast<std::uint16_t>(next_port[d] + 1);
    p.dst_ip = Ipv4Addr{8, 8, 8, 8};
    p.dst_port = 53;
    p.proto = Proto::kUdp;
    gateway.from_device(std::move(p));
    if (++i % 16 == 0) sim.run_until(sim.now() + step * 16);
  };
  for (int warm = 0; warm < 4'000; ++warm) query();  // reach the steady state
  for (auto _ : state) query();
  state.counters["live_mappings"] = static_cast<double>(gateway.active_mappings());
  state.SetItemsProcessed(state.iterations());
  sim.run_to_completion();  // in-flight hops hold handles into net's arena
}
BENCHMARK(BM_NatMapOutbound);

void BM_MonitorConcurrentFlows(benchmark::State& state) {
  // 64 connections from one house to one server on port 443 are open at
  // once: every iteration opens the next (SYN) and closes the oldest
  // (FIN both ways), so each packet probes a 64-flow table.
  // BM_MonitorTcpConn holds one flow at a time and cannot see the
  // table's hash.
  constexpr std::uint64_t kOpen = 64;
  capture::Monitor monitor;
  const Ipv4Addr house{100, 66, 1, 1};
  const Ipv4Addr server{34, 1, 1, 1};
  auto port_of = [](std::uint64_t seq) {
    return static_cast<std::uint16_t>(10'000 + seq % 50'000);
  };
  auto packet = [&](std::uint64_t seq, netsim::TcpFlags flags, bool from_house) {
    netsim::Packet p;
    p.src_ip = from_house ? house : server;
    p.dst_ip = from_house ? server : house;
    p.src_port = from_house ? port_of(seq) : std::uint16_t{443};
    p.dst_port = from_house ? std::uint16_t{443} : port_of(seq);
    p.proto = Proto::kTcp;
    p.tcp = flags;
    return p;
  };
  std::int64_t t = 0;
  std::uint64_t seq = 0;
  for (; seq < kOpen; ++seq) {
    monitor.observe(SimTime::from_us(t), packet(seq, {.syn = true}, true));
  }
  for (auto _ : state) {
    t += 1'000;
    monitor.observe(SimTime::from_us(t), packet(seq, {.syn = true}, true));
    monitor.observe(SimTime::from_us(t), packet(seq - kOpen, {.ack = true, .fin = true}, false));
    monitor.observe(SimTime::from_us(t), packet(seq - kOpen, {.ack = true, .fin = true}, true));
    ++seq;
    if (seq % 4'096 == 0) benchmark::DoNotOptimize(monitor.take_finalized());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorConcurrentFlows);

void BM_PairingThroughput(benchmark::State& state) {
  // Build a dataset of `n` lookups + conns once; measure full pairing.
  const auto n = static_cast<std::size_t>(state.range(0));
  capture::Dataset ds;
  Rng rng{7};
  const Ipv4Addr house{100, 66, 1, 1};
  for (std::size_t i = 0; i < n; ++i) {
    const Ipv4Addr server{34, 1, static_cast<std::uint8_t>((i / 200) % 200),
                          static_cast<std::uint8_t>(1 + i % 200)};
    capture::DnsRecord d;
    d.ts = SimTime::from_us(static_cast<std::int64_t>(i) * 50'000);
    d.duration = SimDuration::ms(2);
    d.client_ip = house;
    d.resolver_ip = Ipv4Addr{100, 66, 250, 1};
    d.query = strfmt("h%zu.com", i % 500);
    d.answered = true;
    d.answers = {{server, 300}};
    ds.dns.push_back(d);
    capture::ConnRecord c;
    c.start = d.response_time() + SimDuration::ms(static_cast<std::int64_t>(rng.bounded(200)));
    c.duration = SimDuration::sec(1);
    c.orig_ip = house;
    c.resp_ip = server;
    c.orig_port = 10'000;
    c.resp_port = 443;
    ds.conns.push_back(c);
  }
  std::sort(ds.conns.begin(), ds.conns.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::pair_connections(ds));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PairingThroughput)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_ZoneDbBuild(benchmark::State& state) {
  resolver::ZoneDbConfig cfg;
  cfg.seed = 3;
  for (auto _ : state) {
    resolver::ZoneDb db{cfg};
    benchmark::DoNotOptimize(db.size());
  }
}
BENCHMARK(BM_ZoneDbBuild)->Unit(benchmark::kMillisecond);

void BM_ClassifyThroughput(benchmark::State& state) {
  // Reuse the pairing-bench dataset shape.
  const std::size_t n = 10'000;
  capture::Dataset ds;
  Rng rng{13};
  const Ipv4Addr house{100, 66, 1, 1};
  for (std::size_t i = 0; i < n; ++i) {
    const Ipv4Addr server{34, 1, static_cast<std::uint8_t>((i / 200) % 200),
                          static_cast<std::uint8_t>(1 + i % 200)};
    capture::DnsRecord d;
    d.ts = SimTime::from_us(static_cast<std::int64_t>(i) * 50'000);
    d.duration = SimDuration::from_ms(rng.uniform(1.0, 60.0));
    d.client_ip = house;
    d.resolver_ip = Ipv4Addr{100, 66, 250, 1};
    d.query = strfmt("h%zu.com", i % 500);
    d.answered = true;
    d.answers = {{server, 300}};
    ds.dns.push_back(d);
    capture::ConnRecord c;
    c.start = d.response_time() + SimDuration::ms(static_cast<std::int64_t>(rng.bounded(200)));
    c.duration = SimDuration::sec(1);
    c.orig_ip = house;
    c.resp_ip = server;
    c.orig_port = 10'000;
    c.resp_port = 443;
    ds.conns.push_back(c);
  }
  std::sort(ds.conns.begin(), ds.conns.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  const auto pairing = analysis::pair_connections(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_connections(ds, pairing));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ClassifyThroughput)->Unit(benchmark::kMillisecond);

/// Counts what it is given and nothing else.
struct CountingSink final : capture::RecordSink {
  std::uint64_t n = 0;
  void on_conn(const capture::ConnRecord&) override { ++n; }
  void on_dns(const capture::DnsRecord&) override { ++n; }
  void on_encflow(const capture::EncFlowRecord&) override { ++n; }
};

void BM_LiveFeedReorder(benchmark::State& state) {
  // Records arrive in finalization order: one every 100 µs, each keyed
  // up to 5 s before it finalized (a connection is keyed by its start
  // but emitted at its close). The producer drains after every
  // `per_drain` records with the watermark 5 s behind, or (pinned) never
  // advances it, so everything waits for close().
  const auto per_drain = static_cast<std::size_t>(state.range(0));
  const bool pinned = state.range(1) != 0;
  constexpr std::size_t kRecords = 1 << 16;
  constexpr std::int64_t kStepUs = 100;
  constexpr std::int64_t kMaxLagUs = 5'000'000;
  Rng rng{11};
  std::vector<capture::DnsRecord> dns;
  std::vector<capture::ConnRecord> conns;
  std::vector<bool> is_dns;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const std::int64_t done_us = kMaxLagUs + static_cast<std::int64_t>(i) * kStepUs;
    if (rng.bernoulli(0.5)) {
      capture::DnsRecord d;
      d.ts = SimTime::from_us(done_us - static_cast<std::int64_t>(rng.bounded(50'000)));
      d.answered = true;
      d.answers.assign(1 + rng.bounded(3), capture::DnsAnswer{Ipv4Addr{34, 1, 1, 1}, 300});
      dns.push_back(std::move(d));
      is_dns.push_back(true);
    } else {
      capture::ConnRecord c;
      c.start = SimTime::from_us(done_us - static_cast<std::int64_t>(rng.bounded(kMaxLagUs)));
      conns.push_back(c);
      is_dns.push_back(false);
    }
  }
  for (auto _ : state) {
    CountingSink sink;
    stream::LiveFeed feed{sink};
    std::size_t d = 0;
    std::size_t c = 0;
    for (std::size_t i = 0; i < kRecords; ++i) {
      if (is_dns[i]) {
        feed.on_dns(dns[d++]);
      } else {
        feed.on_conn(conns[c++]);
      }
      if ((i + 1) % per_drain == 0) {
        const auto watermark = pinned ? 0 : static_cast<std::int64_t>(i) * kStepUs;
        feed.drain(SimTime::from_us(watermark));
      }
    }
    feed.close();
    benchmark::DoNotOptimize(sink.n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kRecords) * state.iterations());
}
BENCHMARK(BM_LiveFeedReorder)
    ->ArgNames({"per_drain", "pinned"})
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({4096, 0})
    ->Args({512, 1})
    ->Unit(benchmark::kMillisecond);

/// A town's records (seed 1), simulated once per (houses, minutes, shards).
const capture::Dataset& ingest_town(std::size_t houses, int minutes, std::size_t shards) {
  static std::map<std::tuple<std::size_t, int, std::size_t>, capture::Dataset> towns;
  const auto [it, fresh] = towns.try_emplace({houses, minutes, shards});
  if (fresh) {
    scenario::ScenarioConfig cfg;
    cfg.houses = houses;
    cfg.duration = SimDuration::min(minutes);
    cfg.seed = 1;
    cfg.shards = shards;
    cfg.threads = static_cast<unsigned>(shards);
    scenario::Town town{cfg};
    town.run();
    it->second = town.dataset();
  }
  return it->second;
}

void BM_OnlineStudyIngest(benchmark::State& state) {
  // A simulated town replayed into a fresh engine: a small neighborhood
  // over an hour, and perfbench city's shape (many houses, few minutes).
  const capture::Dataset& ds =
      ingest_town(static_cast<std::size_t>(state.range(0)), static_cast<int>(state.range(1)),
                  static_cast<std::size_t>(state.range(2)));
  for (auto _ : state) {
    stream::OnlineStudy engine;
    (void)stream::replay_dataset(ds, engine);
    benchmark::DoNotOptimize(engine.active_records());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ds.conns.size() + ds.dns.size()) *
                          state.iterations());
}
BENCHMARK(BM_OnlineStudyIngest)
    ->ArgNames({"houses", "minutes", "shards"})
    ->Args({20, 60, 1})
    ->Args({2000, 5, 4})
    ->Unit(benchmark::kMillisecond);

// ---- spool codec -------------------------------------------------------------

/// Records of a 40-house town (seed 1), simulated once per transport and
/// shared by the codec benches. DoT gives the conn and enc records
/// (perfbench `spool`'s mix), Do53 the dns records.
capture::Dataset codec_town(netsim::Transport transport, int hours) {
  scenario::ScenarioConfig cfg;
  cfg.houses = 40;
  cfg.duration = SimDuration::hours(hours);
  cfg.seed = 1;
  cfg.transport = transport;
  scenario::Town town{cfg};
  town.run();
  return town.dataset();
}
const capture::Dataset& dot_dataset() {
  static const capture::Dataset ds = codec_town(netsim::Transport::kDoT, 8);
  return ds;
}
const capture::Dataset& do53_dataset() {
  static const capture::Dataset ds = codec_town(netsim::Transport::kDo53, 4);
  return ds;
}

/// The first `n` records (all of them when there are fewer).
template <typename Rec>
std::vector<Rec> first_records(const std::vector<Rec>& recs, std::size_t n) {
  return {recs.begin(),
          recs.begin() + static_cast<std::ptrdiff_t>(std::min(n, recs.size()))};
}

/// The uncompressed v2 body of the first `n` conn records: a codec-none
/// segment minus its header and its 9-byte codec frame.
std::string conn_body(std::size_t n) {
  return stream::build_segment_v2(first_records(dot_dataset().conns, n),
                                  stream::SegmentCodec::kNone)
      .substr(stream::kSegmentHeaderBytes + 9);
}

void BM_LzCompress(benchmark::State& state) {
  const std::string raw = conn_body(static_cast<std::size_t>(state.range(0)));
  const auto& lz = stream::codec(stream::SegmentCodec::kLz);
  std::string out;
  for (auto _ : state) {
    lz.compress(raw, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(raw.size()) * state.iterations());
  state.counters["ratio"] = static_cast<double>(out.size()) / static_cast<double>(raw.size());
}
BENCHMARK(BM_LzCompress)->ArgName("records")->Arg(512)->Arg(65'536);

void BM_LzDecompress(benchmark::State& state) {
  const std::string raw = conn_body(static_cast<std::size_t>(state.range(0)));
  const auto& lz = stream::codec(stream::SegmentCodec::kLz);
  std::string comp;
  lz.compress(raw, comp);
  std::string out;
  for (auto _ : state) {
    if (!lz.decompress(comp, raw.size(), out)) state.SkipWithError("decompress failed");
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(raw.size()) * state.iterations());
}
BENCHMARK(BM_LzDecompress)->ArgName("records")->Arg(512)->Arg(65'536);

void BM_Crc32(benchmark::State& state) {
  std::string bytes(std::size_t{1} << 20, '\0');
  Rng rng{5};
  for (auto& c : bytes) c = static_cast<char>(rng.bounded(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) * state.iterations());
}
BENCHMARK(BM_Crc32);

/// One spool-sized segment (up to 65 536 records) of each kind.
constexpr std::size_t kSegmentBenchRecords = 65'536;
template <typename Rec>
using RecordsOf = const std::vector<Rec>& (*)();
const std::vector<capture::ConnRecord>& conn_recs() { return dot_dataset().conns; }
const std::vector<capture::DnsRecord>& dns_recs() { return do53_dataset().dns; }
const std::vector<capture::EncFlowRecord>& enc_recs() { return dot_dataset().encflows; }

template <typename Rec>
void BM_SegmentV2Encode(benchmark::State& state, RecordsOf<Rec> source) {
  const auto recs = first_records(source(), kSegmentBenchRecords);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string blob = stream::build_segment_v2(recs);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(recs.size()) * state.iterations());
  state.counters["bytes_per_record"] =
      static_cast<double>(bytes) / static_cast<double>(recs.size());
}
BENCHMARK_CAPTURE(BM_SegmentV2Encode, conn, &conn_recs)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SegmentV2Encode, dns, &dns_recs)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SegmentV2Encode, enc, &enc_recs)->Unit(benchmark::kMillisecond);

template <typename Rec>
void BM_SegmentV2Decode(benchmark::State& state, RecordsOf<Rec> source) {
  const auto recs = first_records(source(), kSegmentBenchRecords);
  const std::string blob = stream::build_segment_v2(recs);
  for (auto _ : state) {
    auto view = stream::SegmentView::parse(blob, "bench");
    Rec rec;
    while (view.next(rec)) benchmark::DoNotOptimize(&rec);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(recs.size()) * state.iterations());
}
BENCHMARK_CAPTURE(BM_SegmentV2Decode, conn, &conn_recs)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SegmentV2Decode, dns, &dns_recs)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SegmentV2Decode, enc, &enc_recs)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf{10'000, 0.95};
  Rng rng{3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
