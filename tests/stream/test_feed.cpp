// dnsctx — LiveFeed reorder tests.
//
// LiveFeed must release exactly what a stable sort of the arrivals by
// (key time, kind) would, cut at each watermark: the canonical order
// replay_spool delivers. A randomized differential test checks the
// released sequence, buffered() and peak_buffered() against that
// reference after every drain. The rest pin down slot reuse, a throwing
// downstream, a long pinned-watermark run, and a feed that close()
// emptied: it frees its storage and keeps working. SegmentFeed's tests
// pin down the watermark rule whole segments drive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "heap_in_use.hpp"
#include "stream/feed.hpp"
#include "stream/segment_v2.hpp"
#include "stream/wire.hpp"
#include "util/rng.hpp"

namespace dnsctx::stream {
namespace {

enum Kind : int { kDns = 0, kConn = 1, kEnc = 2 };  // ascending tie order

/// One record as the tests identify it: its kind, key time and a
/// unique id (a DNS record's answer count also derives from the id).
struct Arrival {
  int kind;
  std::int64_t key_us;
  std::uint32_t id;
  bool operator==(const Arrival&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Arrival& a) {
  return os << "{kind " << a.kind << ", key " << a.key_us << ", id " << a.id << "}";
}

std::size_t answer_count(std::uint32_t id) { return id % 6; }

capture::DnsRecord make_dns(std::int64_t key_us, std::uint32_t id) {
  capture::DnsRecord d;
  d.ts = SimTime::from_us(key_us);
  d.client_port = static_cast<std::uint16_t>(id);
  d.duration = SimDuration::us(id);
  d.answered = true;
  for (std::size_t i = 0; i < answer_count(id); ++i) {
    d.answers.push_back({Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(i)}, id});
  }
  return d;
}

capture::ConnRecord make_conn(std::int64_t key_us, std::uint32_t id) {
  capture::ConnRecord c;
  c.start = SimTime::from_us(key_us);
  c.orig_bytes = id;
  return c;
}

capture::EncFlowRecord make_enc(std::int64_t key_us, std::uint32_t id) {
  capture::EncFlowRecord e;
  e.start = SimTime::from_us(key_us);
  e.up_msgs = id;
  return e;
}

void send(LiveFeed& feed, const Arrival& a) {
  if (a.kind == kDns) {
    feed.on_dns(make_dns(a.key_us, a.id));
  } else if (a.kind == kConn) {
    feed.on_conn(make_conn(a.key_us, a.id));
  } else {
    feed.on_encflow(make_enc(a.key_us, a.id));
  }
}

/// Records what reaches the downstream side, checking each DNS record's
/// answers against what its sender put in.
struct RecordingSink final : capture::RecordSink {
  std::vector<Arrival> got;
  void on_dns(const capture::DnsRecord& d) override {
    const auto id = static_cast<std::uint32_t>(d.duration.count_us());
    EXPECT_EQ(d.answers, make_dns(d.ts.count_us(), id).answers) << "dns id " << id;
    got.push_back({kDns, d.ts.count_us(), id});
  }
  void on_conn(const capture::ConnRecord& c) override {
    got.push_back({kConn, c.start.count_us(), static_cast<std::uint32_t>(c.orig_bytes)});
  }
  void on_encflow(const capture::EncFlowRecord& e) override {
    got.push_back({kEnc, e.start.count_us(), e.up_msgs});
  }
};

/// The reference: buffer arrivals; a drain stable-sorts the buffer by
/// (key, kind) and releases the prefix at or below the watermark.
struct ReferenceFeed {
  std::vector<Arrival> buffer;
  std::vector<Arrival> released;
  std::size_t peak = 0;

  void push(const Arrival& a) {
    buffer.push_back(a);
    peak = std::max(peak, buffer.size());
  }
  std::size_t drain(std::int64_t watermark_us) {
    std::stable_sort(buffer.begin(), buffer.end(), [](const Arrival& a, const Arrival& b) {
      return a.key_us != b.key_us ? a.key_us < b.key_us : a.kind < b.kind;
    });
    const auto cut = std::find_if(buffer.begin(), buffer.end(), [&](const Arrival& a) {
      return a.key_us > watermark_us;
    });
    released.insert(released.end(), buffer.begin(), cut);
    const auto n = static_cast<std::size_t>(cut - buffer.begin());
    buffer.erase(buffer.begin(), cut);
    return n;
  }
};

TEST(LiveFeed, MatchesStableSortReferenceUnderRandomWatermarks) {
  std::size_t empty_drains = 0;
  std::size_t cross_kind_ties = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng{seed};
    RecordingSink sink;
    LiveFeed feed{sink};
    ReferenceFeed ref;
    // Keys land in a narrow band above the watermark, so equal keys
    // within one kind and across kinds are common.
    const auto span = static_cast<std::int64_t>(1 + rng.bounded(8));
    std::int64_t watermark = -1;
    std::uint32_t next_id = 0;
    const std::size_t steps = 200 + rng.bounded(400);
    for (std::size_t step = 0; step < steps; ++step) {
      if (rng.bounded(5) != 0) {
        const Arrival a{static_cast<int>(rng.bounded(3)),
                        watermark + 1 + static_cast<std::int64_t>(rng.bounded(
                                            static_cast<std::uint64_t>(span))),
                        next_id++};
        send(feed, a);
        ref.push(a);
        ASSERT_EQ(feed.buffered(), ref.buffer.size());
        continue;
      }
      // Non-decreasing watermarks; a repeat or a small step often
      // releases nothing.
      watermark += static_cast<std::int64_t>(rng.bounded(3));
      feed.drain(SimTime::from_us(watermark));
      if (ref.drain(watermark) == 0) ++empty_drains;
      ASSERT_EQ(sink.got, ref.released);
      ASSERT_EQ(feed.buffered(), ref.buffer.size());
      ASSERT_EQ(feed.peak_buffered(), ref.peak);
    }
    feed.close();
    ref.drain(SimTime::max().count_us());
    ASSERT_EQ(sink.got, ref.released);
    EXPECT_EQ(feed.buffered(), 0u);
    EXPECT_EQ(feed.peak_buffered(), ref.peak);
    EXPECT_EQ(sink.got.size(), next_id);
    for (std::size_t i = 1; i < ref.released.size(); ++i) {
      const Arrival& a = ref.released[i - 1];
      const Arrival& b = ref.released[i];
      if (a.key_us == b.key_us && a.kind != b.kind) ++cross_kind_ties;
    }
  }
  // The generator really exercised the cases the test is about.
  EXPECT_GT(empty_drains, 0u);
  EXPECT_GT(cross_kind_ties, 0u);
}

TEST(LiveFeed, ReusedSlotDeliversOnlyTheNewAnswers) {
  struct AnswerSink final : capture::RecordSink {
    std::vector<std::vector<capture::DnsAnswer>> answers;
    void on_dns(const capture::DnsRecord& d) override { answers.push_back(d.answers); }
    void on_conn(const capture::ConnRecord&) override {}
  } sink;
  LiveFeed feed{sink};
  const auto five = make_dns(10, 5);
  const auto one = make_dns(20, 1);
  ASSERT_EQ(five.answers.size(), 5u);
  ASSERT_EQ(one.answers.size(), 1u);
  // The first record is released before the second arrives, so the
  // second lands in the slot the first one freed.
  feed.on_dns(five);
  feed.drain(SimTime::from_us(10));
  feed.on_dns(one);
  feed.close();
  ASSERT_EQ(sink.answers.size(), 2u);
  EXPECT_EQ(sink.answers[0], five.answers);
  EXPECT_EQ(sink.answers[1], one.answers);
}

TEST(LiveFeed, ThrowingDownstreamLeavesTheRecordBuffered) {
  struct Flaky final : capture::RecordSink {
    RecordingSink inner;
    std::uint32_t fail_id = 2;
    void on_dns(const capture::DnsRecord& d) override { inner.on_dns(d); }
    void on_conn(const capture::ConnRecord& c) override {
      if (c.orig_bytes == fail_id) {
        fail_id = ~0u;  // fail once
        throw std::runtime_error{"downstream failed"};
      }
      inner.on_conn(c);
    }
  } sink;
  LiveFeed feed{sink};
  for (std::uint32_t id = 0; id < 5; ++id) send(feed, {kConn, 100 + id, id});
  EXPECT_THROW(feed.drain(SimTime::from_us(200)), std::runtime_error);
  // Records 0 and 1 went through; 2 (the one that threw) and later stay.
  EXPECT_EQ(sink.inner.got.size(), 2u);
  EXPECT_EQ(feed.buffered(), 3u);

  send(feed, {kDns, 300, 9});
  feed.close();
  const std::vector<Arrival> want{{kConn, 100, 0}, {kConn, 101, 1}, {kConn, 102, 2},
                                  {kConn, 103, 3}, {kConn, 104, 4}, {kDns, 300, 9}};
  EXPECT_EQ(sink.inner.got, want);
  EXPECT_EQ(feed.buffered(), 0u);
}

TEST(LiveFeed, PinnedWatermarkThenCloseDeliversEverythingOnce) {
  RecordingSink sink;
  LiveFeed feed{sink};
  ReferenceFeed ref;
  Rng rng{42};
  constexpr std::uint32_t kDrains = 10'000;
  for (std::uint32_t id = 0; id < kDrains; ++id) {
    const Arrival a{static_cast<int>(rng.bounded(3)),
                    1 + static_cast<std::int64_t>(rng.bounded(1'000)), id};
    send(feed, a);
    ref.push(a);
    feed.drain(SimTime::origin());  // pinned: nothing is ever releasable
  }
  EXPECT_TRUE(sink.got.empty());
  EXPECT_EQ(feed.buffered(), kDrains);
  EXPECT_EQ(feed.peak_buffered(), kDrains);
  feed.close();
  ref.drain(SimTime::max().count_us());
  EXPECT_EQ(sink.got, ref.released);
  EXPECT_EQ(feed.buffered(), 0u);
}

TEST(LiveFeed, KeepsWorkingAfterClose) {
  // close() frees the buffer's storage; the next records refill it from
  // scratch, reusing slot indices the first round handed out.
  RecordingSink sink;
  LiveFeed feed{sink};
  ReferenceFeed ref;
  Rng rng{7};
  std::uint32_t id = 0;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 2'000; ++i, ++id) {
      const Arrival a{static_cast<int>(rng.bounded(3)),
                      1 + round * 10'000 + static_cast<std::int64_t>(rng.bounded(1'000)), id};
      send(feed, a);
      ref.push(a);
      if (round == 0 && i % 100 == 99) feed.drain(SimTime::origin());  // runs of 100
    }
    feed.close();
    ref.drain(SimTime::max().count_us());
    EXPECT_EQ(sink.got, ref.released);
    EXPECT_EQ(feed.buffered(), 0u);
  }
  EXPECT_EQ(feed.peak_buffered(), 2'000u);
}

#ifdef DNSCTX_HAVE_HEAP_IN_USE
TEST(LiveFeed, CloseFreesTheBuffer) {
  struct CountingSink final : capture::RecordSink {
    std::size_t records = 0;
    void on_dns(const capture::DnsRecord&) override { ++records; }
    void on_conn(const capture::ConnRecord&) override { ++records; }
    void on_encflow(const capture::EncFlowRecord&) override { ++records; }
  } sink;
  LiveFeed feed{sink};
  feed.drain(SimTime::origin());  // first-use allocations outside the feed
  const std::size_t before = testutil::heap_in_use();
  for (std::uint32_t id = 0; id < 5'000; ++id) {
    send(feed, {static_cast<int>(id % 3), 1 + id % 977, id});
    if (id % 500 == 499) feed.drain(SimTime::origin());
  }
  const std::size_t buffering = testutil::heap_in_use();
  if (buffering == before) GTEST_SKIP() << "allocations are not visible to mallinfo2";
  feed.close();
  EXPECT_EQ(sink.records, 5'000u);
  // Slots, answer buffers, runs and the merge heap are all gone; what
  // is left is glibc's per-thread cache of freed small chunks.
  const std::size_t held = buffering - before;
  EXPECT_LT(testutil::heap_in_use(), before + held / 16) << "held " << held << " B while buffering";
}
#endif

/// A segment of `arrivals`, all of one kind and in key order. With
/// none, an empty segment whose header claims `empty_last_us` as its
/// last_ts (the writer would zero it; a producer need not).
SegmentView segment_of(RecordKind kind, const std::vector<Arrival>& arrivals,
                       std::int64_t empty_last_us = 0) {
  SegmentBuilderV2 builder{kind};
  for (const Arrival& a : arrivals) {
    if (kind == RecordKind::kDns) {
      builder.add(make_dns(a.key_us, a.id));
    } else if (kind == RecordKind::kConn) {
      builder.add(make_conn(a.key_us, a.id));
    } else {
      builder.add(make_enc(a.key_us, a.id));
    }
  }
  std::string blob = builder.build();
  if (arrivals.empty()) {
    std::string last;
    wire::put_i64(last, empty_last_us);
    blob.replace(20, 8, last);  // header: magic, version, kind, pad, count, first_ts, last_ts
  }
  return SegmentView::adopt(std::move(blob), "test");
}

void push(SegmentFeed& feed, RecordKind kind, const std::vector<Arrival>& arrivals,
          std::int64_t empty_last_us = 0) {
  SegmentView seg = segment_of(kind, arrivals, empty_last_us);
  feed.push(seg);
}

TEST(SegmentFeed, ReleasesBelowTheSlowerFrontOnceBothKindsHaveOne) {
  RecordingSink sink;
  SegmentFeed feed{sink};

  // Only conn has a front: nothing goes, however far enc and an empty
  // dns segment claim to reach.
  push(feed, RecordKind::kConn, {{kConn, 10, 0}, {kConn, 20, 1}, {kConn, 30, 2}});
  push(feed, RecordKind::kEncFlow, {{kEnc, 5, 3}, {kEnc, 40, 4}});
  push(feed, RecordKind::kDns, {}, 1'000);
  EXPECT_TRUE(sink.got.empty());
  EXPECT_EQ(feed.buffered(), 5u);

  // dns joins with front 25 < conn's 30: everything strictly below 25.
  push(feed, RecordKind::kDns, {{kDns, 15, 5}, {kDns, 25, 6}});
  const std::vector<Arrival> below{
      {kEnc, 5, 3}, {kConn, 10, 0}, {kDns, 15, 5}, {kConn, 20, 1}};
  EXPECT_EQ(sink.got, below);

  // Neither an empty conn segment nor a late enc record moves a front,
  // so the record AT the slower front (dns 25) stays buffered.
  push(feed, RecordKind::kConn, {}, 1'000);
  push(feed, RecordKind::kEncFlow, {{kEnc, 500, 7}});
  EXPECT_EQ(sink.got, below);
  EXPECT_EQ(feed.buffered(), 4u);

  feed.close();
  std::vector<Arrival> all = below;
  all.insert(all.end(), {{kDns, 25, 6}, {kConn, 30, 2}, {kEnc, 40, 4}, {kEnc, 500, 7}});
  EXPECT_EQ(sink.got, all);
  EXPECT_EQ(feed.buffered(), 0u);
}

TEST(SegmentFeed, LateEncRecordsGoOutWithTheNextSegment) {
  // Once both fronts exist every push drains, even one that moves no
  // front: an enc record below the watermark leaves at once.
  RecordingSink sink;
  SegmentFeed feed{sink};
  push(feed, RecordKind::kConn, {{kConn, 100, 0}});
  push(feed, RecordKind::kDns, {{kDns, 100, 1}});
  EXPECT_TRUE(sink.got.empty());
  push(feed, RecordKind::kEncFlow, {{kEnc, 50, 2}, {kEnc, 100, 3}});
  EXPECT_EQ(sink.got, (std::vector<Arrival>{{kEnc, 50, 2}}));
  EXPECT_EQ(feed.buffered(), 3u);
}

}  // namespace
}  // namespace dnsctx::stream
