#include "stream/feed.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dnsctx::stream {

namespace {

/// Canonical release order over keys. Arrival seqs are unique, so the
/// slot never decides.
constexpr auto before = [](const auto& a, const auto& b) {
  return a.us != b.us ? a.us < b.us : a.order < b.order;
};

/// Heap order over run heads for std::push_heap/pop_heap: earliest on top.
constexpr auto later_head = [](const auto& a, const auto& b) { return before(b.key, a.key); };

}  // namespace

template <typename Rec>
std::uint32_t LiveFeed::SlotStore<Rec>::put(const Rec& rec) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = used_++;
    // The first slot of chunk k has s = 2^(k + kFirstBits), the chunk's size.
    const std::uint64_t s = std::uint64_t{slot} + (1u << kFirstBits);
    if (std::has_single_bit(s)) chunks_.push_back(std::make_unique<Rec[]>(s));
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  // Copy-assignment into a reused slot keeps its buffers (a DnsRecord's
  // answers), so steady-state buffering does not allocate.
  at(slot) = rec;
  return slot;
}

void LiveFeed::push(std::int64_t us, Kind kind, std::uint32_t slot) {
  const std::uint64_t order = (static_cast<std::uint64_t>(kind) << kKindShift) | next_seq_++;
  pending_.push_back(Key{us, order, slot});
  peak_buffered_ = std::max(peak_buffered_, ++buffered_);
}

void LiveFeed::on_conn(const capture::ConnRecord& rec) {
  push(rec.start.count_us(), kConn, conns_.put(rec));
}

void LiveFeed::on_dns(const capture::DnsRecord& rec) {
  push(rec.ts.count_us(), kDns, dns_.put(rec));
}

void LiveFeed::on_encflow(const capture::EncFlowRecord& rec) {
  push(rec.start.count_us(), kEnc, encs_.put(rec));
}

void LiveFeed::seal_pending() {
  if (pending_.empty()) return;
  // A batch is often one time-sorted segment of one kind already.
  if (!std::is_sorted(pending_.begin(), pending_.end(), before)) {
    std::sort(pending_.begin(), pending_.end(), before);
  }
  std::uint32_t r;
  if (free_runs_.empty()) {
    r = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  } else {
    r = free_runs_.back();
    free_runs_.pop_back();
  }
  Run& run = runs_[r];
  run.keys.swap(pending_);  // pending_ takes over the recycled run's empty buffer
  run.head = 0;
  heads_.push_back(Head{run.keys.front(), r});
  std::push_heap(heads_.begin(), heads_.end(), later_head);
}

void LiveFeed::deliver(const Key& key) {
  // Each slot is released only after its delivery returns.
  switch (key.order >> kKindShift) {
    case kDns:
      downstream_->on_dns(dns_[key.slot]);
      dns_.release(key.slot);
      break;
    case kConn:
      downstream_->on_conn(conns_[key.slot]);
      conns_.release(key.slot);
      break;
    default:
      downstream_->on_encflow(encs_[key.slot]);
      encs_.release(key.slot);
      break;
  }
}

void LiveFeed::drain(SimTime watermark) {
  obs::StageSpan span{"ingest_batch"};
  seal_pending();
  const std::int64_t limit = watermark.count_us();
  std::uint64_t released = 0;
  while (!heads_.empty() && heads_.front().key.us <= limit) {
    deliver(heads_.front().key);  // a throw leaves the record at its run's head
    --buffered_;
    ++released;
    std::pop_heap(heads_.begin(), heads_.end(), later_head);  // the delivered head goes last
    Head& head = heads_.back();
    Run& run = runs_[head.run];
    if (++run.head < run.keys.size()) {
      head.key = run.keys[run.head];
      std::push_heap(heads_.begin(), heads_.end(), later_head);
    } else {
      run.keys.clear();
      free_runs_.push_back(head.run);
      heads_.pop_back();
    }
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.counter("stream_drained_records_total").add(released);
    reg.gauge("stream_reorder_buffered").set(static_cast<double>(buffered_));
    reg.gauge("stream_reorder_buffered_peak").set_max(static_cast<double>(peak_buffered_));
    // close() drains with the sentinel max watermark — not a real time.
    if (watermark != SimTime::max()) {
      reg.gauge("stream_watermark_sim_seconds").set(watermark.to_sec());
    }
  }
}

void LiveFeed::close() {
  drain(SimTime::max());
  // Nothing is buffered now: free the storage rather than hold it at its
  // peak for the rest of the feed's life (a serve tenant's, say).
  dns_ = {};
  conns_ = {};
  encs_ = {};
  pending_ = {};
  runs_ = {};
  free_runs_ = {};
  heads_ = {};
}

void SegmentFeed::push(SegmentView& seg) {
  const SegmentHeader& h = seg.header();
  seg.deliver(feed_);
  if (h.record_count > 0 && h.kind != RecordKind::kEncFlow) {
    auto& front = h.kind == RecordKind::kConn ? conn_front_ : dns_front_;
    front = std::max(front.value_or(h.last_ts), h.last_ts);
  }
  if (!conn_front_ || !dns_front_) return;
  // Drain even when no front moved: enc records below it go out now.
  const SimTime front = std::min(*conn_front_, *dns_front_);
  if (front > SimTime::origin()) feed_.drain(SimTime::from_us(front.count_us() - 1));
}

}  // namespace dnsctx::stream
