// dnsctx — watermark-based reordering between live capture and analysis.
//
// capture::Monitor emits records in FINALIZATION order: a connection when
// it closes, a DNS transaction when its response (or timeout) arrives.
// The online study engine, like the spool writer, requires timestamp
// order (conn keyed by `start`, dns by `ts`). LiveFeed bridges the two:
// it buffers finalized records and, whenever the producer advances the
// watermark — a promise that no future record will carry a key time at
// or before it — releases everything up to the watermark in the
// canonical order:
//
//   (key time, DNS before conn before enc at ties, arrival order)
//
// That is exactly the order replay_spool / replay_dataset deliver, so a
// live run and a batch run over the harvested logs feed the engine the
// same sequence.
//
// Storage. Each record is copied once, on arrival, into a slot of its
// kind's SlotStore: chunks that double in size as the store grows (so
// n slots take O(log n) allocations) and are never moved or
// reallocated, so a record stays where it landed until it is released.
// A released slot goes on a free list and the next record of that kind
// is copy-assigned into it, which reuses a DnsRecord's answer buffer —
// in steady state buffering costs no allocation.
//
// Ordering. Only 24-byte keys move: (key µs, kind << 56 | arrival seq,
// slot). Keys arriving between two drains collect in one pending buffer;
// drain() sorts it into a run, then releases by merging the runs' heads
// (a min-heap, O(log runs) per record) up to the watermark. Sorting
// each batch once, rather than all buffered keys on every drain, keeps a
// drain cheap when the watermark stays pinned and the buffer grows.
//
// Memory follows the PEAK number of buffered records, not the stream
// length: slots, keys and runs are recycled once their records are
// released (every live run holds at least one buffered key). What is
// recycled keeps its size — slot chunks, free lists, run buffers, and
// the query and answer buffers of every DnsRecord slot — until a
// close() empties the feed and frees it all.
//
// SegmentFeed drives a LiveFeed from whole segments instead of a
// producer's watermark: `stream --follow` hands it the segments a spool
// writer finishes, `serve` the ones producers push (see its comment for
// the watermark rule).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "capture/records.hpp"
#include "stream/segment_view.hpp"

namespace dnsctx::stream {

class LiveFeed : public capture::RecordSink {
 public:
  explicit LiveFeed(capture::RecordSink& downstream) : downstream_{&downstream} {}

  void on_conn(const capture::ConnRecord& rec) override;
  void on_dns(const capture::DnsRecord& rec) override;
  void on_encflow(const capture::EncFlowRecord& rec) override;

  /// Release every buffered record with key time <= `watermark` to the
  /// downstream sink, in canonical order. Watermarks must not regress.
  /// A record whose delivery throws stays buffered.
  void drain(SimTime watermark);

  /// Release everything still buffered (end of run), then free the
  /// buffer's storage. Records may still arrive afterwards.
  void close();

  [[nodiscard]] std::size_t buffered() const { return buffered_; }
  [[nodiscard]] std::size_t peak_buffered() const { return peak_buffered_; }

 private:
  /// Fixed-address storage for one record kind: slots live in chunks
  /// that are allocated once and never move. Chunk k holds
  /// 2^(k + kFirstBits) slots; with s = slot + 2^kFirstBits, a slot is
  /// in chunk bit_width(s) − 1 − kFirstBits at offset s − 2^(bit_width(s) − 1).
  template <typename Rec>
  class SlotStore {
   public:
    /// Copy `rec` into a free slot and return the slot's index.
    std::uint32_t put(const Rec& rec);
    [[nodiscard]] const Rec& operator[](std::uint32_t slot) const { return at(slot); }
    void release(std::uint32_t slot) { free_.push_back(slot); }

   private:
    static constexpr int kFirstBits = 8;
    [[nodiscard]] Rec& at(std::uint32_t slot) const {
      const std::uint64_t s = std::uint64_t{slot} + (1u << kFirstBits);
      const int k = static_cast<int>(std::bit_width(s)) - 1;
      return chunks_[static_cast<std::size_t>(k - kFirstBits)][s - (std::uint64_t{1} << k)];
    }

    std::vector<std::unique_ptr<Rec[]>> chunks_;
    std::uint32_t used_ = 0;  ///< slots ever handed out
    std::vector<std::uint32_t> free_;
  };

  enum Kind : std::uint64_t { kDns = 0, kConn = 1, kEnc = 2 };  ///< ascending tie order
  static constexpr int kKindShift = 56;

  struct Key {
    std::int64_t us;
    std::uint64_t order;  ///< kind << kKindShift | arrival seq
    std::uint32_t slot;
  };
  /// Keys sorted at one drain; `head` is the next one to release.
  struct Run {
    std::vector<Key> keys;
    std::size_t head = 0;
  };
  /// A run's next key, cached for the merge heap.
  struct Head {
    Key key;
    std::uint32_t run;
  };

  void push(std::int64_t us, Kind kind, std::uint32_t slot);
  void seal_pending();
  void deliver(const Key& key);

  capture::RecordSink* downstream_;
  SlotStore<capture::DnsRecord> dns_;
  SlotStore<capture::ConnRecord> conns_;
  SlotStore<capture::EncFlowRecord> encs_;

  std::vector<Key> pending_;  ///< arrived since the last drain, unsorted
  std::vector<Run> runs_;
  std::vector<std::uint32_t> free_runs_;  ///< exhausted runs, buffers kept
  std::vector<Head> heads_;               ///< min-heap over the live runs

  std::uint64_t next_seq_ = 0;
  std::size_t buffered_ = 0;
  std::size_t peak_buffered_ = 0;
};

/// A LiveFeed fed one whole segment at a time, in any interleaving of
/// kinds. Its watermark comes from the segments themselves: each kind's
/// segments are time-ordered, so a later segment of a kind never starts
/// before that kind's newest `last_ts` — but it may start AT it. The
/// rule is therefore: track the newest `last_ts` of each kind (its
/// front); once both conn and dns have one, release every record
/// strictly below min(conn front, dns front). The slower front itself
/// stays buffered until close(). Enc segments (an optional side stream)
/// and empty segments ride along but never move a front.
class SegmentFeed {
 public:
  explicit SegmentFeed(capture::RecordSink& downstream) : feed_{downstream} {}

  /// Deliver `seg`'s records from its cursor on, advance its kind's
  /// front, and release what the fronts allow.
  void push(SegmentView& seg);

  /// Release everything still buffered (a FLUSH, or end of stream).
  void close() { feed_.close(); }

  [[nodiscard]] std::size_t buffered() const { return feed_.buffered(); }
  [[nodiscard]] std::size_t peak_buffered() const { return feed_.peak_buffered(); }

 private:
  LiveFeed feed_;
  std::optional<SimTime> conn_front_;
  std::optional<SimTime> dns_front_;
};

}  // namespace dnsctx::stream
