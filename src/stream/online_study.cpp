#include "stream/online_study.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {

namespace {

constexpr std::int64_t kModeWindowUs = 40'000;  // §5.3's 40 ms histogram span
/// A dense mode window's counters: one per µs of [min, min + 40 ms].
constexpr std::size_t kWindowSlots = kModeWindowUs + 1;
/// The most samples a ModeWindow lists: as many bytes as its counters.
constexpr std::size_t kMaxListed = kWindowSlots * sizeof(std::uint32_t) / sizeof(std::int64_t);

[[nodiscard]] std::int64_t ceil_ms(std::int64_t us) { return (us + 999) / 1000; }

/// Add `count` samples to one mode-window counter; a counter that would
/// wrap throws instead.
void add_checked(std::uint32_t& counter, std::uint64_t count) {
  if (count > std::numeric_limits<std::uint32_t>::max() - counter) {
    throw std::overflow_error{"online study: §5.3 mode-window counter overflow"};
  }
  counter += static_cast<std::uint32_t>(count);
}

/// Watermark at which the shadow rule evicts `c`, given its successor
/// `next` in the list.
[[nodiscard]] SimTime pair_due(const auto& c, const auto& next) {
  return std::max(c.expires, next.response);
}

/// Heap order for std::push_heap/pop_heap: earliest due time on top.
constexpr auto later_due = [](const auto& a, const auto& b) { return b.due < a.due; };

/// `hi − lo` for `hi >= lo`; exact for any two durations, where the
/// signed difference could overflow.
[[nodiscard]] std::uint64_t distance_us(std::int64_t hi, std::int64_t lo) {
  return static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
}

/// Re-anchor a mode window `drop` µs lower: each count moves up `drop`
/// slots, and those pushed past the top leave the window.
void lower_window(std::vector<std::uint32_t>& counts, std::uint64_t drop) {
  if (drop >= counts.size()) {
    std::fill(counts.begin(), counts.end(), 0);
    return;
  }
  const auto d = static_cast<std::ptrdiff_t>(drop);
  std::copy_backward(counts.begin(), counts.end() - d, counts.end());
  std::fill_n(counts.begin(), d, 0);
}

}  // namespace

void OnlineStudy::ModeWindow::add(std::int64_t us) {
  if (us < min_us_) lower_to(us);
  // The minimum only falls, so a sample above the window never re-enters it.
  const std::uint64_t at = distance_us(us, min_us_);
  if (at >= kWindowSlots) return;
  if (counts_.empty()) {
    if (listed_.size() < kMaxListed) {
      // Double as usual, but never past the counters' size.
      if (listed_.size() == listed_.capacity()) {
        listed_.reserve(std::min(2 * listed_.size() + 1, kMaxListed));
      }
      listed_.push_back(us);
      return;
    }
    densify();
  }
  add_checked(counts_[at], 1);
}

void OnlineStudy::ModeWindow::lower_to(std::int64_t us) {
  if (!counts_.empty()) lower_window(counts_, distance_us(min_us_, us));
  min_us_ = us;
}

void OnlineStudy::ModeWindow::densify() {
  counts_.assign(kWindowSlots, 0);
  for (const std::int64_t us : listed_) {
    if (const std::uint64_t at = distance_us(us, min_us_); at < kWindowSlots) ++counts_[at];
  }
  std::vector<std::int64_t>{}.swap(listed_);
}

void OnlineStudy::ModeWindow::merge(ModeWindow&& other) {
  // Keep the counters if either side has them; replay a list sample by sample.
  if (counts_.empty() && !other.counts_.empty()) std::swap(*this, other);
  if (other.counts_.empty()) {
    for (const std::int64_t us : other.listed_) add(us);
    return;
  }
  if (other.min_us_ < min_us_) lower_to(other.min_us_);
  const std::uint64_t offset = distance_us(other.min_us_, min_us_);
  for (std::uint64_t i = 0; offset < kWindowSlots && i < kWindowSlots - offset; ++i) {
    add_checked(counts_[offset + i], other.counts_[i]);
  }
}

double OnlineStudy::ModeWindow::mode_ms() const {
  // Same histogram and operands as derive_resolver_thresholds. Its
  // double compare admits no duration above min + 40 ms, so the
  // window's samples are all it reads.
  const double lo = static_cast<double>(min_us_) / 1000.0;
  Histogram h{lo, lo + 40.0, 80};
  const auto add_us = [&](std::int64_t us, std::uint64_t count) {
    const double v = static_cast<double>(us) / 1000.0;
    if (v < lo + 40.0) h.add(v, count);
  };
  if (counts_.empty()) {
    for (const std::int64_t us : listed_) {
      if (distance_us(us, min_us_) < kWindowSlots) add_us(us, 1);
    }
  } else {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] != 0) add_us(min_us_ + static_cast<std::int64_t>(i), counts_[i]);
    }
  }
  return h.bin_low(h.mode_bin()) + h.bin_width() / 2.0;
}

OnlineStudy::OnlineStudy(OnlineStudyConfig cfg) : cfg_{std::move(cfg)} {
  conncheck_name_ = util::InternedName{cfg_.conncheck_name};
  chains_ = analysis::ChainTracker{cfg_.chain_gap};
  local_id_ = cfg_.directory.id_of_label("Local");
  tallies_.resize(cfg_.directory.platform_count());
  platform_conns_.resize(cfg_.directory.platform_count());
}

void OnlineStudy::note_time(SimTime& last, SimTime t, const char* kind) {
  if (t < last) {
    throw std::runtime_error{
        strfmt("online study: %s record at %lld us after %lld us; stream must be time-sorted",
               kind, static_cast<long long>(t.count_us()),
               static_cast<long long>(last.count_us()))};
  }
  last = t;
  watermark_ = std::max(watermark_, t);
}

void OnlineStudy::on_dns(const capture::DnsRecord& rec) {
  if (any_dns_) {
    note_time(last_dns_, rec.ts, "dns");
  } else {
    any_dns_ = true;
    last_dns_ = rec.ts;
    watermark_ = std::max(watermark_, rec.ts);
  }
  ++dns_total_;
  chains_.evict_before(last_dns_);
  chains_.on_dns(rec);

  // Table 1 DNS pass: every record counts, answered or not.
  const analysis::PlatformId pid = cfg_.directory.id_of(rec.resolver_ip);
  PlatTally& tally = tallies_[pid];
  ++tally.lookups;
  tally.houses.insert(rec.client_ip);
  all_houses_.insert(rec.client_ip);
  ++total_lookups_;

  // isp-only-house tracking.
  {
    const bool is_local = pid == local_id_;
    const auto [it, inserted] = only_local_.try_emplace(rec.client_ip, is_local);
    if (!inserted) it->second = it->second && is_local;
  }

  // §5.3 threshold material: answered-lookup durations per resolver.
  if (rec.answered) {
    ResolverAcc& ra = resolvers_[rec.resolver_ip];
    ++ra.answered;
    ra.window.add(rec.duration.count_us());
  }

  // DN-Hunter candidate index (answered, A-bearing lookups only).
  if (rec.answered && !rec.answers.empty()) {
    ++eligible_lookups_;
    const std::uint64_t seq = next_seq_++;
    House& house = houses_[rec.client_ip];
    RecordUse& ru = house.records[seq];
    ru.refs = static_cast<std::uint32_t>(rec.answers.size());
    ru.duration = rec.duration;
    ru.resolver_ip = rec.resolver_ip;
    ru.conncheck = rec.query == conncheck_name_;
    active_records_ += 1;
    const SimTime response = rec.response_time();
    for (const auto& a : rec.answers) {
      CandidateList& list = house.index[a.addr];
      std::vector<Candidate>& cands = list.cands;
      // Keep (response, seq) order: every stored candidate has a smaller
      // seq, so the slot is after all entries with an equal response.
      const auto at = cands.insert(
          std::upper_bound(cands.begin(), cands.end(), response,
                           [](SimTime t, const Candidate& c) { return t < c.response; }),
          Candidate{response, response + SimDuration::sec(a.ttl), seq});
      ++active_candidates_;
      // The new pairs can only bring the list's due time forward: the
      // pair they replace, (prev, next), fell due no earlier than
      // (prev, new), because new.response <= next.response.
      SimTime due = list.due;
      if (at != cands.begin()) due = std::min(due, pair_due(*std::prev(at), *at));
      if (std::next(at) != cands.end()) due = std::min(due, pair_due(*at, *std::next(at)));
      if (due < list.due) schedule(list, due, rec.client_ip, a.addr);
    }
  }

  evict_due();
}

void OnlineStudy::on_conn(const capture::ConnRecord& rec) {
  if (any_conn_) {
    note_time(last_conn_, rec.start, "conn");
  } else {
    any_conn_ = true;
    last_conn_ = rec.start;
    watermark_ = std::max(watermark_, rec.start);
  }
  ++conns_total_;
  chains_.on_conn(rec);
  // Nothing evicted at this watermark could pair with a connection
  // starting at it.
  evict_due();

  // ---- DN-Hunter pairing (mirrors pair_connections' inner loop) ----------
  const auto house_it = houses_.find(rec.orig_ip);
  const std::vector<Candidate>* cands = nullptr;
  if (house_it != houses_.end()) {
    const auto idx_it = house_it->second.index.find(rec.resp_ip);
    if (idx_it != house_it->second.index.end()) cands = &idx_it->second.cands;
  }
  if (cands == nullptr) {
    ++pairing_.unpaired;
    ++n_;
    return;
  }
  const auto upper = std::upper_bound(
      cands->begin(), cands->end(), rec.start,
      [](SimTime t, const Candidate& c) { return t < c.response; });
  if (upper == cands->begin()) {
    ++pairing_.unpaired;  // the answer arrived only after this connection
    ++n_;
    return;
  }

  std::uint32_t live = 0;
  const Candidate* chosen = nullptr;
  for (auto iter = upper; iter != cands->begin();) {
    --iter;
    if (iter->expires > rec.start) {
      ++live;
      if (chosen == nullptr) chosen = &*iter;  // most recent live
    }
  }
  const bool expired_pairing = live == 0;
  if (expired_pairing) chosen = &*std::prev(upper);  // most recent, expired

  House& house = house_it->second;
  RecordUse& ru = house.records.at(chosen->seq);
  const bool first_use = ru.uses == 0;
  if (first_use) ++used_lookups_;
  ++ru.uses;
  const SimDuration gap = rec.start - chosen->response;

  ++pairing_.paired;
  if (expired_pairing) ++pairing_.paired_expired;
  if (live <= 1) {
    ++pairing_.unique_candidate;
  } else {
    ++pairing_.multiple_candidates;
  }

  // ---- taxonomy + downstream accumulators --------------------------------
  if (gap > cfg_.classify.blocked_threshold) {
    if (first_use) {
      ++p_;
      if (expired_pairing) ++p_expired_;
    } else {
      ++lc_;
      if (expired_pairing) ++lc_expired_;
    }
  } else {
    // Blocked: bank the lookup duration for the deferred SC/R split.
    ResolverAcc& ra = resolvers_[ru.resolver_ip];
    ++ra.blocked_total;
    ++ra.blocked_ceil[ceil_ms(ru.duration.count_us())];
    if (ru.duration.to_ms() <= cfg_.classify.default_threshold_ms) {
      ++ra.blocked_le_default;
    }

    // §6 quadrants (independent of the SC/R split).
    const double d_ms = ru.duration.to_ms();
    const double a_ms = rec.duration.to_ms();
    const double t_ms = d_ms + a_ms;
    const double contrib = t_ms > 0.0 ? 100.0 * d_ms / t_ms : 100.0;
    const bool abs_ok = d_ms <= cfg_.abs_significance_ms;
    const bool rel_ok = contrib <= cfg_.rel_significance_pct;
    if (abs_ok && rel_ok) {
      ++q_ins_;
    } else if (abs_ok) {
      ++q_rel_;
    } else if (rel_ok) {
      ++q_abs_;
    } else {
      ++q_sig_;
    }
  }

  // Table 1 connection pass + §7 per-platform counters.
  const analysis::PlatformId pid = cfg_.directory.id_of(ru.resolver_ip);
  PlatTally& tally = tallies_[pid];
  ++tally.conns;
  const std::uint64_t bytes = rec.orig_bytes + rec.resp_bytes;
  tally.bytes += bytes;
  ++paired_conns_;
  paired_bytes_ += bytes;

  PlatConns& pc = platform_conns_[pid];
  ++pc.total;
  if (ru.conncheck) ++pc.conncheck;
}

void OnlineStudy::drop_candidate(House& house, const Candidate& cand) {
  const auto it = house.records.find(cand.seq);
  if (it != house.records.end() && --it->second.refs == 0) {
    house.records.erase(cand.seq);
    --active_records_;
  }
  --active_candidates_;
}

void OnlineStudy::schedule(CandidateList& list, SimTime due, Ipv4Addr house, Ipv4Addr addr) {
  list.due = due;
  due_lists_.push_back(DueList{due, house, addr});
  std::push_heap(due_lists_.begin(), due_lists_.end(), later_due);
}

void OnlineStudy::evict_due() {
  const std::uint64_t candidates_before = active_candidates_;
  while (!due_lists_.empty() && due_lists_.front().due <= watermark_) {
    std::pop_heap(due_lists_.begin(), due_lists_.end(), later_due);
    const DueList entry = due_lists_.back();
    due_lists_.pop_back();
    // Lists and houses are never erased: a list keeps its newest candidate.
    House& house = houses_.at(entry.house);
    CandidateList& list = house.index.at(entry.addr);
    if (list.due != entry.due) continue;  // rescheduled earlier since

    // Drop what the watermark has retired; the survivors' new pairs give
    // the list's next due time.
    std::vector<Candidate>& cands = list.cands;
    std::size_t kept = 0;
    SimTime due = SimTime::max();
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (i + 1 < cands.size() && pair_due(cands[i], cands[i + 1]) <= watermark_) {
        drop_candidate(house, cands[i]);
        continue;
      }
      if (kept > 0) due = std::min(due, pair_due(cands[kept - 1], cands[i]));
      cands[kept++] = cands[i];
    }
    cands.resize(kept);
    list.due = SimTime::max();
    if (due != SimTime::max()) schedule(list, due, entry.house, entry.addr);
  }

  if (active_candidates_ != candidates_before && obs::enabled()) {
    // Evictions can come every few records, so the handles, which live as
    // long as the registry, are looked up once.
    static auto& evicted = obs::registry().counter("stream_evicted_candidates_total");
    static auto& candidates = obs::registry().gauge("stream_active_candidates");
    static auto& records = obs::registry().gauge("stream_active_records");
    static auto& houses = obs::registry().gauge("stream_tracked_houses");
    evicted.add(candidates_before - active_candidates_);
    candidates.set(static_cast<double>(active_candidates_));
    records.set(static_cast<double>(active_records_));
    houses.set(static_cast<double>(houses_.size()));
  }
}

OnlineStudyResult OnlineStudy::finalize() const {
  OnlineStudyResult out;
  out.conns = conns_total_;
  out.dns = dns_total_;
  out.pairing = pairing_;
  out.unused_lookup_frac =
      eligible_lookups_ ? static_cast<double>(eligible_lookups_ - used_lookups_) /
                              static_cast<double>(eligible_lookups_)
                        : 0.0;
  out.lc_expired = lc_expired_;
  out.p_expired = p_expired_;

  // ---- §5.3 thresholds + deferred SC/R split ------------------------------
  // Replicates derive_resolver_thresholds from each resolver's mode
  // window (ModeWindow::mode_ms) instead of a full Cdf.
  // (Per-resolver work is independent and the totals are integer sums,
  // so the map's iteration order cannot leak into any result.)
  util::FlatMap<Ipv4Addr, std::pair<std::uint64_t, std::uint64_t>>
      resolver_scr;  // resolver → (sc, r)
  std::uint64_t sc_total = 0;
  std::uint64_t r_total = 0;
  for (const auto& [resolver, ra] : resolvers_) {
    std::uint64_t sc = 0;
    if (ra.answered >= cfg_.classify.per_resolver_min_lookups) {
      const double mode_ms = ra.window.mode_ms();
      const double threshold = std::ceil(mode_ms + std::max(2.0, 0.55 * mode_ms));
      out.resolver_threshold_ms[resolver] = threshold;
      for (const auto& [bin_ms, count] : ra.blocked_ceil) {
        if (static_cast<double>(bin_ms) <= threshold) sc += count;
      }
    } else {
      sc = ra.blocked_le_default;
    }
    const std::uint64_t r = ra.blocked_total - sc;
    if (ra.blocked_total) resolver_scr.try_emplace(resolver, std::make_pair(sc, r));
    sc_total += sc;
    r_total += r;
  }
  out.classes =
      analysis::ClassCounts{.n = n_, .lc = lc_, .p = p_, .sc = sc_total, .r = r_total};

  // ---- Table 1 (build_table1's emit, verbatim arithmetic) -----------------
  auto emit = [&](analysis::PlatformId id) {
    const PlatTally& t = tallies_[id];
    if (t.lookups == 0 && t.conns == 0) return;  // the platform was never touched
    const double lookup_share =
        total_lookups_ ? static_cast<double>(t.lookups) / static_cast<double>(total_lookups_)
                       : 0.0;
    if (id != cfg_.directory.other_id() && lookup_share < 0.01) return;
    analysis::Table1Row row;
    row.platform = cfg_.directory.name_of(id);
    row.lookups = t.lookups;
    row.pct_houses = all_houses_.empty() ? 0.0
                                         : 100.0 * static_cast<double>(t.houses.size()) /
                                               static_cast<double>(all_houses_.size());
    row.pct_lookups = 100.0 * lookup_share;
    row.pct_conns = paired_conns_ ? 100.0 * static_cast<double>(t.conns) /
                                        static_cast<double>(paired_conns_)
                                  : 0.0;
    row.pct_bytes = paired_bytes_ ? 100.0 * static_cast<double>(t.bytes) /
                                        static_cast<double>(paired_bytes_)
                                  : 0.0;
    out.table1.push_back(std::move(row));
  };
  for (analysis::PlatformId id = 0; id < cfg_.directory.other_id(); ++id) emit(id);
  emit(cfg_.directory.other_id());

  // ---- isp-only houses ----------------------------------------------------
  if (!only_local_.empty()) {
    std::size_t count = 0;
    for (const auto& [house, local] : only_local_) {
      if (local) ++count;
    }
    out.isp_only_houses =
        static_cast<double>(count) / static_cast<double>(only_local_.size());
  }

  // ---- §6 quadrants -------------------------------------------------------
  const std::uint64_t blocked = q_ins_ + q_rel_ + q_abs_ + q_sig_;
  if (blocked) {
    const auto div = static_cast<double>(blocked);
    out.quadrants.insignificant_both = static_cast<double>(q_ins_) / div;
    out.quadrants.relative_only = static_cast<double>(q_rel_) / div;
    out.quadrants.absolute_only = static_cast<double>(q_abs_) / div;
    out.quadrants.significant_both = static_cast<double>(q_sig_) / div;
  }
  if (conns_total_) {
    out.quadrants.significant_overall =
        static_cast<double>(q_sig_) / static_cast<double>(conns_total_);
  }

  // ---- §7 platform rows (directory order, then "other") -------------------
  auto emit_platform = [&](analysis::PlatformId id) {
    const PlatConns& pc = platform_conns_[id];
    if (pc.total == 0) return;  // an entry only ever exists after a paired conn
    OnlinePlatformRow row;
    row.platform = cfg_.directory.name_of(id);
    row.total_conns = pc.total;
    row.conncheck_conns = pc.conncheck;
    for (const auto& [resolver, scr] : resolver_scr) {
      if (cfg_.directory.id_of(resolver) == id) {
        row.sc += scr.first;
        row.r += scr.second;
      }
    }
    out.platforms.push_back(std::move(row));
  };
  for (analysis::PlatformId id = 0; id < cfg_.directory.other_id(); ++id) emit_platform(id);
  emit_platform(cfg_.directory.other_id());

  // ---- failure counters (open chains fold in as failed) -------------------
  chains_.fold_into(out.failures);

  return out;
}

void OnlineStudy::absorb(OnlineStudy&& other) {
  // Seqs are engine-local; shift the other engine's so per-house
  // (response, seq) candidate order is preserved without collisions.
  const std::uint64_t seq_offset = next_seq_;
  for (auto& [house_ip, other_house] : other.houses_) {
    if (houses_.contains(house_ip)) {
      throw std::logic_error{
          "OnlineStudy::absorb: house present in both engines (partitions must be "
          "house-disjoint)"};
    }
    House& house = houses_[house_ip];
    for (auto& [addr, list] : other_house.index) {
      for (Candidate& c : list.cands) c.seq += seq_offset;
      house.index.try_emplace(addr, std::move(list));
    }
    for (auto& [seq, ru] : other_house.records) {
      house.records.try_emplace(seq + seq_offset, std::move(ru));
    }
  }
  next_seq_ += other.next_seq_;
  due_lists_.insert(due_lists_.end(), other.due_lists_.begin(), other.due_lists_.end());
  std::make_heap(due_lists_.begin(), due_lists_.end(), later_due);

  last_conn_ = std::max(last_conn_, other.last_conn_);
  last_dns_ = std::max(last_dns_, other.last_dns_);
  watermark_ = std::max(watermark_, other.watermark_);
  any_conn_ = any_conn_ || other.any_conn_;
  any_dns_ = any_dns_ || other.any_dns_;
  active_candidates_ += other.active_candidates_;
  active_records_ += other.active_records_;

  conns_total_ += other.conns_total_;
  dns_total_ += other.dns_total_;
  pairing_.paired += other.pairing_.paired;
  pairing_.unpaired += other.pairing_.unpaired;
  pairing_.paired_expired += other.pairing_.paired_expired;
  pairing_.unique_candidate += other.pairing_.unique_candidate;
  pairing_.multiple_candidates += other.pairing_.multiple_candidates;
  eligible_lookups_ += other.eligible_lookups_;
  used_lookups_ += other.used_lookups_;

  n_ += other.n_;
  lc_ += other.lc_;
  p_ += other.p_;
  lc_expired_ += other.lc_expired_;
  p_expired_ += other.p_expired_;

  for (auto& [resolver, part] : other.resolvers_) {
    ResolverAcc& ra = resolvers_[resolver];
    ra.answered += part.answered;
    ra.window.merge(std::move(part.window));
    for (const auto& [bin_ms, count] : part.blocked_ceil) ra.blocked_ceil[bin_ms] += count;
    ra.blocked_total += part.blocked_total;
    ra.blocked_le_default += part.blocked_le_default;
  }

  q_ins_ += other.q_ins_;
  q_rel_ += other.q_rel_;
  q_abs_ += other.q_abs_;
  q_sig_ += other.q_sig_;

  for (std::size_t id = 0; id < other.tallies_.size(); ++id) {
    PlatTally& tally = tallies_[id];
    PlatTally& part = other.tallies_[id];
    tally.lookups += part.lookups;
    tally.conns += part.conns;
    tally.bytes += part.bytes;
    if (tally.houses.empty()) {
      tally.houses = std::move(part.houses);
    } else {
      part.houses.for_each([&](Ipv4Addr h) { tally.houses.insert(h); });
    }
  }
  other.all_houses_.for_each([&](Ipv4Addr h) { all_houses_.insert(h); });
  total_lookups_ += other.total_lookups_;
  paired_conns_ += other.paired_conns_;
  paired_bytes_ += other.paired_bytes_;
  for (const auto& [house, local] : other.only_local_) {
    const auto [it, inserted] = only_local_.try_emplace(house, local);
    if (!inserted) it->second = it->second && local;
  }

  for (std::size_t id = 0; id < other.platform_conns_.size(); ++id) {
    platform_conns_[id].total += other.platform_conns_[id].total;
    platform_conns_[id].conncheck += other.platform_conns_[id].conncheck;
  }

  chains_.absorb(std::move(other.chains_));
  // The other engine's lists may be due at this engine's watermark.
  evict_due();
}

}  // namespace dnsctx::stream
