#include "stream/online_study.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {

namespace {

[[nodiscard]] std::int64_t ceil_ms(std::int64_t us) { return (us + 999) / 1000; }

/// Heap order for std::push_heap/pop_heap: earliest due time on top.
constexpr auto later_due = [](const auto& a, const auto& b) { return b.due < a.due; };

}  // namespace

OnlineStudy::OnlineStudy(OnlineStudyConfig cfg)
    : cfg_{std::move(cfg)},
      conncheck_name_{cfg_.conncheck_name},
      local_id_{cfg_.directory.id_of_label("Local")},
      table1_{cfg_.directory.platform_count()},
      platforms_(cfg_.directory.platform_count()),
      chains_{cfg_.chain_gap} {}

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
  note_time(last_dns_, rec.ts, "dns");
  ++dns_total_;
  chains_.evict_before(last_dns_);
  chains_.on_dns(rec);

  // Table 1 DNS pass and isp-only houses: every record counts, answered or not.
  const analysis::PlatformId pid = cfg_.directory.id_of(rec.resolver_ip);
  table1_.add_lookup(pid, rec.client_ip);
  isp_only_.add_lookup(rec.client_ip, pid == local_id_);

  // §5.3 threshold material: answered-lookup durations per resolver.
  if (rec.answered) resolvers_[rec.resolver_ip].window.add(rec.duration);

  // DN-Hunter candidate lists (answered, A-bearing lookups only).
  if (rec.answered && !rec.answers.empty()) {
    ++pairing_.lookups;
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
      analysis::CandidateList& list = house.index[a.addr];
      if (list.insert({response, response + SimDuration::sec(a.ttl), seq})) {
        schedule(list.due(), rec.client_ip, a.addr);
      }
      ++active_candidates_;
    }
  }

  evict_due();
}

void OnlineStudy::on_conn(const capture::ConnRecord& rec) {
  note_time(last_conn_, rec.start, "conn");
  ++conns_total_;
  chains_.on_conn(rec);
  // Nothing evicted at this watermark could pair with a connection
  // starting at it.
  evict_due();

  // ---- DN-Hunter pairing ----------------------------------------------------
  analysis::Pick pick;
  const auto house_it = houses_.find(rec.orig_ip);
  if (house_it != houses_.end()) {
    const auto& index = house_it->second.index;
    const auto it = index.find(rec.resp_ip);
    if (it != index.end()) pick = it->second.pick(rec.start);
  }
  pairing_.add(pick);
  if (pick.chosen == nullptr) {
    ++classes_.n;
    return;
  }
  RecordUse& ru = house_it->second.records.at(pick.chosen->seq);
  const bool first_use = ru.uses == 0;
  if (first_use) ++pairing_.used_lookups;
  ++ru.uses;
  const SimDuration gap = rec.start - pick.chosen->response;

  // ---- taxonomy + downstream accumulators --------------------------------
  if (gap > cfg_.classify.blocked_threshold) {
    if (first_use) {
      ++classes_.p;
      if (pick.expired()) ++p_expired_;
    } else {
      ++classes_.lc;
      if (pick.expired()) ++lc_expired_;
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
    quadrants_.add(ru.duration.to_ms(), rec.duration.to_ms(), cfg_.abs_significance_ms,
                   cfg_.rel_significance_pct);
  }

  // Table 1 connection pass + §7 per-platform counters.
  const analysis::PlatformId pid = cfg_.directory.id_of(ru.resolver_ip);
  table1_.add_conn(pid, rec.orig_bytes + rec.resp_bytes);
  platforms_[pid].add_paired(ru.conncheck);
}

void OnlineStudy::drop_candidate(House& house, const analysis::Candidate& cand) {
  const auto it = house.records.find(cand.seq);
  if (it != house.records.end() && --it->second.refs == 0) {
    house.records.erase(cand.seq);
    --active_records_;
  }
  --active_candidates_;
}

void OnlineStudy::schedule(SimTime due, Ipv4Addr house, Ipv4Addr addr) {
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
    analysis::CandidateList& list = house.index.at(entry.addr);
    if (list.due() != entry.due) continue;  // rescheduled earlier since
    list.compact(watermark_, [&](const analysis::Candidate& c) { drop_candidate(house, c); });
    if (list.due() != SimTime::max()) schedule(list.due(), entry.house, entry.addr);
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
  out.lc_expired = lc_expired_;
  out.p_expired = p_expired_;

  // ---- §5.3 thresholds + deferred SC/R split ------------------------------
  // (Per-resolver work is independent and the totals are integer sums,
  // so the map's iteration order cannot leak into any result.)
  out.classes = classes_;
  std::vector<analysis::PlatformCounts> platforms = platforms_;
  for (const auto& [resolver, ra] : resolvers_) {
    std::uint64_t sc = 0;
    if (ra.window.count() >= cfg_.classify.per_resolver_min_lookups) {
      const double threshold = ra.window.threshold_ms();
      out.resolver_threshold_ms[resolver] = threshold;
      for (const auto& [bin_ms, count] : ra.blocked_ceil) {
        if (static_cast<double>(bin_ms) <= threshold) sc += count;
      }
    } else {
      sc = ra.blocked_le_default;
    }
    const std::uint64_t r = ra.blocked_total - sc;
    analysis::PlatformCounts& platform = platforms[cfg_.directory.id_of(resolver)];
    platform.sc += sc;
    platform.r += r;
    out.classes.sc += sc;
    out.classes.r += r;
  }

  out.table1 = table1_.rows(cfg_.directory);
  out.isp_only_houses = isp_only_.frac();
  out.quadrants = quadrants_.fractions(conns_total_);
  out.platforms = analysis::platform_rows(std::move(platforms), cfg_.directory);

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
    for (auto& [addr, list] : other_house.index) list.shift_seq(seq_offset);
    House& house = houses_[house_ip];
    house.index = std::move(other_house.index);
    for (auto& [seq, ru] : other_house.records) house.records.try_emplace(seq + seq_offset, ru);
  }
  next_seq_ += other.next_seq_;
  due_lists_.insert(due_lists_.end(), other.due_lists_.begin(), other.due_lists_.end());
  std::make_heap(due_lists_.begin(), due_lists_.end(), later_due);

  last_conn_ = std::max(last_conn_, other.last_conn_);
  last_dns_ = std::max(last_dns_, other.last_dns_);
  watermark_ = std::max(watermark_, other.watermark_);
  active_candidates_ += other.active_candidates_;
  active_records_ += other.active_records_;

  conns_total_ += other.conns_total_;
  dns_total_ += other.dns_total_;
  pairing_.merge(other.pairing_);

  classes_.merge(other.classes_);
  lc_expired_ += other.lc_expired_;
  p_expired_ += other.p_expired_;

  for (auto& [resolver, part] : other.resolvers_) {
    ResolverAcc& ra = resolvers_[resolver];
    ra.window.merge(std::move(part.window));
    for (const auto& [bin_ms, count] : part.blocked_ceil) ra.blocked_ceil[bin_ms] += count;
    ra.blocked_total += part.blocked_total;
    ra.blocked_le_default += part.blocked_le_default;
  }

  quadrants_.merge(other.quadrants_);
  table1_.merge(other.table1_);
  isp_only_.merge(other.isp_only_);
  for (std::size_t id = 0; id < platforms_.size(); ++id) platforms_[id].merge(other.platforms_[id]);

  chains_.absorb(std::move(other.chains_));
  // The other engine's lists may be due at this engine's watermark.
  evict_due();
}

}  // namespace dnsctx::stream
