#include "analysis/classify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace dnsctx::analysis {

namespace {

/// A dense mode window's counters: one per µs of [min, min + 40 ms].
constexpr std::size_t kWindowSlots = 40'001;
/// The most samples a ModeWindow lists: as many bytes as its counters.
constexpr std::size_t kMaxListed = kWindowSlots * sizeof(std::uint32_t) / sizeof(std::int64_t);

/// Add `count` samples to one mode-window counter; a counter that would
/// wrap throws instead.
void add_checked(std::uint32_t& counter, std::uint64_t count) {
  if (count > std::numeric_limits<std::uint32_t>::max() - counter) {
    throw std::overflow_error{"§5.3 mode-window counter overflow"};
  }
  counter += static_cast<std::uint32_t>(count);
}

/// `hi − lo` for `hi >= lo`; exact for any two durations, where the
/// signed difference could overflow.
[[nodiscard]] std::uint64_t distance_us(std::int64_t hi, std::int64_t lo) {
  return static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
}

/// The §5.2 companion samples, which chunks concatenate in chunk order.
constexpr Cdf Classified::*kCdfs[] = {&Classified::lc_gap_sec, &Classified::p_gap_sec,
                                       &Classified::lc_violation_late_sec};

}  // namespace

std::string_view to_string(ConnClass c) {
  switch (c) {
    case ConnClass::kN: return "N";
    case ConnClass::kLC: return "LC";
    case ConnClass::kP: return "P";
    case ConnClass::kSC: return "SC";
    case ConnClass::kR: return "R";
  }
  return "?";
}

void ModeWindow::add(SimDuration duration) {
  ++count_;
  place(duration.count_us());
}

void ModeWindow::place(std::int64_t us) {
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
    // The list is full: from here on, counters.
    counts_.assign(kWindowSlots, 0);
    for (const std::int64_t listed : listed_) {
      if (const std::uint64_t i = distance_us(listed, min_us_); i < kWindowSlots) ++counts_[i];
    }
    std::vector<std::int64_t>{}.swap(listed_);
  }
  add_checked(counts_[at], 1);
}

void ModeWindow::lower_to(std::int64_t us) {
  if (!counts_.empty()) {
    // Each count moves up by the drop; those pushed past the top leave.
    const auto d = static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(distance_us(min_us_, us), counts_.size()));
    std::copy_backward(counts_.begin(), counts_.end() - d, counts_.end());
    std::fill_n(counts_.begin(), d, 0);
  }
  min_us_ = us;
}

void ModeWindow::merge(ModeWindow&& other) {
  // Keep the counters if either side has them (or take the other side
  // whole when this one is empty); replay a list sample by sample.
  if (count_ == 0 || (counts_.empty() && !other.counts_.empty())) std::swap(*this, other);
  count_ += other.count_;
  if (other.counts_.empty()) {
    for (const std::int64_t us : other.listed_) place(us);
    return;
  }
  if (other.min_us_ < min_us_) lower_to(other.min_us_);
  const std::uint64_t offset = distance_us(other.min_us_, min_us_);
  for (std::uint64_t i = 0; offset < kWindowSlots && i < kWindowSlots - offset; ++i) {
    add_checked(counts_[offset + i], other.counts_[i]);
  }
}

double ModeWindow::threshold_ms() const {
  // The cache-hit mode sits at the network RTT: histogram the low end
  // of the distribution, [min, min + 40 ms), in 80 bins and take the
  // most populated one. The double compare below admits no duration
  // above min + 40 ms, so the window's samples are all it reads.
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
  const double mode_ms = h.bin_low(h.mode_bin()) + h.bin_width() / 2.0;
  return std::ceil(mode_ms + std::max(2.0, 0.55 * mode_ms));
}

util::FlatMap<Ipv4Addr, double> derive_resolver_thresholds(
    const capture::Dataset& ds, const ClassifyConfig& cfg, unsigned threads) {
  // Map chunks of the DNS log to per-resolver mode windows, merged in
  // chunk order; each window holds the same samples for any split.
  using Windows = util::FlatMap<Ipv4Addr, ModeWindow>;
  Windows windows = util::parallel_map_reduce<Windows>(
      threads, ds.dns.size(), util::kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        Windows part;
        for (std::size_t i = begin; i < end; ++i) {
          const auto& d = ds.dns[i];
          if (d.answered) part[d.resolver_ip].add(d.duration);
        }
        return part;
      },
      [](Windows& into, Windows&& part) {
        for (auto& [resolver, window] : part) into[resolver].merge(std::move(window));
      });

  util::FlatMap<Ipv4Addr, double> out;
  for (const auto& [resolver, window] : windows) {
    if (window.count() >= cfg.per_resolver_min_lookups) out[resolver] = window.threshold_ms();
  }
  return out;
}

Classified classify_connections(const capture::Dataset& ds, const PairingResult& pairing,
                                const ClassifyConfig& cfg, unsigned threads) {
  std::vector<ConnClass> classes(ds.conns.size(), ConnClass::kN);
  auto thresholds = derive_resolver_thresholds(ds, cfg, threads);

  // Each chunk labels its own connections and counts into a Classified of
  // its own; counts are exact integer sums and the Cdfs concatenate in
  // chunk order, so the merged result is identical for any thread count.
  Classified out = util::parallel_map_reduce<Classified>(
      threads, ds.conns.size(), util::kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        Classified part;
        for (std::size_t i = begin; i < end; ++i) {
          const auto label = [&](ConnClass c) { part.counts.add(classes[i] = c); };
          const PairedConn& pc = pairing.conns[i];
          if (pc.dns_idx < 0) {
            label(ConnClass::kN);
            continue;
          }
          const auto& dns = ds.dns[static_cast<std::size_t>(pc.dns_idx)];
          if (pc.gap > cfg.blocked_threshold) {
            // Not blocked: local information was on hand.
            if (pc.first_use) {
              label(ConnClass::kP);
              if (pc.expired_pairing) ++part.p_expired;
              part.p_gap_sec.add(pc.gap.to_sec());
            } else {
              label(ConnClass::kLC);
              if (pc.expired_pairing) {
                ++part.lc_expired;
                const SimDuration late = pc.gap - (dns.expires_at() - dns.response_time());
                part.lc_violation_late_sec.add(std::max(late.to_sec(), 0.0));
              }
              part.lc_gap_sec.add(pc.gap.to_sec());
            }
            continue;
          }
          // Blocked: split by lookup duration against the resolver threshold.
          const auto it = thresholds.find(dns.resolver_ip);
          const double threshold = it != thresholds.end() ? it->second : cfg.default_threshold_ms;
          label(dns.duration.to_ms() <= threshold ? ConnClass::kSC : ConnClass::kR);
        }
        return part;
      },
      [](Classified& into, Classified&& part) {
        into.counts.merge(part.counts);
        into.lc_expired += part.lc_expired;
        into.p_expired += part.p_expired;
        for (const auto cdf : kCdfs) (into.*cdf).absorb(part.*cdf);
      });

  out.classes = std::move(classes);
  out.resolver_threshold_ms = std::move(thresholds);
  // Sort now so concurrent report/export readers stay lock-free.
  for (const auto cdf : kCdfs) (out.*cdf).seal();
  return out;
}

}  // namespace dnsctx::analysis
