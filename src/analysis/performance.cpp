#include "analysis/performance.hpp"

#include "util/parallel.hpp"

namespace dnsctx::analysis {

namespace {

/// Per-chunk accumulator: the Fig 2 samples (Cdfs concatenate in chunk
/// order) and the §6 counts.
struct PerfAcc {
  PerformanceAnalysis cdfs;
  QuadrantCounts quadrants;
};

constexpr Cdf PerformanceAnalysis::*kCdfs[] = {
    &PerformanceAnalysis::lookup_ms_all, &PerformanceAnalysis::lookup_ms_sc,
    &PerformanceAnalysis::lookup_ms_r,   &PerformanceAnalysis::contrib_all,
    &PerformanceAnalysis::contrib_sc,    &PerformanceAnalysis::contrib_r};

}  // namespace

void QuadrantCounts::merge(const QuadrantCounts& other) {
  ins_ += other.ins_;
  rel_ += other.rel_;
  abs_ += other.abs_;
  sig_ += other.sig_;
}

Quadrants QuadrantCounts::fractions(std::uint64_t all_conns) const {
  Quadrants q;
  if (const std::uint64_t blocked = ins_ + rel_ + abs_ + sig_) {
    const auto div = static_cast<double>(blocked);
    q.insignificant_both = static_cast<double>(ins_) / div;
    q.relative_only = static_cast<double>(rel_) / div;
    q.absolute_only = static_cast<double>(abs_) / div;
    q.significant_both = static_cast<double>(sig_) / div;
  }
  if (all_conns) q.significant_overall = static_cast<double>(sig_) / static_cast<double>(all_conns);
  return q;
}

PerformanceAnalysis analyze_performance(const capture::Dataset& ds,
                                        const PairingResult& pairing,
                                        const Classified& classified, double abs_ms,
                                        double rel_pct, unsigned threads) {
  PerfAcc acc = util::parallel_map_reduce<PerfAcc>(
      threads, ds.conns.size(), util::kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        PerfAcc part;
        PerformanceAnalysis& p = part.cdfs;
        for (std::size_t i = begin; i < end; ++i) {
          const ConnClass cls = classified.classes[i];
          if (cls != ConnClass::kSC && cls != ConnClass::kR) continue;
          const PairedConn& pc = pairing.conns[i];
          const auto& dns = ds.dns[static_cast<std::size_t>(pc.dns_idx)];

          const double d_ms = dns.duration.to_ms();
          const double contrib =
              part.quadrants.add(d_ms, ds.conns[i].duration.to_ms(), abs_ms, rel_pct);
          p.lookup_ms_all.add(d_ms);
          p.contrib_all.add(contrib);
          (cls == ConnClass::kSC ? p.lookup_ms_sc : p.lookup_ms_r).add(d_ms);
          (cls == ConnClass::kSC ? p.contrib_sc : p.contrib_r).add(contrib);
        }
        return part;
      },
      [](PerfAcc& into, PerfAcc&& part) {
        for (const auto cdf : kCdfs) (into.cdfs.*cdf).absorb(part.cdfs.*cdf);
        into.quadrants.merge(part.quadrants);
      });

  PerformanceAnalysis out = std::move(acc.cdfs);
  static_cast<Quadrants&>(out) = acc.quadrants.fractions(ds.conns.size());
  // Sort now so concurrent report/export readers stay lock-free.
  for (const auto cdf : kCdfs) (out.*cdf).seal();
  return out;
}

}  // namespace dnsctx::analysis
