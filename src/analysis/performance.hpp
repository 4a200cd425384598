// dnsctx — DNS performance implications (§6, Figure 2).
//
// For the blocked classes (SC, R): the absolute lookup delay D, the
// connection duration A, total T = D + A, and DNS' percentage
// contribution 100·D/T. The §6 significance quadrants combine an
// absolute criterion (D ≤ 20 ms) with a relative one (D/T ≤ 1%).
#pragma once

#include "analysis/classify.hpp"
#include "util/stats.hpp"

namespace dnsctx::analysis {

/// §6's significance quadrants. Shared verbatim with
/// stream::OnlineStudy, whose result carries them as `quadrants`.
struct Quadrants {
  // As fractions of SC ∪ R connections.
  double insignificant_both = 0.0;  ///< D ≤ abs AND D/T ≤ rel (64.0% in paper)
  double relative_only = 0.0;       ///< D/T > rel but D ≤ abs (11.5%)
  double absolute_only = 0.0;       ///< D > abs but D/T ≤ rel (15.9%)
  double significant_both = 0.0;    ///< D > abs AND D/T > rel (8.6%)

  /// Significant share of ALL connections (3.6% in the paper).
  double significant_overall = 0.0;
};

/// Counts blocked (SC ∪ R) connections into the §6 quadrants. Shared
/// verbatim by analyze_performance and stream::OnlineStudy.
class QuadrantCounts {
 public:
  /// Count one blocked connection with lookup delay `d_ms` and
  /// connection duration `a_ms` against the absolute (`abs_ms`) and
  /// relative (`rel_pct`) criteria. Returns DNS' contribution 100·D/T.
  double add(double d_ms, double a_ms, double abs_ms, double rel_pct) {
    const double t_ms = d_ms + a_ms;
    const double contrib = t_ms > 0.0 ? 100.0 * d_ms / t_ms : 100.0;
    const bool abs_ok = d_ms <= abs_ms;
    const bool rel_ok = contrib <= rel_pct;
    if (abs_ok && rel_ok) {
      ++ins_;
    } else if (abs_ok) {
      ++rel_;  // relatively significant only
    } else if (rel_ok) {
      ++abs_;  // absolutely significant only
    } else {
      ++sig_;
    }
    return contrib;
  }
  void merge(const QuadrantCounts& other);
  /// The fractions, with `all_conns` connections in the whole stream.
  [[nodiscard]] Quadrants fractions(std::uint64_t all_conns) const;

 private:
  std::uint64_t ins_ = 0, rel_ = 0, abs_ = 0, sig_ = 0;
};

struct PerformanceAnalysis : Quadrants {
  // Fig 2 top: lookup delay CDFs (ms) for SC ∪ R, and per class.
  Cdf lookup_ms_all;
  Cdf lookup_ms_sc;
  Cdf lookup_ms_r;

  // Fig 2 bottom: DNS contribution (percent of T) CDFs.
  Cdf contrib_all;
  Cdf contrib_sc;
  Cdf contrib_r;

  [[nodiscard]] double frac_lookup_over_ms(double ms) const {
    return lookup_ms_all.fraction_above(ms);
  }
  [[nodiscard]] double frac_contrib_over_pct(double pct) const {
    return contrib_all.fraction_above(pct);
  }
};

/// Compute §6 over the classified dataset. `abs_ms` and `rel_pct` are
/// the paper's 20 ms / 1% significance criteria (the ablation bench
/// sweeps them, cf. footnote 7). Map-reduce over fixed connection
/// chunks: identical output for any `threads`.
[[nodiscard]] PerformanceAnalysis analyze_performance(const capture::Dataset& ds,
                                                      const PairingResult& pairing,
                                                      const Classified& classified,
                                                      double abs_ms = 20.0,
                                                      double rel_pct = 1.0,
                                                      unsigned threads = 1);

}  // namespace dnsctx::analysis
