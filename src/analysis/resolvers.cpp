#include "analysis/resolvers.hpp"

#include "util/names.hpp"
#include "util/parallel.hpp"

namespace dnsctx::analysis {

namespace {

/// Dense per-platform accumulator, indexed by PlatformId. Per-platform
/// Cdf samples are absorbed in fixed chunk order (parallel_map_reduce
/// merges chunks in order), so the sample sequence — and every quantile
/// derived from it — is identical for any thread count.
using PerfVec = std::vector<PlatformPerf>;

constexpr Cdf PlatformPerf::*kCdfs[] = {&PlatformPerf::r_lookup_ms, &PlatformPerf::throughput_bps,
                                         &PlatformPerf::throughput_bps_filtered};

void merge_perf(PerfVec& into, PerfVec&& part) {
  if (into.size() < part.size()) into.resize(part.size());
  for (std::size_t id = 0; id < part.size(); ++id) {
    into[id].merge(part[id]);
    for (const auto cdf : kCdfs) (into[id].*cdf).absorb(part[id].*cdf);
  }
}

}  // namespace

std::vector<PlatformPerf> analyze_platforms(const capture::Dataset& ds,
                                            const PairingResult& pairing,
                                            const Classified& classified,
                                            const PlatformDirectory& dir,
                                            const std::string& conncheck_name,
                                            unsigned threads) {
  // Intern the conncheck hostname once: the per-connection test becomes
  // an integer compare instead of a string compare.
  const util::InternedName conncheck{conncheck_name};
  const std::size_t nplatforms = dir.platform_count();
  PerfVec perf = util::parallel_map_reduce<PerfVec>(
      threads, ds.conns.size(), util::kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        PerfVec part(nplatforms);
        for (std::size_t i = begin; i < end; ++i) {
          const PairedConn& pc = pairing.conns[i];
          if (pc.dns_idx < 0) continue;
          const auto& dns = ds.dns[static_cast<std::size_t>(pc.dns_idx)];
          PlatformPerf& p = part[dir.id_of(dns.resolver_ip)];
          const bool is_conncheck = dns.query == conncheck;
          p.add_paired(is_conncheck);

          const ConnClass cls = classified.classes[i];
          if (cls == ConnClass::kSC) {
            ++p.sc;
          } else if (cls == ConnClass::kR) {
            ++p.r;
            p.r_lookup_ms.add(dns.duration.to_ms());
          } else {
            continue;
          }
          const double tput = ds.conns[i].throughput_bps();
          if (tput > 0.0) {
            p.throughput_bps.add(tput);
            if (!is_conncheck) p.throughput_bps_filtered.add(tput);
          }
        }
        return part;
      },
      merge_perf);
  perf.resize(nplatforms);

  std::vector<PlatformPerf> out = platform_rows(std::move(perf), dir);
  // Sort now so concurrent report/export readers stay lock-free.
  for (PlatformPerf& p : out) {
    for (const auto cdf : kCdfs) (p.*cdf).seal();
  }
  return out;
}

}  // namespace dnsctx::analysis
