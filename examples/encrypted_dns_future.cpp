// Example: the paper's closing warning made concrete. §3 notes that
// "widespread use of encrypted DNS would render the study we conduct in
// this paper impossible". Here we move every capable device (computers
// and phones) from cleartext DNS to DoT, then DoH, and watch the passive
// methodology fall apart: lookups vanish from the DNS log, connections
// lose their pairings, and the N class inflates with traffic that is
// anything but peer-to-peer.
//
// Usage: encrypted_dns_future [houses] [hours] [seed]
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "analysis/nclass.hpp"
#include "analysis/study.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace dnsctx;
  scenario::ScenarioConfig base;
  base.houses = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 25;
  base.duration = SimDuration::hours(argc > 2 ? std::atoi(argv[2]) : 5);
  base.seed = argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 42;

  std::printf("encrypted-DNS transport sweep (%zu houses, %s)\n\n", base.houses,
              to_string(base.duration).c_str());
  std::printf("%9s %12s %12s %10s %12s %14s\n", "transport", "dns txns", "paired %",
              "N share", "port-853", "hi-port N %");

  for (const auto transport :
       {netsim::Transport::kDo53, netsim::Transport::kDoT, netsim::Transport::kDoH}) {
    auto cfg = base;
    cfg.transport = transport;
    scenario::Town town{cfg};
    town.run();
    const auto& ds = town.dataset();
    const auto study = analysis::run_study(ds);
    const auto nclass = analysis::analyze_n_class(ds, study.classified);

    std::uint64_t port853 = 0;
    for (const auto& c : ds.conns) port853 += c.resp_port == 853 ? 1 : 0;

    const double paired = ds.conns.empty()
                              ? 0.0
                              : 100.0 * static_cast<double>(study.pairing.paired) /
                                    static_cast<double>(ds.conns.size());
    const std::string_view name = netsim::to_string(transport);
    std::printf("%9.*s %12zu %11.1f%% %9.1f%% %12llu %13.1f%%\n",
                static_cast<int>(name.size()), name.data(), ds.dns.size(), paired,
                100.0 * study.classified.counts.share(study.classified.counts.n),
                static_cast<unsigned long long>(port853),
                100.0 * nclass.high_port_frac());
  }

  std::printf("\nreading the table: once lookups are encrypted the visible DNS log\n"
              "shrinks, the share of unpaired (N) connections explodes, and the §5.1\n"
              "sanity checks fire — port-853 flows appear under DoT, and the N set\n"
              "stops looking like P2P.\n"
              "Future DNS-in-context studies must move to the end hosts, as the paper\n"
              "predicts.\n");
  return 0;
}
