#include "analysis/failures.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "analysis/classify.hpp"
#include "util/strings.hpp"

namespace dnsctx::analysis {

namespace {

[[nodiscard]] std::uint64_t chain_key(const capture::DnsRecord& rec) {
  return (static_cast<std::uint64_t>(rec.query.id()) << 16) |
         static_cast<std::uint16_t>(rec.qtype);
}

/// Heap order for std::push_heap/pop_heap: earliest due time on top.
constexpr auto later_due = [](const auto& a, const auto& b) { return b.due_us < a.due_us; };

}  // namespace

void ChainTracker::schedule(Ipv4Addr house, std::uint64_t key, const Chain& chain) {
  due_chains_.push_back(DueChain{chain.last_end_us + gap_.count_us(), house, key});
  std::push_heap(due_chains_.begin(), due_chains_.end(), later_due);
}

void ChainTracker::close_recovered(const Chain& chain, std::int64_t answer_us) {
  // Only reachable by extending an existing chain, so len >= 2.
  ++counts_.retry_chains;
  counts_.retry_lookups += chain.len - 1;
  ++counts_.recovered_chains;
  counts_.recovered_wait_us += answer_us - chain.first_us;
  ++counts_.chain_len_hist[std::min<std::uint32_t>(chain.len, 8) - 1];
  if (keep_samples_) {
    recovered_ms_.add(static_cast<double>(answer_us - chain.first_us) / 1000.0);
  }
}

void ChainTracker::fold_failed(FailureCounts& out, const Chain& chain) {
  if (chain.len >= 2) {
    ++out.retry_chains;
    out.retry_lookups += chain.len - 1;
  }
  ++out.failed_chains;
  out.failed_wait_us += chain.last_end_us - chain.first_us;
  ++out.chain_len_hist[std::min<std::uint32_t>(chain.len, 8) - 1];
}

void ChainTracker::close_failed(const Chain& chain) {
  fold_failed(counts_, chain);
  if (keep_samples_) {
    failed_ms_.add(static_cast<double>(chain.last_end_us - chain.first_us) / 1000.0);
  }
}

void ChainTracker::on_dns(const capture::DnsRecord& rec) {
  ++counts_.lookups;
  bool definitive = false;  // the client got its answer and stops retrying
  if (!rec.answered) {
    ++counts_.unanswered;
  } else {
    switch (rec.rcode) {
      case dns::Rcode::kNoError:
        rec.answers.empty() ? ++counts_.nodata : ++counts_.answered_ok;
        definitive = true;
        break;
      case dns::Rcode::kNxDomain:
        // Authoritative "no such name": a definitive (if unwelcome)
        // answer — stubs do not retry it.
        ++counts_.nxdomain;
        definitive = true;
        break;
      case dns::Rcode::kServFail:
        ++counts_.servfail;
        break;
      default:
        ++counts_.other_rcode;
        break;
    }
  }

  const std::int64_t ts_us = rec.ts.count_us();
  const std::int64_t end_us = rec.response_time().count_us();
  const std::uint64_t key = chain_key(rec);
  // Most lookups are definitive and open no chain: look the house up
  // rather than create an entry only to erase it again.
  if (const auto house_it = houses_.find(rec.client_ip); house_it != houses_.end()) {
    auto& chains = house_it->second.chains;
    if (const auto it = chains.find(key); it != chains.end()) {
      Chain& chain = it->second;
      if (ts_us <= chain.last_end_us + gap_.count_us()) {
        ++chain.len;
        if (definitive) {
          close_recovered(chain, end_us);
          chains.erase(key);
        } else if (end_us > chain.last_end_us) {
          chain.last_end_us = end_us;
          schedule(rec.client_ip, key, chain);
        }
        return;
      }
      // Too late to belong to the old chain: the client gave up back then.
      close_failed(chain);
      if (definitive) {
        chains.erase(key);
      } else {
        chain = Chain{ts_us, end_us, 1};
        schedule(rec.client_ip, key, chain);
      }
      return;
    }
  }
  if (!definitive) {
    const Chain chain{ts_us, end_us, 1};
    houses_[rec.client_ip].chains.try_emplace(key, chain);
    schedule(rec.client_ip, key, chain);
  }
}

void ChainTracker::on_conn(const capture::ConnRecord& rec) {
  if (rec.state == capture::ConnState::kS0) ++counts_.s0_conns;
  if (rec.state == capture::ConnState::kRej) ++counts_.rej_conns;
}

void ChainTracker::evict_before(SimTime dns_frontier) {
  // A future record has ts >= frontier; extension requires
  // ts <= last_end + gap, so anything strictly past that is closed.
  const std::int64_t frontier_us = dns_frontier.count_us();
  while (!due_chains_.empty() && due_chains_.front().due_us < frontier_us) {
    std::pop_heap(due_chains_.begin(), due_chains_.end(), later_due);
    const DueChain entry = due_chains_.back();
    due_chains_.pop_back();
    const auto house_it = houses_.find(entry.house);
    if (house_it == houses_.end()) continue;
    auto& chains = house_it->second.chains;
    // Skip a chain that closed since, or extended and falls due later.
    if (const auto it = chains.find(entry.key);
        it != chains.end() && it->second.last_end_us + gap_.count_us() == entry.due_us) {
      close_failed(it->second);
      chains.erase(entry.key);
    }
    // A chain that closed on an answer left its entry here, so an
    // emptied house is always visited once more.
    if (chains.empty()) houses_.erase(entry.house);
  }
}

void ChainTracker::fold_into(FailureCounts& out) const {
  out = counts_;
  for (const auto& [addr, house] : houses_) {
    for (const auto& [key, chain] : house.chains) fold_failed(out, chain);
  }
}

void ChainTracker::absorb(ChainTracker&& other) {
  for (auto& [addr, house] : other.houses_) {
    if (houses_.contains(addr)) {
      throw std::logic_error{"ChainTracker::absorb: house overlap between engines"};
    }
    houses_.try_emplace(addr, std::move(house));
  }
  other.houses_.clear();
  due_chains_.insert(due_chains_.end(), other.due_chains_.begin(), other.due_chains_.end());
  std::make_heap(due_chains_.begin(), due_chains_.end(), later_due);
  other.due_chains_.clear();

  const FailureCounts& o = other.counts_;
  counts_.lookups += o.lookups;
  counts_.answered_ok += o.answered_ok;
  counts_.nodata += o.nodata;
  counts_.nxdomain += o.nxdomain;
  counts_.servfail += o.servfail;
  counts_.other_rcode += o.other_rcode;
  counts_.unanswered += o.unanswered;
  counts_.retry_chains += o.retry_chains;
  counts_.retry_lookups += o.retry_lookups;
  counts_.recovered_chains += o.recovered_chains;
  counts_.failed_chains += o.failed_chains;
  for (std::size_t i = 0; i < counts_.chain_len_hist.size(); ++i) {
    counts_.chain_len_hist[i] += o.chain_len_hist[i];
  }
  counts_.recovered_wait_us += o.recovered_wait_us;
  counts_.failed_wait_us += o.failed_wait_us;
  counts_.s0_conns += o.s0_conns;
  counts_.rej_conns += o.rej_conns;
  other.counts_ = FailureCounts{};

  recovered_ms_.absorb(other.recovered_ms_);
  failed_ms_.absorb(other.failed_ms_);
}

FailureReport build_failure_report(const capture::Dataset& ds, FailureReportConfig cfg) {
  ChainTracker tracker{cfg.chain_gap, /*keep_samples=*/true};
  for (const auto& rec : ds.dns) tracker.on_dns(rec);
  for (const auto& rec : ds.conns) tracker.on_conn(rec);
  tracker.evict_before(SimTime::max());  // close everything, sampled

  FailureReport report;
  tracker.fold_into(report.counts);
  report.recovered_ms = tracker.recovered_ms();
  report.failed_ms = tracker.failed_ms();
  // Sort now so concurrent report/export readers stay lock-free.
  report.recovered_ms.seal();
  report.failed_ms.seal();
  return report;
}

std::string format_failure_report(const FailureReport& report) {
  const FailureCounts& c = report.counts;
  const auto pct = [&](std::uint64_t part) {
    return c.lookups ? 100.0 * static_cast<double>(part) / static_cast<double>(c.lookups)
                     : 0.0;
  };
  std::string out;
  out += "Failure report (monitor-visible recovery behaviour)\n";
  out += strfmt("  lookups          %10llu\n",
                static_cast<unsigned long long>(c.lookups));
  out += strfmt("  answered (addrs) %10llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(c.answered_ok), pct(c.answered_ok));
  out += strfmt("  nodata           %10llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(c.nodata), pct(c.nodata));
  out += strfmt("  nxdomain         %10llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(c.nxdomain), pct(c.nxdomain));
  out += strfmt("  servfail         %10llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(c.servfail), pct(c.servfail));
  out += strfmt("  other rcode      %10llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(c.other_rcode), pct(c.other_rcode));
  out += strfmt("  unanswered       %10llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(c.unanswered), pct(c.unanswered));
  out += strfmt("  retry chains     %10llu  (%llu extra lookups)\n",
                static_cast<unsigned long long>(c.retry_chains),
                static_cast<unsigned long long>(c.retry_lookups));
  out += strfmt("  recovered        %10llu\n",
                static_cast<unsigned long long>(c.recovered_chains));
  out += strfmt("  failed           %10llu\n",
                static_cast<unsigned long long>(c.failed_chains));
  out += "  chain length     ";
  for (std::size_t i = 0; i < c.chain_len_hist.size(); ++i) {
    out += strfmt("%zu%s:%llu ", i + 1, i + 1 == c.chain_len_hist.size() ? "+" : "",
                  static_cast<unsigned long long>(c.chain_len_hist[i]));
  }
  out += "\n";
  if (!report.recovered_ms.empty()) {
    out += strfmt("  recovery ms      p50 %.1f  p90 %.1f  p99 %.1f\n",
                  report.recovered_ms.quantile(0.5), report.recovered_ms.quantile(0.9),
                  report.recovered_ms.quantile(0.99));
  }
  if (!report.failed_ms.empty()) {
    out += strfmt("  failed-chain ms  p50 %.1f  p90 %.1f  p99 %.1f\n",
                  report.failed_ms.quantile(0.5), report.failed_ms.quantile(0.9),
                  report.failed_ms.quantile(0.99));
  }
  out += strfmt("  conn S0 / REJ    %10llu / %llu\n",
                static_cast<unsigned long long>(c.s0_conns),
                static_cast<unsigned long long>(c.rej_conns));
  return out;
}

std::string format_class_shift(const ClassCounts& baseline, const ClassCounts& impaired) {
  std::string out;
  out += "Class shift vs baseline (share of classified connections)\n";
  out += strfmt("  %-4s %12s %12s %9s\n", "cls", "baseline", "impaired", "shift");
  const struct Row {
    const char* name;
    std::uint64_t base;
    std::uint64_t cur;
  } rows[] = {
      {"N", baseline.n, impaired.n},   {"LC", baseline.lc, impaired.lc},
      {"P", baseline.p, impaired.p},   {"SC", baseline.sc, impaired.sc},
      {"R", baseline.r, impaired.r},
  };
  for (const Row& row : rows) {
    const double b = baseline.share(row.base) * 100.0;
    const double i = impaired.share(row.cur) * 100.0;
    out += strfmt("  %-4s %11.2f%% %11.2f%% %+8.2fpp\n", row.name, b, i, i - b);
  }
  out += strfmt("  total conns: baseline %llu, impaired %llu\n",
                static_cast<unsigned long long>(baseline.total()),
                static_cast<unsigned long long>(impaired.total()));
  return out;
}

}  // namespace dnsctx::analysis
