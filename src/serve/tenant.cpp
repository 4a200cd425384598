#include "serve/tenant.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace dnsctx::serve {

namespace {

/// %.17g round-trips every double exactly; integers render as integers
/// so the document stays readable.
[[nodiscard]] std::string jnum(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// Append `s` as a JSON string.
void quoted(std::string& out, const std::string& s) {
  out += '"';
  out += obs::json_escape(s);
  out += '"';
}

void kv(std::string& out, const char* key, std::uint64_t v, bool comma = true) {
  out += strfmt("\"%s\":%llu", key, static_cast<unsigned long long>(v));
  if (comma) out += ",";
}

void kvd(std::string& out, const char* key, double v, bool comma = true) {
  out += strfmt("\"%s\":", key);
  out += jnum(v);
  if (comma) out += ",";
}

}  // namespace

std::string result_json(const stream::OnlineStudyResult& r) {
  std::string out = "{";
  kv(out, "conns", r.conns);
  kv(out, "dns", r.dns);

  out += "\"pairing\":{";
  kv(out, "paired", r.pairing.paired);
  kv(out, "unpaired", r.pairing.unpaired);
  kv(out, "paired_expired", r.pairing.paired_expired);
  kv(out, "unique_candidate", r.pairing.unique_candidate);
  kv(out, "multiple_candidates", r.pairing.multiple_candidates);
  kvd(out, "unique_candidate_frac", r.pairing.unique_candidate_frac());
  kvd(out, "unused_lookup_frac", r.pairing.unused_lookup_frac(), false);
  out += "},";

  out += "\"classes\":{";
  kv(out, "n", r.classes.n);
  kv(out, "lc", r.classes.lc);
  kv(out, "p", r.classes.p);
  kv(out, "sc", r.classes.sc);
  kv(out, "r", r.classes.r);
  kv(out, "lc_expired", r.lc_expired);
  kv(out, "p_expired", r.p_expired, false);
  out += "},";

  // FlatMap iteration order depends on insertion history; sort by IP so
  // the document depends only on the final mapping.
  std::vector<std::pair<Ipv4Addr, double>> thresholds;
  thresholds.reserve(r.resolver_threshold_ms.size());
  for (const auto& [ip, t] : r.resolver_threshold_ms) thresholds.emplace_back(ip, t);
  std::sort(thresholds.begin(), thresholds.end(),
            [](const auto& a, const auto& b) { return a.first.to_u32() < b.first.to_u32(); });
  out += "\"resolver_threshold_ms\":{";
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (i) out += ",";
    quoted(out, thresholds[i].first.to_string());
    out += ":";
    out += jnum(thresholds[i].second);
  }
  out += "},";

  out += "\"table1\":[";
  for (std::size_t i = 0; i < r.table1.size(); ++i) {
    const auto& row = r.table1[i];
    if (i) out += ",";
    out += "{\"platform\":";
    quoted(out, row.platform);
    out += ",";
    kvd(out, "pct_houses", row.pct_houses);
    kvd(out, "pct_lookups", row.pct_lookups);
    kvd(out, "pct_conns", row.pct_conns);
    kvd(out, "pct_bytes", row.pct_bytes);
    kv(out, "lookups", row.lookups, false);
    out += "}";
  }
  out += "],";
  kvd(out, "isp_only_houses", r.isp_only_houses);

  out += "\"quadrants\":{";
  kvd(out, "insignificant_both", r.quadrants.insignificant_both);
  kvd(out, "relative_only", r.quadrants.relative_only);
  kvd(out, "absolute_only", r.quadrants.absolute_only);
  kvd(out, "significant_both", r.quadrants.significant_both);
  kvd(out, "significant_overall", r.quadrants.significant_overall, false);
  out += "},";

  out += "\"platforms\":[";
  for (std::size_t i = 0; i < r.platforms.size(); ++i) {
    const auto& p = r.platforms[i];
    if (i) out += ",";
    out += "{\"platform\":";
    quoted(out, p.platform);
    out += ",";
    kv(out, "sc", p.sc);
    kv(out, "r", p.r);
    kv(out, "conncheck_conns", p.conncheck_conns);
    kv(out, "total_conns", p.total_conns, false);
    out += "}";
  }
  out += "],";

  const auto& f = r.failures;
  out += "\"failures\":{";
  kv(out, "lookups", f.lookups);
  kv(out, "answered_ok", f.answered_ok);
  kv(out, "nodata", f.nodata);
  kv(out, "nxdomain", f.nxdomain);
  kv(out, "servfail", f.servfail);
  kv(out, "other_rcode", f.other_rcode);
  kv(out, "unanswered", f.unanswered);
  kv(out, "retry_chains", f.retry_chains);
  kv(out, "retry_lookups", f.retry_lookups);
  kv(out, "recovered_chains", f.recovered_chains);
  kv(out, "failed_chains", f.failed_chains);
  out += "\"chain_len_hist\":[";
  for (std::size_t i = 0; i < f.chain_len_hist.size(); ++i) {
    if (i) out += ",";
    out += strfmt("%llu", static_cast<unsigned long long>(f.chain_len_hist[i]));
  }
  out += "],";
  out += strfmt("\"recovered_wait_us\":%lld,", static_cast<long long>(f.recovered_wait_us));
  out += strfmt("\"failed_wait_us\":%lld,", static_cast<long long>(f.failed_wait_us));
  kv(out, "s0_conns", f.s0_conns);
  kv(out, "rej_conns", f.rej_conns, false);
  out += "}}";
  return out;
}

Tenant::Tenant(std::string name, const stream::OnlineStudyConfig& cfg)
    : name_{std::move(name)},
      engine_{cfg},
      released_{engine_},
      feed_{released_},
      last_activity_{Clock::now()} {}

void Tenant::enqueue(stream::SegmentView&& seg) {
  process_one();
  held_ = std::move(seg);
  queue_peak_ = 1;
}

bool Tenant::process_one() {
  if (!held_) return false;
  feed_.push(*held_);
  held_.reset();
  return true;
}

void Tenant::flush() { feed_.close(); }

std::shared_ptr<Tenant> TenantRegistry::open(const std::string& name, std::string* error) {
  if (const auto it = tenants_.find(name); it != tenants_.end()) return it->second;
  if (tenants_.size() >= cfg_.max_tenants) {
    if (error) {
      *error = strfmt("tenant table full (%zu of %zu): rejecting '%s'", tenants_.size(),
                      cfg_.max_tenants, name.c_str());
    }
    return nullptr;
  }
  auto tenant = std::make_shared<Tenant>(name, cfg_.study);
  tenants_.emplace(name, tenant);
  if (obs::enabled()) {
    obs::registry().gauge("serve_tenants_active").set(static_cast<double>(tenants_.size()));
  }
  return tenant;
}

std::shared_ptr<Tenant> TenantRegistry::find(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

void TenantRegistry::drop_unfed(const Tenant& tenant) {
  // queue_peak() is 1 once a segment reached the tenant.
  if (tenant.queue_peak() > 0 || tenant.attached() > 1) return;
  tenants_.erase(tenant.name());
  if (obs::enabled()) {
    obs::registry().gauge("serve_tenants_active").set(static_cast<double>(tenants_.size()));
  }
}

void TenantRegistry::evict_idle(Tenant::Clock::time_point now) {
  for (auto it = tenants_.begin(); it != tenants_.end();) {
    Tenant& t = *it->second;
    const bool idle = cfg_.idle_evict.count() > 0 && t.attached() == 0 &&
                      now - t.last_activity() >= cfg_.idle_evict;
    if (idle) {
      std::fprintf(stderr, "serve: evicting idle tenant '%s' (%llu records)\n",
                   t.name().c_str(),
                   static_cast<unsigned long long>(t.records_released()));
      it = tenants_.erase(it);
      ++evicted_;
    } else {
      ++it;
    }
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.gauge("serve_tenants_active").set(static_cast<double>(tenants_.size()));
    reg.counter("serve_tenants_evicted_total")
        .add(evicted_ - last_published_evicted_);
  }
  last_published_evicted_ = evicted_;
}

void TenantRegistry::flush_all() {
  for (auto& [name, tenant] : tenants_) tenant->flush();
}

void TenantRegistry::for_each(const std::function<void(const Tenant&)>& fn) const {
  for (const auto& [name, tenant] : tenants_) fn(*tenant);
}

}  // namespace dnsctx::serve
