#include "dns/cache.hpp"

#include <algorithm>

namespace dnsctx::dns {

DnsCache::DnsCache(CacheConfig cfg) : cfg_{cfg} {}

void DnsCache::lru_unlink(std::uint32_t idx) {
  Entry& e = slab_[idx];
  if (e.lru_prev != kNil) {
    slab_[e.lru_prev].lru_next = e.lru_next;
  } else {
    lru_head_ = e.lru_next;
  }
  if (e.lru_next != kNil) {
    slab_[e.lru_next].lru_prev = e.lru_prev;
  } else {
    lru_tail_ = e.lru_prev;
  }
  e.lru_prev = kNil;
  e.lru_next = kNil;
}

void DnsCache::lru_push_front(std::uint32_t idx) {
  Entry& e = slab_[idx];
  e.lru_prev = kNil;
  e.lru_next = lru_head_;
  if (lru_head_ != kNil) slab_[lru_head_].lru_prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
}

void DnsCache::remove_at(std::uint32_t idx) {
  lru_unlink(idx);
  Entry& e = slab_[idx];
  map_.erase(e.key);
  e.answers.clear();
  e.key = CacheKey{};
  free_slots_.push_back(idx);
}

void DnsCache::insert(const DomainName& qname, RrType qtype,
                      std::vector<ResourceRecord> answers, Rcode rcode, SimTime now,
                      SimDuration extra_hold, CacheOrigin origin) {
  std::uint32_t ttl = 0;
  bool first = true;
  for (const auto& rr : answers) {
    if (first || rr.ttl < ttl) ttl = rr.ttl;
    first = false;
  }
  if (cfg_.min_ttl_sec) ttl = std::max(ttl, cfg_.min_ttl_sec);
  if (cfg_.max_ttl_sec) ttl = std::min(ttl, cfg_.max_ttl_sec);

  if (const auto it = map_.find(CacheKey{qname, qtype}); it != map_.end()) {
    remove_at(it->second);
  }
  if (map_.size() >= cfg_.capacity && cfg_.capacity > 0) evict_lru();

  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Entry& e = slab_[idx];
  e.key = CacheKey{qname, qtype};
  e.answers = std::move(answers);
  e.rcode = rcode;
  e.inserted_at = now;
  e.expires_at = now + SimDuration::sec(ttl);
  e.servable_until = e.expires_at + extra_hold + cfg_.max_stale;
  e.origin = origin;
  e.uses = 0;
  lru_push_front(idx);
  map_[e.key] = idx;
  ++stats_.insertions;
}

std::optional<CacheHitView> DnsCache::lookup_view(const DomainName& qname, RrType qtype,
                                                  SimTime now) {
  const auto it = map_.find(CacheKey{qname, qtype});
  if (it == map_.end() || now >= slab_[it->second].servable_until) {
    if (it != map_.end()) remove_at(it->second);
    ++stats_.misses;
    return std::nullopt;
  }
  const std::uint32_t idx = it->second;
  touch(idx);
  ++stats_.hits;
  Entry& e = slab_[idx];
  ++e.uses;
  CacheHitView hit;
  hit.answers = &e.answers;
  hit.rcode = e.rcode;
  hit.inserted_at = e.inserted_at;
  hit.expires_at = e.expires_at;
  hit.expired = now >= e.expires_at;
  hit.origin = e.origin;
  hit.first_use = e.uses == 1;
  if (hit.expired) ++stats_.expired_hits;
  return hit;
}

std::optional<CacheHit> DnsCache::lookup(const DomainName& qname, RrType qtype, SimTime now) {
  const auto view = lookup_view(qname, qtype, now);
  if (!view) return std::nullopt;
  CacheHit hit;
  hit.answers = *view->answers;
  hit.rcode = view->rcode;
  hit.inserted_at = view->inserted_at;
  hit.expires_at = view->expires_at;
  hit.expired = view->expired;
  hit.origin = view->origin;
  hit.first_use = view->first_use;
  return hit;
}

std::optional<CacheHit> DnsCache::peek(const DomainName& qname, RrType qtype,
                                       SimTime now) const {
  const auto it = map_.find(CacheKey{qname, qtype});
  if (it == map_.end() || now >= slab_[it->second].servable_until) return std::nullopt;
  const Entry& e = slab_[it->second];
  CacheHit hit;
  hit.answers = e.answers;
  hit.rcode = e.rcode;
  hit.inserted_at = e.inserted_at;
  hit.expires_at = e.expires_at;
  hit.expired = now >= e.expires_at;
  hit.origin = e.origin;
  hit.first_use = e.uses == 0;
  return hit;
}

void DnsCache::purge_expired(SimTime now) {
  std::uint32_t idx = lru_head_;
  while (idx != kNil) {
    const std::uint32_t next = slab_[idx].lru_next;
    if (now >= slab_[idx].servable_until) remove_at(idx);
    idx = next;
  }
}

void DnsCache::erase(const DomainName& qname, RrType qtype) {
  const auto it = map_.find(CacheKey{qname, qtype});
  if (it == map_.end()) return;
  remove_at(it->second);
}

void DnsCache::clear() {
  map_.clear();
  slab_.clear();
  free_slots_.clear();
  lru_head_ = kNil;
  lru_tail_ = kNil;
}

void DnsCache::touch(std::uint32_t idx) {
  if (lru_head_ == idx) return;
  lru_unlink(idx);
  lru_push_front(idx);
}

void DnsCache::evict_lru() {
  if (lru_tail_ == kNil) return;
  remove_at(lru_tail_);
  ++stats_.evictions;
}

}  // namespace dnsctx::dns
