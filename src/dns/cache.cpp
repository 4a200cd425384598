#include "dns/cache.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace dnsctx::dns {

// ---- AnswerSet --------------------------------------------------------

static_assert(std::is_trivially_copyable_v<DomainName> && sizeof(DomainName) == 16);
static_assert(std::is_trivially_copyable_v<Ipv4Addr> && sizeof(Ipv4Addr) == 4);

namespace {

constexpr std::size_t kV6 = 16;

/// True when `rr` is an AAAA whose rdata is 16 raw bytes.
[[nodiscard]] bool is_v6(const ResourceRecord& rr) {
  const auto* raw = std::get_if<std::vector<std::uint8_t>>(&rr.rdata);
  return rr.type == RrType::kAaaa && raw != nullptr && raw->size() == kV6;
}

}  // namespace

AnswerSet::AnswerSet(std::span<const ResourceRecord> answers, const DomainName& qname) {
  if (answers.size() > 0xffff) throw std::length_error{"DnsCache: answer set over 65535 records"};
  if (!answers.empty()) ttl_ = std::ranges::min_element(answers, {}, &ResourceRecord::ttl)->ttl;
  // Does the set take the compact form: one TTL, class IN, a CNAME chain
  // from qname, then addresses of one type owned by the chain's end?
  Kind addr_kind = kNone;
  std::size_t n_hops = 0;
  std::size_t n_addrs = 0;
  const DomainName* owner = &qname;
  bool compact = true;
  for (const ResourceRecord& rr : answers) {
    if (rr.klass != RrClass::kIn || rr.ttl != ttl_ || rr.name != *owner) {
      compact = false;
    } else if (rr.type == RrType::kCname && addr_kind == kNone &&
               std::holds_alternative<DomainName>(rr.rdata)) {
      owner = &std::get<DomainName>(rr.rdata);
      ++n_hops;
    } else if (rr.type == RrType::kA && addr_kind != kAaaa &&
               std::holds_alternative<Ipv4Addr>(rr.rdata)) {
      addr_kind = kA;
      ++n_addrs;
    } else if (addr_kind != kA && is_v6(rr)) {
      addr_kind = kAaaa;
      ++n_addrs;
    } else {
      compact = false;
    }
    if (!compact) break;
  }
  if (n_hops > 63) compact = false;  // six bits of shape_

  if (!compact) {
    shape_ = kRecords;
    count_ = static_cast<std::uint16_t>(answers.size());
    // Copy-constructed into raw storage, as a vector copy would be.
    std::allocator<ResourceRecord> alloc;
    ResourceRecord* block = alloc.allocate(answers.size());
    try {
      std::uninitialized_copy(answers.begin(), answers.end(), block);
    } catch (...) {
      alloc.deallocate(block, answers.size());
      throw;
    }
    std::memcpy(data_, &block, sizeof block);
    return;
  }
  shape_ = static_cast<std::uint8_t>(addr_kind | n_hops << 2);
  count_ = static_cast<std::uint16_t>(n_addrs);
  std::byte* out = data_;
  if (compact_bytes() > kInline) {
    out = new std::byte[compact_bytes()];
    std::memcpy(data_, &out, sizeof out);
  }
  for (const ResourceRecord& rr : answers) {
    if (rr.type == RrType::kCname) {
      std::memcpy(out, &std::get<DomainName>(rr.rdata), sizeof(DomainName));
      out += sizeof(DomainName);
    } else if (addr_kind == kA) {
      std::memcpy(out, &std::get<Ipv4Addr>(rr.rdata), sizeof(Ipv4Addr));
      out += sizeof(Ipv4Addr);
    } else {
      std::memcpy(out, std::get<std::vector<std::uint8_t>>(rr.rdata).data(), kV6);
      out += kV6;
    }
  }
}

AnswerSet::AnswerSet(AnswerSet&& other) noexcept { *this = std::move(other); }

AnswerSet& AnswerSet::operator=(AnswerSet&& other) noexcept {
  if (this != &other) {
    clear();
    ttl_ = other.ttl_;
    count_ = other.count_;
    shape_ = other.shape_;
    std::memcpy(data_, other.data_, kInline);
    other.shape_ = kNone;  // the block, if any, changed hands
    other.count_ = 0;
  }
  return *this;
}

std::size_t AnswerSet::compact_bytes() const {
  return hops() * sizeof(DomainName) + count_ * (kind() == kAaaa ? kV6 : sizeof(Ipv4Addr));
}

bool AnswerSet::out_of_line() const { return kind() == kRecords || compact_bytes() > kInline; }

void* AnswerSet::block() const {
  void* p = nullptr;
  std::memcpy(&p, data_, sizeof p);
  return p;
}

const std::byte* AnswerSet::data() const {
  return out_of_line() ? static_cast<const std::byte*>(block()) : data_;
}

void AnswerSet::clear() {
  if (kind() == kRecords) {
    auto* recs = static_cast<ResourceRecord*>(block());
    std::destroy_n(recs, count_);
    std::allocator<ResourceRecord>{}.deallocate(recs, count_);
  } else if (out_of_line()) {
    delete[] static_cast<std::byte*>(block());
  }
  shape_ = kNone;
  count_ = 0;
}

std::size_t AnswerSet::size() const { return kind() == kRecords ? count_ : hops() + count_; }

std::size_t AnswerSet::block_bytes() const {
  if (kind() == kRecords) return count_ * sizeof(ResourceRecord);
  return out_of_line() ? compact_bytes() : 0;
}

void AnswerSet::append_addresses(std::vector<Ipv4Addr>& out) const {
  if (kind() == kRecords) {
    const auto* recs = static_cast<const ResourceRecord*>(block());
    for (std::size_t i = 0; i < count_; ++i) {
      if (recs[i].type != RrType::kA) continue;
      if (const auto* addr = std::get_if<Ipv4Addr>(&recs[i].rdata)) out.push_back(*addr);
    }
    return;
  }
  if (kind() != kA) return;
  const std::byte* p = data() + hops() * sizeof(DomainName);
  const std::size_t first = out.size();
  out.resize(first + count_);
  std::memcpy(out.data() + first, p, count_ * sizeof(Ipv4Addr));
}

std::vector<ResourceRecord> AnswerSet::records(const DomainName& qname) const {
  if (kind() == kRecords) {
    const auto* recs = static_cast<const ResourceRecord*>(block());
    return {recs, recs + count_};
  }
  std::vector<ResourceRecord> out;
  out.reserve(size());
  const std::byte* p = data();
  DomainName owner = qname;
  // Built in place: a temporary record would cost a variant move and a
  // destroy per record.
  for (std::size_t i = 0; i < hops(); ++i, p += sizeof(DomainName)) {
    DomainName target;
    std::memcpy(&target, p, sizeof target);
    out.emplace_back(owner, RrType::kCname, RrClass::kIn, ttl_, target);
    owner = target;
  }
  for (std::size_t i = 0; i < count_; ++i) {
    if (kind() == kA) {
      Ipv4Addr addr;
      std::memcpy(&addr, p, sizeof addr);
      p += sizeof addr;
      out.emplace_back(owner, RrType::kA, RrClass::kIn, ttl_, addr);
    } else {
      const auto* b = reinterpret_cast<const std::uint8_t*>(p);
      p += kV6;
      out.emplace_back(owner, RrType::kAaaa, RrClass::kIn, ttl_,
                       std::vector<std::uint8_t>(b, b + kV6));
    }
  }
  return out;
}

// ---- DnsCache ---------------------------------------------------------

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
  index_.erase(key_of(e.name, e.type));
  block_bytes_ -= e.answers.block_bytes();
  e.answers.clear();
  e.lru_next = free_head_;
  free_head_ = idx;
}

SimTime DnsCache::expires_at(const Entry& e) const {
  std::uint32_t ttl = e.answers.min_ttl();
  if (cfg_.min_ttl_sec) ttl = std::max(ttl, cfg_.min_ttl_sec);
  if (cfg_.max_ttl_sec) ttl = std::min(ttl, cfg_.max_ttl_sec);
  return e.inserted_at + SimDuration::sec(ttl);
}

void DnsCache::insert(const DomainName& qname, RrType qtype,
                      std::span<const ResourceRecord> answers, Rcode rcode, SimTime now,
                      SimDuration extra_hold, CacheOrigin origin) {
  AnswerSet set{answers, qname};
  const std::uint64_t key = key_of(qname.id(), qtype);
  if (const auto it = index_.find(key); it != index_.end()) remove_at(it->second);
  if (index_.size() >= cfg_.capacity && cfg_.capacity > 0) evict_lru();

  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slab_[idx].lru_next;
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Entry& e = slab_[idx];
  e.name = qname.id();
  e.type = qtype;
  e.answers = std::move(set);
  e.rcode = rcode;
  e.inserted_at = now;
  e.servable_until = expires_at(e) + extra_hold + cfg_.max_stale;
  e.origin = origin;
  e.used = false;
  block_bytes_ += e.answers.block_bytes();
  lru_push_front(idx);
  index_[key] = idx;
  ++stats_.insertions;
}

CacheHit DnsCache::view(const Entry& e, const DomainName& qname, SimTime now) const {
  const SimTime expires = expires_at(e);
  return CacheHit{.answers = AnswerView{e.answers, qname},
                  .rcode = e.rcode,
                  .inserted_at = e.inserted_at,
                  .expires_at = expires,
                  .expired = now >= expires,
                  .origin = e.origin,
                  .first_use = false};
}

std::optional<CacheHit> DnsCache::lookup(const DomainName& qname, RrType qtype, SimTime now) {
  const auto it = index_.find(key_of(qname.id(), qtype));
  if (it == index_.end() || now >= slab_[it->second].servable_until) {
    if (it != index_.end()) remove_at(it->second);
    ++stats_.misses;
    return std::nullopt;
  }
  const std::uint32_t idx = it->second;
  touch(idx);
  ++stats_.hits;
  Entry& e = slab_[idx];
  CacheHit hit = view(e, qname, now);
  hit.first_use = !e.used;
  e.used = true;
  if (hit.expired) ++stats_.expired_hits;
  return hit;
}

std::optional<CacheHit> DnsCache::peek(const DomainName& qname, RrType qtype,
                                       SimTime now) const {
  const auto it = index_.find(key_of(qname.id(), qtype));
  if (it == index_.end() || now >= slab_[it->second].servable_until) return std::nullopt;
  const Entry& e = slab_[it->second];
  CacheHit hit = view(e, qname, now);
  hit.first_use = !e.used;
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

CacheBytes DnsCache::bytes() const {
  return CacheBytes{.entries = slab_.capacity() * sizeof(Entry),
                    .index = index_.memory_bytes(),
                    .blocks = block_bytes_};
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
