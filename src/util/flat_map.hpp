// dnsctx — open-addressing hash containers for the per-record hot paths.
//
// FlatMap is a power-of-two, linear-probe table over one dense
// std::vector<std::pair<K,V>> plus a byte-per-slot occupancy array: no
// per-node allocation, no bucket pointer chasing, and erase() uses
// backward-shift deletion so the table never accumulates tombstones
// (probe lengths depend only on the current load, not on history).
// Growth doubles at 80% load. Keys are expected to be small trivially
// copyable values (integers, Ipv4Addr, NameId, dns::DomainName handles,
// small structs of these); values must be default-constructible and
// movable. Iteration order is an implementation detail — anything
// user-visible must sort first, same as with std::unordered_map.
//
// A key's home slot is `hash & (capacity - 1)`, so a key hash's LOW bits
// must depend on every field of the key. A hash that shifts a field
// upward (`port << 17`) or multiplies it in last (FNV) leaves keys that
// differ only in that field on one home slot, and probes then grow with
// the key count. Composite keys pack their fields into 64-bit words and
// pass each word through hash_combine (util/ip.hpp), as FiveTupleHash,
// the NAT keys and dns::CacheKeyHash do.
//
// Invariants (see docs/PERF.md):
//   - capacity is 0 or a power of two; load factor ≤ 0.8,
//   - every element sits within a contiguous (wrapping) probe run from
//     its home slot: lookup stops at the first empty slot,
//   - erase backward-shifts the following run, so the invariant above
//     survives deletions without tombstones.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ip.hpp"

namespace dnsctx::util {

/// Default hasher: splitmix64-finalize integral keys (sequential ids —
/// NameIds, house indices — would otherwise cluster probe runs), defer
/// to std::hash for anything else.
template <class K>
struct FlatHash {
  [[nodiscard]] std::size_t operator()(const K& k) const noexcept {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return hash_combine(0, static_cast<std::uint64_t>(k));
    } else {
      return std::hash<K>{}(k);
    }
  }
};

template <>
struct FlatHash<Ipv4Addr> {
  [[nodiscard]] std::size_t operator()(const Ipv4Addr& a) const noexcept {
    return hash_combine(0, a.to_u32());
  }
};

template <class K, class V, class Hash = FlatHash<K>, class Eq = std::equal_to<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;

  template <bool Const>
  class Iter {
   public:
    using value_type = std::pair<K, V>;
    using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

    using iterator_category = std::forward_iterator_tag;
    using difference_type = std::ptrdiff_t;
    using pointer = Ptr;
    using reference = Ref;

    Iter() = default;
    Iter(Owner* owner, std::size_t idx) : owner_{owner}, idx_{idx} { skip(); }
    /// const_iterator from iterator.
    template <bool C = Const, class = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : owner_{other.owner_}, idx_{other.idx_} {}

    [[nodiscard]] Ref operator*() const { return owner_->slots_[idx_]; }
    [[nodiscard]] Ptr operator->() const { return &owner_->slots_[idx_]; }
    Iter& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    [[nodiscard]] bool operator==(const Iter& o) const { return idx_ == o.idx_; }
    [[nodiscard]] bool operator!=(const Iter& o) const { return idx_ != o.idx_; }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;
    void skip() {
      while (owner_ != nullptr && idx_ < owner_->used_.size() && owner_->used_[idx_] == 0) {
        ++idx_;
      }
    }
    Owner* owner_ = nullptr;
    std::size_t idx_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Heap bytes of the table, counted from its vectors' capacities.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(value_type) + used_.capacity();
  }

  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, slots_.size()}; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, slots_.size()}; }

  void clear() {
    slots_.clear();
    used_.clear();
    size_ = 0;
  }

  /// Pre-size so that `n` elements fit without a rehash.
  void reserve(std::size_t n) {
    if (n == 0) return;
    std::size_t cap = 8;
    while (cap * 4 < n * 5) cap <<= 1;  // cap * 0.8 >= n
    if (cap > slots_.size()) rehash(cap);
  }

  [[nodiscard]] iterator find(const K& key) {
    const std::size_t idx = locate(key);
    return idx == npos ? end() : iterator{this, idx};
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    const std::size_t idx = locate(key);
    return idx == npos ? end() : const_iterator{this, idx};
  }
  [[nodiscard]] bool contains(const K& key) const { return locate(key) != npos; }
  [[nodiscard]] std::size_t count(const K& key) const { return locate(key) == npos ? 0 : 1; }

  [[nodiscard]] V& operator[](const K& key) { return slots_[slot_for(key).first].second; }

  [[nodiscard]] V& at(const K& key) {
    const std::size_t idx = locate(key);
    if (idx == npos) throw std::out_of_range{"FlatMap::at: key not found"};
    return slots_[idx].second;
  }
  [[nodiscard]] const V& at(const K& key) const {
    const std::size_t idx = locate(key);
    if (idx == npos) throw std::out_of_range{"FlatMap::at: key not found"};
    return slots_[idx].second;
  }

  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const auto [idx, inserted] = slot_for(key, std::forward<Args>(args)...);
    return {iterator{this, idx}, inserted};
  }

  std::pair<iterator, bool> insert(const value_type& kv) {
    return try_emplace(kv.first, kv.second);
  }

  /// Erase by key. Backward-shift: re-seat the following probe run so no
  /// tombstone is left behind. Returns the number of erased elements.
  std::size_t erase(const K& key) {
    std::size_t idx = locate(key);
    if (idx == npos) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = idx;
    std::size_t next = (hole + 1) & mask;
    while (used_[next] != 0) {
      const std::size_t home = hash_(slots_[next].first) & mask;
      // Move `next` into the hole iff its home slot does not sit inside
      // (hole, next] — i.e. the element's probe run passes the hole.
      const bool reachable = ((next - home) & mask) >= ((next - hole) & mask);
      if (reachable) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    slots_[hole] = value_type{};
    used_[hole] = 0;
    --size_;
    return 1;
  }

  /// Current load (size / capacity); 0 for the empty table. Diagnostic —
  /// the growth policy keeps this ≤ 0.8.
  [[nodiscard]] double load_factor() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(size_) / static_cast<double>(slots_.size());
  }

  /// Longest current probe distance (diagnostic; tests bound it).
  [[nodiscard]] std::size_t max_probe_length() const {
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t worst = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i] == 0) continue;
      const std::size_t home = hash_(slots_[i].first) & mask;
      worst = std::max(worst, (i - home) & mask);
    }
    return worst;
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t locate(const K& key) const {
    if (slots_.empty()) return npos;
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = hash_(key) & mask;
    while (used_[idx] != 0) {
      if (eq_(slots_[idx].first, key)) return idx;
      idx = (idx + 1) & mask;
    }
    return npos;
  }

  /// Find-or-insert; returns {slot index, inserted}.
  template <class... Args>
  std::pair<std::size_t, bool> slot_for(const K& key, Args&&... args) {
    if (slots_.empty() || (size_ + 1) * 5 > slots_.size() * 4) {
      rehash(slots_.empty() ? 8 : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = hash_(key) & mask;
    while (used_[idx] != 0) {
      if (eq_(slots_[idx].first, key)) return {idx, false};
      idx = (idx + 1) & mask;
    }
    slots_[idx] = value_type{key, V{std::forward<Args>(args)...}};
    used_[idx] = 1;
    ++size_;
    return {idx, true};
  }

  void rehash(std::size_t new_cap) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    // resize (not assign) so move-only values (e.g. unique_ptr) work:
    // fresh slots are default-constructed, never copied from a template.
    slots_.clear();
    slots_.resize(new_cap);
    used_.assign(new_cap, 0);
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_used[i] == 0) continue;
      std::size_t idx = hash_(old_slots[i].first) & mask;
      while (used_[idx] != 0) idx = (idx + 1) & mask;
      slots_[idx] = std::move(old_slots[i]);
      used_[idx] = 1;
    }
  }

  std::vector<value_type> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_{};
  [[no_unique_address]] Eq eq_{};
};

/// Set counterpart (dense open addressing over bare keys). Only the
/// operations the tallies need: insert, contains, size, iterate, merge.
template <class K, class Hash = FlatHash<K>, class Eq = std::equal_to<K>>
class FlatSet {
 public:
  using iterator = typename FlatMap<K, char, Hash, Eq>::const_iterator;

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  /// Returns true when the key was newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  [[nodiscard]] bool contains(const K& key) const { return map_.contains(key); }
  std::size_t erase(const K& key) { return map_.erase(key); }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& kv : map_) fn(kv.first);
  }

 private:
  FlatMap<K, char, Hash, Eq> map_;
};

}  // namespace dnsctx::util
