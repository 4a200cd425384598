// dnsctx — global string interning for DNS names and platform labels.
//
// The corpus holds a few thousand DISTINCT hostnames but the simulation
// and the analysis touch them millions of times. Each distinct string is
// interned once into the process-wide NameTable and carried everywhere
// else as a dense 32-bit NameId:
//   * dns::DomainName (dns/name.hpp) is a 16-byte handle — the id plus a
//     pointer to the table's stored string — so the simulation core
//     compares, hashes and copies names as integers, and
//   * InternedName is the bare 4-byte id the capture records and the
//     analysis carry (DnsRecord::query).
// Both use the same table, so a monitor turns a DomainName into an
// InternedName by copying the id. Equality is an integer compare, map
// keys become POD (see util/flat_map.hpp), and the string itself is
// materialized exactly once per distinct name. The table never frees.
//
// NameIds are assigned first-come: with concurrent interners (sharded
// simulation) the id VALUES may differ between runs. Nothing may
// therefore depend on id values — ids are opaque handles that may only
// place entries in hash tables nothing iterates for output; behaviour
// and reports go through the text and sort by string or by observable
// counters.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dnsctx::util {

/// Dense handle to an interned string. 0 is always the empty string.
using NameId = std::uint32_t;

/// Thread-safe append-only string interner. Lookups of already-interned
/// names (the steady state — every record after the first per distinct
/// name) take a shared lock; only a genuinely new string takes the
/// exclusive lock. Views handed out are stable for the table's lifetime
/// (deque arena; strings never move or die).
class NameTable {
 public:
  NameTable();

  /// The process-wide table used by InternedName.
  [[nodiscard]] static NameTable& global();

  /// Intern `s`, returning its dense id (existing id if already known).
  [[nodiscard]] NameId intern(std::string_view s) { return s.empty() ? 0 : intern_stored(s).id; }

  /// An interned string's id and the table's own copy of its text. The
  /// copy never moves or dies, so holders read it without a lock.
  struct Stored {
    NameId id = 0;
    const std::string* text = nullptr;
  };
  /// intern(), also returning the stored string (what dns::DomainName
  /// holds).
  [[nodiscard]] Stored intern_stored(std::string_view s);

  /// Reverse lookup. The view stays valid for the table's lifetime.
  /// Throws std::out_of_range for an id never handed out.
  [[nodiscard]] std::string_view view(NameId id) const;

  /// Number of distinct strings interned (including the empty string).
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::deque<std::string> arena_;  ///< index == NameId; stable storage
  std::unordered_map<std::string_view, NameId> ids_;  ///< views into arena_
};

/// A 4-byte interned string. Implicitly convertible from every string
/// flavor so existing call sites (`rec.query = "conncheck.local"`,
/// `rec.query == cfg.name`) keep reading naturally; comparisons are id
/// compares against the global table.
class InternedName {
 public:
  constexpr InternedName() = default;  ///< the empty string
  InternedName(std::string_view s) : id_{NameTable::global().intern(s)} {}
  InternedName(const char* s) : InternedName{std::string_view{s}} {}
  InternedName(const std::string& s) : InternedName{std::string_view{s}} {}
  [[nodiscard]] static constexpr InternedName from_id(NameId id) {
    InternedName n;
    n.id_ = id;
    return n;
  }

  [[nodiscard]] constexpr NameId id() const { return id_; }
  [[nodiscard]] constexpr bool empty() const { return id_ == 0; }
  constexpr void clear() { id_ = 0; }

  /// The interned characters (stable for the process lifetime).
  [[nodiscard]] std::string_view view() const { return NameTable::global().view(id_); }
  [[nodiscard]] std::string str() const { return std::string{view()}; }

  [[nodiscard]] friend constexpr bool operator==(InternedName a, InternedName b) {
    return a.id_ == b.id_;
  }
  friend std::ostream& operator<<(std::ostream& os, InternedName n) {
    return os << n.view();
  }

 private:
  NameId id_ = 0;
};

}  // namespace dnsctx::util
