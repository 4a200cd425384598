// dnsctx — DNS domain names (RFC 1034 §3.1, RFC 1035 §2.3.1).
//
// Names are stored normalised to ASCII lowercase since DNS name matching
// is case-insensitive; the original spelling is not preserved (Bro logs
// normalise the same way).
//
// A DomainName is a 16-byte handle: its id in util::NameTable::global()
// and a pointer to the table's stored text, which never moves. Equality
// and hashing use the id (one integer each); ordering and text() use the
// text, so sorted outputs never depend on id values (see
// util/names.hpp). Every constructor validates first and interns after:
// a rejected name never enters the table.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ip.hpp"
#include "util/names.hpp"

namespace dnsctx::dns {

/// A fully-qualified domain name without the trailing root dot
/// ("www.example.com"). The empty name represents the DNS root.
class DomainName {
 public:
  /// The root: id 0, without touching the table.
  DomainName() = default;

  /// Parse from presentation format. Enforces RFC limits: labels 1..63
  /// octets, total name <= 253 presentation octets, LDH + underscore
  /// charset (underscore occurs in real traffic: _dmarc, DNS-SD, ...).
  /// Returns nullopt on violation.
  [[nodiscard]] static std::optional<DomainName> parse(std::string_view presentation);

  /// Parse or throw std::invalid_argument — for literals known valid.
  [[nodiscard]] static DomainName must(std::string_view presentation);

  /// Build from labels; validated like parse().
  [[nodiscard]] static std::optional<DomainName> from_labels(
      std::span<const std::string_view> labels);

  [[nodiscard]] bool is_root() const { return id_ == 0; }
  [[nodiscard]] std::size_t label_count() const;
  /// The interned text; reading it takes no lock.
  [[nodiscard]] const std::string& text() const { return *text_; }
  /// The name's id in util::NameTable::global(). Ids are handed out
  /// first-come, so their values may place entries in hash tables but
  /// must never decide behaviour or output order.
  [[nodiscard]] util::NameId id() const { return id_; }

  /// Labels left-to-right ("www", "example", "com").
  [[nodiscard]] std::vector<std::string_view> labels() const;

  /// The name with the leftmost label removed; root stays root.
  [[nodiscard]] DomainName parent() const;

  /// True if this name equals `zone` or is below it.
  [[nodiscard]] bool is_within(const DomainName& zone) const;

  /// Registrable-domain approximation: the last two labels (our simulated
  /// universe only uses two-label public suffixes like ".com", ".net").
  [[nodiscard]] DomainName registrable() const;

  [[nodiscard]] friend bool operator==(const DomainName& a, const DomainName& b) {
    return a.id_ == b.id_;
  }
  [[nodiscard]] friend std::strong_ordering operator<=>(const DomainName& a,
                                                        const DomainName& b) {
    return a.text() <=> b.text();
  }

 private:
  /// Intern an already validated, lowercased, non-empty name.
  explicit DomainName(std::string_view normalized);

  static constinit const std::string kRootText;

  util::NameId id_ = 0;
  const std::string* text_ = &kRootText;
};

struct DomainNameHash {
  [[nodiscard]] std::size_t operator()(const DomainName& n) const noexcept {
    return hash_combine(0, n.id());
  }
};

/// Maximum label length in octets (RFC 1035 §2.3.4).
inline constexpr std::size_t kMaxLabelLen = 63;
/// Maximum presentation-format name length we accept.
inline constexpr std::size_t kMaxNameLen = 253;

}  // namespace dnsctx::dns
