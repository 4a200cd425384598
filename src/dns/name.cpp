#include "dns/name.hpp"

#include <cctype>
#include <stdexcept>

namespace dnsctx::dns {

namespace {

[[nodiscard]] bool valid_label_char(char c) {
  const auto u = static_cast<unsigned char>(c);
  return std::isalnum(u) != 0 || c == '-' || c == '_';
}

[[nodiscard]] bool valid_label(std::string_view label) {
  if (label.empty() || label.size() > kMaxLabelLen) return false;
  for (char c : label) {
    if (!valid_label_char(c)) return false;
  }
  return true;
}

}  // namespace

constinit const std::string DomainName::kRootText;

DomainName::DomainName(std::string_view normalized) {
  const auto stored = util::NameTable::global().intern_stored(normalized);
  id_ = stored.id;
  text_ = stored.text;
}

std::optional<DomainName> DomainName::parse(std::string_view presentation) {
  if (!presentation.empty() && presentation.back() == '.') {
    presentation.remove_suffix(1);  // accept FQDN spelling
  }
  if (presentation.empty()) return DomainName{};  // the root
  if (presentation.size() > kMaxNameLen) return std::nullopt;

  std::size_t label_start = 0;
  for (std::size_t i = 0; i <= presentation.size(); ++i) {
    if (i == presentation.size() || presentation[i] == '.') {
      if (!valid_label(presentation.substr(label_start, i - label_start))) return std::nullopt;
      label_start = i + 1;
    }
  }
  char normalized[kMaxNameLen];
  for (std::size_t i = 0; i < presentation.size(); ++i) {
    normalized[i] =
        static_cast<char>(std::tolower(static_cast<unsigned char>(presentation[i])));
  }
  return DomainName{std::string_view{normalized, presentation.size()}};
}

DomainName DomainName::must(std::string_view presentation) {
  auto n = parse(presentation);
  if (!n) throw std::invalid_argument{"invalid domain name: " + std::string{presentation}};
  return *n;
}

std::optional<DomainName> DomainName::from_labels(std::span<const std::string_view> labels) {
  std::string joined;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) joined.push_back('.');
    joined.append(labels[i]);
  }
  return parse(joined);
}

std::size_t DomainName::label_count() const {
  if (is_root()) return 0;
  std::size_t n = 1;
  for (char c : text()) {
    if (c == '.') ++n;
  }
  return n;
}

std::vector<std::string_view> DomainName::labels() const {
  std::vector<std::string_view> out;
  if (is_root()) return out;
  const std::string_view sv{text()};
  std::size_t start = 0;
  for (std::size_t i = 0; i <= sv.size(); ++i) {
    if (i == sv.size() || sv[i] == '.') {
      out.push_back(sv.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

DomainName DomainName::parent() const {
  const std::string_view sv{text()};
  const auto dot = sv.find('.');
  if (dot == std::string_view::npos) return DomainName{};
  return DomainName{sv.substr(dot + 1)};  // a suffix of a valid name is valid
}

bool DomainName::is_within(const DomainName& zone) const {
  if (zone.is_root() || zone == *this) return true;
  const std::string& t = text();
  const std::string& z = zone.text();
  if (t.size() <= z.size()) return false;
  if (t.compare(t.size() - z.size(), z.size(), z) != 0) return false;
  return t[t.size() - z.size() - 1] == '.';
}

DomainName DomainName::registrable() const {
  const std::string_view sv{text()};
  const auto last = sv.rfind('.');
  if (last == std::string_view::npos) return *this;
  const auto second = sv.rfind('.', last - 1);
  if (second == std::string_view::npos) return *this;
  return DomainName{sv.substr(second + 1)};
}

}  // namespace dnsctx::dns
