#include "util/names.hpp"

#include <mutex>
#include <stdexcept>

namespace dnsctx::util {

NameTable::NameTable() {
  arena_.emplace_back();  // id 0: the empty string
  ids_.emplace(std::string_view{arena_.front()}, NameId{0});
}

NameTable& NameTable::global() {
  static NameTable table;
  return table;
}

NameTable::Stored NameTable::intern_stored(std::string_view s) {
  {
    std::shared_lock lock{mu_};
    if (const auto it = ids_.find(s); it != ids_.end()) return {it->second, &arena_[it->second]};
  }
  std::unique_lock lock{mu_};
  // Re-check: another thread may have interned `s` between the locks.
  if (const auto it = ids_.find(s); it != ids_.end()) return {it->second, &arena_[it->second]};
  const auto id = static_cast<NameId>(arena_.size());
  const std::string& stored = arena_.emplace_back(s);
  ids_.emplace(std::string_view{stored}, id);
  return {id, &stored};
}

std::string_view NameTable::view(NameId id) const {
  std::shared_lock lock{mu_};
  if (id >= arena_.size()) {
    throw std::out_of_range{"NameTable::view: unknown NameId " + std::to_string(id)};
  }
  return std::string_view{arena_[id]};
}

std::size_t NameTable::size() const {
  std::shared_lock lock{mu_};
  return arena_.size();
}

}  // namespace dnsctx::util
