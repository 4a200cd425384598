#include "util/cli.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

namespace dnsctx {

CliArgs parse_cli(std::span<const char* const> argv) {
  CliArgs out;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() == 2) {
      out.positionals.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    if (const auto eq = body.find('='); eq != std::string::npos) {
      out.options[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    const bool next_is_value =
        i + 1 < argv.size() && std::string{argv[i + 1]}.rfind("--", 0) != 0;
    if (next_is_value) {
      out.options[body] = argv[++i];
    } else {
      out.flags.insert(body);
    }
  }
  return out;
}

long long CliArgs::int_option_or(const std::string& name, long long fallback) const {
  const auto v = option(name);
  if (!v) return fallback;
  long long parsed = 0;
  const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), parsed);
  if (ec != std::errc{} || ptr != v->data() + v->size()) {
    throw std::runtime_error{strfmt("--%s expects an integer, got '%s'", name.c_str(),
                                    v->c_str())};
  }
  return parsed;
}

long long CliArgs::int_option_in(const std::string& name, long long fallback, long long lo,
                                 long long hi) const {
  const long long v = int_option_or(name, fallback);
  if (v < lo || v > hi) {
    throw std::runtime_error{
        hi == std::numeric_limits<long long>::max()
            ? strfmt("--%s must be at least %lld, got %lld", name.c_str(), lo, v)
            : strfmt("--%s must be in [%lld, %lld], got %lld", name.c_str(), lo, hi, v)};
  }
  return v;
}

std::vector<std::string> CliArgs::unknown_keys(const std::set<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options) {
    if (!known.contains(key)) out.push_back(key);
  }
  for (const auto& key : flags) {
    if (!known.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace dnsctx
