// dnsctx — minimal command-line argument parsing for the tools.
//
// Grammar: positional tokens, `--key value`, `--key=value`, and bare
// `--flag`. A `--key` followed by another `--token` (or nothing) parses
// as a flag. No registration step: callers query what they need and can
// reject leftovers explicitly.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace dnsctx {

struct CliArgs {
  std::vector<std::string> positionals;
  std::map<std::string, std::string> options;  ///< --key value / --key=value
  std::set<std::string> flags;                 ///< bare --key

  [[nodiscard]] bool has_flag(const std::string& name) const { return flags.contains(name); }

  [[nodiscard]] std::optional<std::string> option(const std::string& name) const {
    const auto it = options.find(name);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::string option_or(const std::string& name, std::string fallback) const {
    return option(name).value_or(std::move(fallback));
  }

  /// Numeric option with default; throws std::runtime_error naming the
  /// option on malformed input.
  [[nodiscard]] long long int_option_or(const std::string& name, long long fallback) const;
  /// int_option_or that also throws, naming the option, when the value
  /// lies outside [lo, hi].
  [[nodiscard]] long long int_option_in(
      const std::string& name, long long fallback, long long lo,
      long long hi = std::numeric_limits<long long>::max()) const;

  /// Names of options/flags not in `known` (for strict validation).
  [[nodiscard]] std::vector<std::string> unknown_keys(const std::set<std::string>& known) const;

  /// Strict check for a tool that knows its whole command line: every
  /// --key is in `valued` and has a value, or in `bare` and has none,
  /// and there are at most `max_positionals` positionals. Returns a
  /// message naming the first offending flag or argument, or nullopt.
  [[nodiscard]] std::optional<std::string> misuse(const std::set<std::string>& valued,
                                                  const std::set<std::string>& bare,
                                                  std::size_t max_positionals) const {
    for (const auto& [key, value] : options) {
      if (bare.contains(key)) return "--" + key + " takes no value";
      if (!valued.contains(key)) return "unknown option --" + key;
    }
    for (const auto& key : flags) {
      if (valued.contains(key)) return "--" + key + " expects a value";
      if (!bare.contains(key)) return "unknown option --" + key;
    }
    if (positionals.size() > max_positionals) {
      return "unexpected argument '" + positionals[max_positionals] + "'";
    }
    return std::nullopt;
  }
};

/// Parse argv[1..]; never throws.
[[nodiscard]] CliArgs parse_cli(std::span<const char* const> argv);

}  // namespace dnsctx
