// dnsctx — IPv4 addressing and transport 5-tuples.
//
// The simulated network is IPv4-only (the paper's analysis keys on A
// records; AAAA handling in the codec exists but the traffic model emits
// v4). Addresses are a strong wrapper over a host-order u32.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace dnsctx {

/// An IPv4 address (host byte order internally).
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;

  /// From dotted-quad octets: Ipv4Addr{8,8,8,8}.
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : v_{(static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
           (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d)} {}

  [[nodiscard]] static constexpr Ipv4Addr from_u32(std::uint32_t v) {
    Ipv4Addr a;
    a.v_ = v;
    return a;
  }

  /// Parse "a.b.c.d"; returns nullopt on malformed input.
  [[nodiscard]] static std::optional<Ipv4Addr> parse(std::string_view s);

  [[nodiscard]] constexpr std::uint32_t to_u32() const { return v_; }
  [[nodiscard]] constexpr bool is_unspecified() const { return v_ == 0; }
  [[nodiscard]] std::string to_string() const;

  constexpr auto operator<=>(const Ipv4Addr&) const = default;

 private:
  std::uint32_t v_ = 0;
};

/// Transport protocol of a simulated flow.
enum class Proto : std::uint8_t { kTcp, kUdp };

[[nodiscard]] constexpr std::string_view to_string(Proto p) {
  return p == Proto::kTcp ? "tcp" : "udp";
}

/// Classic connection 5-tuple. `orig` is the initiator side.
struct FiveTuple {
  Ipv4Addr orig_ip;
  Ipv4Addr resp_ip;
  std::uint16_t orig_port = 0;
  std::uint16_t resp_port = 0;
  Proto proto = Proto::kTcp;

  constexpr auto operator<=>(const FiveTuple&) const = default;

  /// The same flow seen from the responder's perspective (for matching
  /// reply packets to the tracked connection).
  [[nodiscard]] constexpr FiveTuple reversed() const {
    return FiveTuple{resp_ip, orig_ip, resp_port, orig_port, proto};
  }
};

/// Ports below this value are IANA "reserved" / well-known for the paper's
/// high-port heuristic (§5.1 uses non-reserved on both ends as a P2P mark).
inline constexpr std::uint16_t kReservedPortLimit = 1024;

/// Mix a value into a running hash (splitmix64 finalizer over the sum).
/// Unlike the classic multiply-xor combiners, every input bit diffuses
/// into every output bit, so composite keys built from structured data
/// (addresses, ports, ids) don't cluster hash buckets.
[[nodiscard]] constexpr std::size_t hash_combine(std::size_t seed, std::uint64_t value) {
  std::uint64_t x = static_cast<std::uint64_t>(seed) + 0x9e3779b97f4a7c15ULL + value;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

/// Packs the tuple into two words and mixes both, so every field —
/// ports included — reaches the low bits a power-of-two table indexes
/// with.
struct FiveTupleHash {
  [[nodiscard]] std::size_t operator()(const FiveTuple& t) const noexcept {
    const std::uint64_t ips =
        static_cast<std::uint64_t>(t.orig_ip.to_u32()) << 32 | t.resp_ip.to_u32();
    const std::uint64_t rest = static_cast<std::uint64_t>(t.orig_port) << 24 |
                               static_cast<std::uint64_t>(t.resp_port) << 8 |
                               static_cast<std::uint64_t>(t.proto);
    return hash_combine(hash_combine(0, ips), rest);
  }
};

struct Ipv4Hash {
  [[nodiscard]] std::size_t operator()(const Ipv4Addr& a) const noexcept {
    std::uint64_t x = a.to_u32();
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

}  // namespace dnsctx
