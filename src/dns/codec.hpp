// dnsctx — RFC 1035 §4.1 wire-format codec with §4.1.4 name compression.
//
// The simulation passes DnsMessage structures, not bytes (dns/lazy.hpp):
// the passive monitor reads the message a Bro/Zeek worker would have
// parsed. The codec sizes messages: DoT/DoH padding goes by the encoded
// size, and truncate_for_udp decides classic UDP truncation. The decoder
// serves tests and fuzzers, and is written for untrusted input: every
// offset is bounds-checked and compression-pointer chains are
// cycle-limited.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/message.hpp"

namespace dnsctx::dns {

/// Encode a message to wire bytes, compressing repeated name suffixes.
/// Throws std::invalid_argument if a section exceeds 65535 entries or a
/// name/rdata cannot be represented.
[[nodiscard]] std::vector<std::uint8_t> encode(const DnsMessage& msg);

/// Decode wire bytes. Returns nullopt on malformed input and, when
/// `error` is non-null, a short reason for the benefit of monitor
/// diagnostics ("weird" records in Bro parlance).
[[nodiscard]] std::optional<DnsMessage> decode(std::span<const std::uint8_t> wire,
                                               std::string* error = nullptr);

/// Wire size of the encoded form (convenience for byte accounting).
[[nodiscard]] std::size_t encoded_size(const DnsMessage& msg);

/// Classic DNS-over-UDP payload limit without EDNS (RFC 1035 §4.2.1).
inline constexpr std::size_t kUdpPayloadLimit = 512;

/// RFC 1035 §4.2.2 truncation: if `msg` encodes beyond `limit`, return a
/// TC-flagged copy with every record section emptied (the questions are
/// kept); otherwise return `msg` unchanged.
[[nodiscard]] DnsMessage truncate_for_udp(const DnsMessage& msg,
                                          std::size_t limit = kUdpPayloadLimit);

}  // namespace dnsctx::dns
