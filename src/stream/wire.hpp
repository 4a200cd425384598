// dnsctx — little-endian wire helpers shared by the segment encoder and
// decoder (headers, payload framing, fixed-width columns). Internal to
// src/stream; not a public surface.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/strings.hpp"

namespace dnsctx::stream::wire {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xff));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian cursor over a segment header or payload
/// frame.
/// Diagnostics name the source (file path), the region being decoded,
/// and the byte offset where the read ran out.
struct Cursor {
  std::string_view bytes;
  std::size_t pos = 0;
  const std::string* source;
  const char* what;

  [[noreturn]] void fail() const {
    throw std::runtime_error{
        strfmt("%s: truncated %s at byte offset %zu (need more than %zu bytes)",
               source->c_str(), what, pos, bytes.size())};
  }

  [[nodiscard]] std::uint8_t u8() {
    if (pos + 1 > bytes.size()) fail();
    return static_cast<std::uint8_t>(bytes[pos++]);
  }
  [[nodiscard]] std::uint16_t u16() {
    const auto lo = u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
  }
  [[nodiscard]] std::uint32_t u32() {
    const auto lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
};

}  // namespace dnsctx::stream::wire
