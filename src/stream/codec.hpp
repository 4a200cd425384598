// dnsctx — varint primitives and pluggable block codecs for spool v2.
//
// Spool format v2 (docs/FORMAT.md) stores segment payloads as columnar
// blocks whose integer columns are LEB128 varints (7 bits per byte, LSB
// first, high bit = continuation). Signed values that can be negative
// (durations) are zigzag-mapped first so small magnitudes of either sign
// stay short.
//
// The whole column block may additionally be compressed through a
// BlockCodec. Codecs are identified by a one-byte id stored in the v2
// payload framing, so new codecs can be added without a format-version
// bump; readers reject unknown ids loudly. The built-in `lz` codec is a
// dependency-free LZ77 byte compressor (LZ4-style block layout: token
// byte, literal run, 16-bit offset, match run) chosen because columnar
// segment data is dominated by small repeating integers. Its encoder is
// a greedy single-probe match finder (one hash slot per 5-byte prefix,
// as in LZ4's fast mode); its decompressor is strictly bounds-checked —
// it is a fuzz target, and serve feeds it bytes straight off the network.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dnsctx::stream {

// ---- varints ---------------------------------------------------------------

/// Append `v` as a LEB128 varint (1–10 bytes).
void put_varint(std::string& out, std::uint64_t v);

/// Decode a varint from [*p, end). Advances *p past the encoding and
/// returns the value, or std::nullopt on truncation or an encoding
/// longer than 10 bytes (*p is then unspecified).
[[nodiscard]] std::optional<std::uint64_t> get_varint(const char** p, const char* end);

/// Zigzag map: 0,-1,1,-2,... → 0,1,2,3,... so small negatives stay short.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// ---- block codecs ----------------------------------------------------------

/// Wire ids are part of the v2 format; never renumber.
enum class SegmentCodec : std::uint8_t { kNone = 0, kLz = 1 };

class BlockCodec {
 public:
  virtual ~BlockCodec() = default;

  [[nodiscard]] virtual SegmentCodec id() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Compress `raw` into `out` (replacing its contents). Deterministic:
  /// identical input yields identical output.
  virtual void compress(std::string_view raw, std::string& out) const = 0;

  /// Decompress `comp` into `out` (replacing its contents). `raw_len` is
  /// the expected decompressed size from the segment framing. Returns
  /// false on any malformed input — truncated runs, offsets pointing
  /// before the output start, or a final size != raw_len — without ever
  /// reading or writing out of bounds.
  [[nodiscard]] virtual bool decompress(std::string_view comp, std::size_t raw_len,
                                        std::string& out) const = 0;
};

/// The codec registered for `id`. Throws std::runtime_error for an
/// unknown id (message names the numeric id so segment parsers can
/// simply prepend their source).
[[nodiscard]] const BlockCodec& codec(SegmentCodec id);

/// Name → codec id ("none", "lz"); nullopt for unknown names.
[[nodiscard]] std::optional<SegmentCodec> codec_by_name(std::string_view name);

}  // namespace dnsctx::stream
