#include "stream/codec.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/strings.hpp"

namespace dnsctx::stream {

// ---- varints ---------------------------------------------------------------

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::optional<std::uint64_t> get_varint(const char** p, const char* end) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (*p >= end) return std::nullopt;
    const auto byte = static_cast<std::uint8_t>(*(*p)++);
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (shift == 63 && byte > 1) return std::nullopt;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return std::nullopt;
}

// ---- lz codec --------------------------------------------------------------

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxHashBits = 16;
constexpr std::size_t kMinHashBits = 8;
constexpr std::size_t kMaxOffset = 65'535;
// LZ4-style end-of-block rules: the last 5 bytes are always literals,
// no match starts in the last 12 bytes, and inputs shorter than 13
// bytes are emitted as a single literal run.
constexpr std::size_t kEndLiterals = 5;
constexpr std::size_t kMatchStartLimit = 12;
constexpr std::size_t kMinCompressInput = 13;
// After 2^kSkipTrigger consecutive misses the scan advances two bytes
// per probe, then three, ... so incompressible stretches cost little.
constexpr unsigned kSkipTrigger = 6;

[[nodiscard]] std::uint32_t load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

[[nodiscard]] std::uint64_t load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Hash of the five bytes at `p`, as LZ4 hashes for large tables. On
/// spool bodies it finds fewer, longer matches than a four-byte key,
/// which speeds up both directions (docs/PERF.md §12).
[[nodiscard]] std::uint32_t hash5(const char* p, std::size_t bits) {
  const std::uint64_t v = load64(p);
  const std::uint64_t key = std::endian::native == std::endian::little
                                ? (v << 24) * 889'523'592'379ull
                                : (v >> 24) * 11'400'714'785'074'694'791ull;
  return static_cast<std::uint32_t>(key >> (64 - bits));
}

/// Length of the common prefix of `a` and `b` (b < a), stopping at
/// `limit` on a's side.
[[nodiscard]] std::size_t match_length(const char* a, const char* b, const char* limit) {
  const char* const start = a;
  while (a + 8 <= limit) {
    const std::uint64_t diff = load64(a) ^ load64(b);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                   : std::countl_zero(diff);
      return static_cast<std::size_t>(a - start) + static_cast<std::size_t>(bits / 8);
    }
    a += 8;
    b += 8;
  }
  while (a < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

class NoneCodec final : public BlockCodec {
 public:
  [[nodiscard]] SegmentCodec id() const override { return SegmentCodec::kNone; }
  [[nodiscard]] std::string_view name() const override { return "none"; }

  void compress(std::string_view raw, std::string& out) const override {
    out.assign(raw.data(), raw.size());
  }

  [[nodiscard]] bool decompress(std::string_view comp, std::size_t raw_len,
                                std::string& out) const override {
    if (comp.size() != raw_len) return false;
    out.assign(comp.data(), comp.size());
    return true;
  }
};

class LzCodec final : public BlockCodec {
 public:
  [[nodiscard]] SegmentCodec id() const override { return SegmentCodec::kLz; }
  [[nodiscard]] std::string_view name() const override { return "lz"; }

  void compress(std::string_view raw, std::string& out) const override {
    out.clear();
    const char* src = raw.data();
    const std::size_t n = raw.size();
    out.reserve(n + n / 255 + 16);

    auto emit_run = [&out](std::size_t extra) {
      while (extra >= 255) {
        out.push_back(static_cast<char>(0xff));
        extra -= 255;
      }
      out.push_back(static_cast<char>(extra));
    };
    // match_len == 0 marks the final literals-only sequence.
    auto emit_sequence = [&](std::size_t lit_len, const char* lits, std::size_t match_len,
                             std::size_t offset) {
      const std::size_t ml = match_len > 0 ? match_len - kMinMatch : 0;
      const auto token = static_cast<char>(((lit_len < 15 ? lit_len : 15) << 4) |
                                           (ml < 15 ? ml : 15));
      out.push_back(token);
      if (lit_len >= 15) emit_run(lit_len - 15);
      out.append(lits, lit_len);
      if (match_len > 0) {
        out.push_back(static_cast<char>(offset & 0xff));
        out.push_back(static_cast<char>(offset >> 8));
        if (ml >= 15) emit_run(ml - 15);
      }
    };

    std::size_t anchor = 0;
    if (n >= kMinCompressInput) {
      // One slot per hash, holding the last position that hashed there.
      // The table is sized to the input (a slot per two bytes, at most
      // 2^16 slots) so small blocks don't pay to zero one built for
      // megabyte bodies. A 32-way bucket with lazy matching found
      // 2-9 % fewer bytes on spool bodies at 15-60x the time
      // (docs/PERF.md §12).
      std::size_t hash_bits = kMinHashBits;
      while (hash_bits < kMaxHashBits && (std::size_t{1} << hash_bits) < n / 2) ++hash_bits;
      std::vector<std::uint32_t> table(std::size_t{1} << hash_bits, 0);
      const std::size_t scan_end = n - kMatchStartLimit;
      const char* const match_limit = src + n - kEndLiterals;
      // Every hashed position is below scan_end, so its 8-byte load
      // stays inside the input.
      auto slot = [&](std::size_t pos) -> std::uint32_t& {
        return table[hash5(src + pos, hash_bits)];
      };

      // The zeroed table points every slot at position 0, a real
      // candidate like any other: the 4-byte compare decides.
      std::size_t i = 1;
      while (i < scan_end) {
        // Probe one slot per position; stride forward after runs of misses.
        std::size_t cand = 0;
        std::size_t misses = std::size_t{1} << kSkipTrigger;
        bool found = false;
        while (i < scan_end) {
          std::uint32_t& s = slot(i);
          cand = s;
          s = static_cast<std::uint32_t>(i);
          if (i - cand <= kMaxOffset && load32(src + cand) == load32(src + i)) {
            found = true;
            break;
          }
          i += misses++ >> kSkipTrigger;
        }
        if (!found) break;
        // Extend the match backward into pending literals: the probe only
        // sees hashed starting positions, so it routinely lands late.
        while (i > anchor && cand > 0 && src[i - 1] == src[cand - 1]) {
          --i;
          --cand;
        }
        // A match can follow another directly; emit each with the
        // literals pending before it.
        for (;;) {
          const std::size_t len =
              kMinMatch + match_length(src + i + kMinMatch, src + cand + kMinMatch, match_limit);
          emit_sequence(i - anchor, src + anchor, len, i - cand);
          i += len;
          anchor = i;
          if (i >= scan_end) break;
          // Seed the table just behind the match end, then try the
          // current position before resuming the scan.
          slot(i - 2) = static_cast<std::uint32_t>(i - 2);
          std::uint32_t& s = slot(i);
          cand = s;
          s = static_cast<std::uint32_t>(i);
          if (i - cand > kMaxOffset || load32(src + cand) != load32(src + i)) break;
        }
        ++i;
      }
    }
    emit_sequence(n - anchor, src + anchor, 0, 0);
  }

  [[nodiscard]] bool decompress(std::string_view comp, std::size_t raw_len,
                                std::string& out) const override {
    out.clear();
    out.reserve(raw_len);
    const char* p = comp.data();
    const char* const end = p + comp.size();
    auto read_run = [&](std::size_t base) -> std::optional<std::size_t> {
      std::size_t v = base;
      if (base == 15) {
        std::uint8_t b;
        do {
          if (p >= end) return std::nullopt;
          b = static_cast<std::uint8_t>(*p++);
          v += b;
        } while (b == 0xff);
      }
      return v;
    };
    while (p < end) {
      const auto token = static_cast<std::uint8_t>(*p++);
      const auto lit_len = read_run(token >> 4);
      if (!lit_len) return false;
      if (*lit_len > static_cast<std::size_t>(end - p) ||
          out.size() + *lit_len > raw_len) {
        return false;
      }
      out.append(p, *lit_len);
      p += *lit_len;
      if (p == end) break;  // final literals-only sequence
      if (end - p < 2) return false;
      const std::size_t offset = static_cast<std::uint8_t>(p[0]) |
                                 (static_cast<std::size_t>(static_cast<std::uint8_t>(p[1]))
                                  << 8);
      p += 2;
      if (offset == 0 || offset > out.size()) return false;
      const auto ml = read_run(token & 0x0f);
      if (!ml) return false;
      const std::size_t match_len = *ml + kMinMatch;
      if (out.size() + match_len > raw_len) return false;
      // Byte-at-a-time on purpose: offset < match_len overlaps (run
      // replication), which memcpy would corrupt.
      std::size_t from = out.size() - offset;
      for (std::size_t k = 0; k < match_len; ++k) out.push_back(out[from + k]);
    }
    return out.size() == raw_len;
  }
};

const NoneCodec g_none;
const LzCodec g_lz;

}  // namespace

const BlockCodec& codec(SegmentCodec id) {
  switch (id) {
    case SegmentCodec::kNone:
      return g_none;
    case SegmentCodec::kLz:
      return g_lz;
  }
  throw std::runtime_error{
      strfmt("unknown segment codec id %u", static_cast<unsigned>(id))};
}

std::optional<SegmentCodec> codec_by_name(std::string_view name) {
  if (name == "none") return SegmentCodec::kNone;
  if (name == "lz") return SegmentCodec::kLz;
  return std::nullopt;
}

}  // namespace dnsctx::stream
