#include "stream/segment_view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <vector>

#include "stream/segment_v2.hpp"
#include "stream/wire.hpp"
#include "util/names.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {

namespace {

constexpr std::size_t kV2FrameBytes = 9;  // u8 codec id + u64 raw body length

}  // namespace

// ---- Impl ------------------------------------------------------------------

struct SegmentView::Impl {
  std::string source;
  SegmentHeader header;
  SegmentCodec codec_id = SegmentCodec::kNone;

  // Backing storage for the raw blob: exactly one of mmap / owned /
  // borrowed is active. Byte regions are kept as offsets (not pointers)
  // so moving the view never dangles into a moved std::string.
  std::string owned;
  std::string_view borrowed;
  char* map_base = nullptr;
  std::size_t map_len = 0;
  bool use_owned = false;

  // Body: a slice of the blob when stored uncompressed, an owned
  // decompression buffer otherwise.
  std::string decoded_body;
  bool body_is_owned = false;
  std::size_t body_off = 0;
  std::size_t body_len = 0;

  struct Col {
    std::size_t off = 0;  ///< within body()
    std::size_t len = 0;
    std::size_t pos = 0;  ///< cursor: bytes consumed
  };
  std::vector<Col> cols;
  std::vector<util::InternedName> dict;  // dns only
  std::vector<std::uint32_t> addrs;      // address dictionary

  // Cursor state.
  std::uint32_t rec_pos = 0;
  std::int64_t prev_ts = 0;

  ~Impl() {
    if (map_base != nullptr) ::munmap(map_base, map_len);
  }

  [[nodiscard]] std::string_view blob() const {
    if (map_base != nullptr) return {map_base, map_len};
    if (use_owned) return owned;
    return borrowed;
  }
  [[nodiscard]] std::string_view body() const {
    if (body_is_owned) return decoded_body;
    return blob().substr(body_off, body_len);
  }

  [[nodiscard]] const char* col_name(std::size_t ci) const {
    return column_names(header.kind)[ci];
  }

  [[noreturn]] void col_fail(std::size_t ci, const char* what) const {
    throw std::runtime_error{strfmt(
        "%s: %s column '%s': %s at byte offset %zu (record %u)", source.c_str(),
        to_string(header.kind).data(), col_name(ci), what, cols[ci].pos, rec_pos)};
  }

  [[nodiscard]] std::uint64_t col_varint(std::size_t ci) {
    Col& c = cols[ci];
    const char* base = body().data() + c.off;
    const char* p = base + c.pos;
    const auto v = get_varint(&p, base + c.len);
    if (!v) col_fail(ci, "truncated varint");
    c.pos = static_cast<std::size_t>(p - base);
    return *v;
  }
  [[nodiscard]] std::uint8_t col_u8(std::size_t ci) {
    Col& c = cols[ci];
    if (c.pos + 1 > c.len) col_fail(ci, "truncated");
    const auto v = static_cast<std::uint8_t>(body()[c.off + c.pos]);
    c.pos += 1;
    return v;
  }
  [[nodiscard]] std::uint16_t col_u16(std::size_t ci) {
    const auto lo = col_u8(ci);
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(col_u8(ci)) << 8));
  }
  /// A varint that must fit a u32 record field.
  [[nodiscard]] std::uint32_t col_varint32(std::size_t ci) {
    const std::uint64_t v = col_varint(ci);
    if (v > 0xffff'ffffull) col_fail(ci, "value out of range");
    return static_cast<std::uint32_t>(v);
  }
  /// Resolve a varint index through the segment's address dictionary.
  [[nodiscard]] std::uint32_t col_addr(std::size_t ci) {
    const std::uint64_t idx = col_varint(ci);
    if (idx >= addrs.size()) {
      throw std::runtime_error{strfmt(
          "%s: record %u address index %llu out of dictionary range (%zu addresses)",
          source.c_str(), rec_pos, static_cast<unsigned long long>(idx), addrs.size())};
    }
    return addrs[idx];
  }

  /// Advance prev_ts by a delta, rejecting i64 overflow.
  [[nodiscard]] std::int64_t advance_ts(std::uint64_t delta) {
    const auto ts =
        static_cast<std::int64_t>(static_cast<std::uint64_t>(prev_ts) + delta);
    if (ts < prev_ts) {
      throw std::runtime_error{strfmt("%s: record %u: timestamp delta overflows",
                                      source.c_str(), rec_pos)};
    }
    prev_ts = ts;
    return ts;
  }

  void init();
  void parse_v2_framing(std::string_view payload);
  void index_v2();
  void validate();
  void rewind();
  bool next_conn(capture::ConnRecord& out);
  bool next_dns(capture::DnsRecord& out);
  bool next_enc(capture::EncFlowRecord& out);
};

using namespace v2col;

void SegmentView::Impl::init() {
  const std::string_view bytes = blob();
  header = parse_segment_header(bytes, source);
  const std::string_view payload = bytes.substr(kSegmentHeaderBytes);
  if (payload.size() != header.payload_bytes) {
    throw std::runtime_error{
        strfmt("%s: truncated segment payload (%zu of %llu bytes)", source.c_str(),
               payload.size(), static_cast<unsigned long long>(header.payload_bytes))};
  }
  const std::uint32_t crc = crc32(payload);
  if (crc != header.payload_crc32) {
    throw std::runtime_error{strfmt("%s: segment CRC mismatch (stored %08x, computed %08x)",
                                    source.c_str(), header.payload_crc32, crc)};
  }
  parse_v2_framing(payload);
  index_v2();
  validate();
  rewind();
}

void SegmentView::Impl::parse_v2_framing(std::string_view payload) {
  wire::Cursor c{payload, 0, &source, "segment payload"};
  const std::uint8_t raw_codec = c.u8();
  if (raw_codec > static_cast<std::uint8_t>(SegmentCodec::kLz)) {
    throw std::runtime_error{
        strfmt("%s: unknown segment codec id %u", source.c_str(), raw_codec)};
  }
  codec_id = static_cast<SegmentCodec>(raw_codec);
  const std::uint64_t raw_len = c.u64();
  if (raw_len > kMaxRawBodyBytes) {
    throw std::runtime_error{
        strfmt("%s: segment raw body length %llu exceeds limit %llu", source.c_str(),
               static_cast<unsigned long long>(raw_len),
               static_cast<unsigned long long>(kMaxRawBodyBytes))};
  }
  const std::string_view stored = payload.substr(kV2FrameBytes);
  if (codec_id == SegmentCodec::kNone) {
    if (stored.size() != raw_len) {
      throw std::runtime_error{
          strfmt("%s: segment body length mismatch (stored %zu, framed %llu)",
                 source.c_str(), stored.size(), static_cast<unsigned long long>(raw_len))};
    }
    body_off = kSegmentHeaderBytes + kV2FrameBytes;
    body_len = stored.size();
  } else {
    if (!codec(codec_id).decompress(stored, raw_len, decoded_body)) {
      throw std::runtime_error{strfmt("%s: segment body decompression failed (codec %s)",
                                      source.c_str(),
                                      codec(codec_id).name().data())};
    }
    body_is_owned = true;
  }
}

void SegmentView::Impl::index_v2() {
  const std::string_view b = body();
  const char* const base = b.data();
  const char* p = base;
  const char* const end = base + b.size();
  auto offset = [&] { return static_cast<std::size_t>(p - base); };
  auto rd_varint = [&](const char* what) {
    const auto v = get_varint(&p, end);
    if (!v) {
      throw std::runtime_error{strfmt("%s: truncated %s at byte offset %zu",
                                      source.c_str(), what, offset())};
    }
    return *v;
  };

  // Dictionary counts are checked against the bytes left before any
  // reserve(): every name costs at least its length byte, every address
  // at least one byte (four in the head).
  auto truncated_dict = [&](const char* what, std::uint64_t count) {
    return std::runtime_error{
        strfmt("%s: truncated %s: %llu entries, %zu bytes left (byte offset %zu)",
               source.c_str(), what, static_cast<unsigned long long>(count),
               static_cast<std::size_t>(end - p), offset())};
  };

  if (header.kind == RecordKind::kDns) {
    const std::uint64_t dict_count = rd_varint("name dictionary");
    if (dict_count > header.record_count) {
      throw std::runtime_error{
          strfmt("%s: dictionary holds %llu names for %u records", source.c_str(),
                 static_cast<unsigned long long>(dict_count), header.record_count)};
    }
    if (dict_count > static_cast<std::uint64_t>(end - p)) {
      throw truncated_dict("name dictionary", dict_count);
    }
    dict.reserve(dict_count);
    for (std::uint64_t i = 0; i < dict_count; ++i) {
      const std::uint64_t len = rd_varint("name dictionary");
      if (len > 65'535) {
        throw std::runtime_error{
            strfmt("%s: dictionary entry %llu length %llu exceeds 65535", source.c_str(),
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(len))};
      }
      if (len > static_cast<std::uint64_t>(end - p)) {
        throw std::runtime_error{strfmt("%s: truncated name dictionary at byte offset %zu",
                                        source.c_str(), offset())};
      }
      dict.emplace_back(std::string_view{p, static_cast<std::size_t>(len)});
      p += len;
    }
  }

  // Address dictionary: kDictHead raw u32 entries, then ascending
  // varint value-deltas (first relative to 0).
  const std::uint64_t addr_count = rd_varint("address dictionary");
  const std::uint64_t head_count = std::min<std::uint64_t>(addr_count, kDictHead);
  const auto left = static_cast<std::uint64_t>(end - p);
  if (head_count > left / 4 || addr_count - head_count > left - 4 * head_count) {
    throw truncated_dict("address dictionary", addr_count);
  }
  addrs.reserve(addr_count);
  for (std::uint64_t i = 0; i < head_count; ++i) {
    const auto b0 = static_cast<std::uint8_t>(p[0]);
    const auto b1 = static_cast<std::uint8_t>(p[1]);
    const auto b2 = static_cast<std::uint8_t>(p[2]);
    const auto b3 = static_cast<std::uint8_t>(p[3]);
    addrs.push_back(static_cast<std::uint32_t>(b0) | (static_cast<std::uint32_t>(b1) << 8) |
                    (static_cast<std::uint32_t>(b2) << 16) |
                    (static_cast<std::uint32_t>(b3) << 24));
    p += 4;
  }
  std::uint64_t prev_addr = 0;
  for (std::uint64_t i = head_count; i < addr_count; ++i) {
    const std::uint64_t value = prev_addr + rd_varint("address dictionary");
    if (value > 0xffff'ffffull) {
      throw std::runtime_error{
          strfmt("%s: address dictionary entry %llu delta overflows u32 at byte offset %zu",
                 source.c_str(), static_cast<unsigned long long>(i), offset())};
    }
    addrs.push_back(static_cast<std::uint32_t>(value));
    prev_addr = value;
  }

  const std::size_t ncols = column_names(header.kind).size();
  cols.reserve(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    const std::uint64_t len = rd_varint("column table");
    if (len > static_cast<std::uint64_t>(end - p)) {
      throw std::runtime_error{
          strfmt("%s: column '%s' overruns segment body (byte offset %zu)", source.c_str(),
                 col_name(ci), offset())};
    }
    cols.push_back(Col{offset(), static_cast<std::size_t>(len), 0});
    p += len;
  }
  if (p != end) {
    throw std::runtime_error{strfmt("%s: %zu trailing bytes after %zu columns",
                                    source.c_str(), static_cast<std::size_t>(end - p),
                                    ncols)};
  }
}

/// One full decode pass over every record. Runs at construction so the
/// public cursor API can't throw on a validated view; also enforces what
/// the columns alone cannot: exact column consumption and the header's
/// first/last timestamps.
void SegmentView::Impl::validate() {
  rewind();
  auto check_first = [&](SimTime ts) {
    if (rec_pos == 1 && ts != header.first_ts) {
      throw std::runtime_error{strfmt(
          "%s: first record timestamp disagrees with header first_ts", source.c_str())};
    }
  };
  if (header.kind == RecordKind::kConn) {
    capture::ConnRecord scratch;
    while (next_conn(scratch)) check_first(scratch.start);
  } else if (header.kind == RecordKind::kEncFlow) {
    capture::EncFlowRecord scratch;
    while (next_enc(scratch)) check_first(scratch.start);
  } else {
    capture::DnsRecord scratch;
    while (next_dns(scratch)) check_first(scratch.ts);
  }
  for (std::size_t ci = 0; ci < cols.size(); ++ci) {
    if (cols[ci].pos != cols[ci].len) col_fail(ci, "trailing bytes after final record");
  }
  if (header.record_count > 0 && prev_ts != header.last_ts.count_us()) {
    throw std::runtime_error{
        strfmt("%s: last record at %lld us disagrees with header last_ts %lld us",
               source.c_str(), static_cast<long long>(prev_ts),
               static_cast<long long>(header.last_ts.count_us()))};
  }
}

void SegmentView::Impl::rewind() {
  rec_pos = 0;
  for (auto& c : cols) c.pos = 0;
  // Deltas are relative to header.first_ts (the first record's is 0).
  prev_ts = header.first_ts.count_us();
}

bool SegmentView::Impl::next_conn(capture::ConnRecord& out) {
  if (rec_pos == header.record_count) return false;
  out.start = SimTime::from_us(advance_ts(col_varint(kCTs)));
  out.duration = SimDuration::us(zigzag_decode(col_varint(kCDur)));
  out.orig_ip = Ipv4Addr::from_u32(col_addr(kCOrigIp));
  out.resp_ip = Ipv4Addr::from_u32(col_addr(kCRespIp));
  out.orig_port = col_u16(kCOrigPort);
  out.resp_port = col_u16(kCRespPort);
  out.proto = col_u8(kCProto) == 1 ? Proto::kUdp : Proto::kTcp;
  out.state = static_cast<capture::ConnState>(col_u8(kCState));
  out.orig_bytes = col_varint(kCOrigBytes);
  out.resp_bytes = col_varint(kCRespBytes);
  ++rec_pos;
  return true;
}

bool SegmentView::Impl::next_dns(capture::DnsRecord& out) {
  if (rec_pos == header.record_count) return false;
  out.ts = SimTime::from_us(advance_ts(col_varint(kDTs)));
  out.duration = SimDuration::us(zigzag_decode(col_varint(kDDur)));
  out.client_ip = Ipv4Addr::from_u32(col_addr(kDClientIp));
  out.client_port = col_u16(kDClientPort);
  out.resolver_ip = Ipv4Addr::from_u32(col_addr(kDResolverIp));
  const std::uint64_t qtype = col_varint(kDQtype);
  if (qtype > 0xffff) col_fail(kDQtype, "value out of range");
  out.qtype = static_cast<dns::RrType>(static_cast<std::uint16_t>(qtype));
  out.rcode = static_cast<dns::Rcode>(col_u8(kDRcode));
  out.answered = col_u8(kDAnswered) != 0;
  const std::uint64_t name_idx = col_varint(kDNameIdx);
  if (name_idx >= dict.size()) {
    throw std::runtime_error{
        strfmt("%s: record %u name index %llu out of dictionary range (%zu names)",
               source.c_str(), rec_pos, static_cast<unsigned long long>(name_idx),
               dict.size())};
  }
  out.query = dict[name_idx];
  const std::uint64_t answers = col_varint(kDAnswerCount);
  if (answers > 65'535) col_fail(kDAnswerCount, "value out of range");
  out.answers.clear();
  out.answers.reserve(answers);
  for (std::uint64_t i = 0; i < answers; ++i) {
    capture::DnsAnswer a;
    a.addr = Ipv4Addr::from_u32(col_addr(kDAnsAddr));
    a.ttl = static_cast<std::uint32_t>(col_varint(kDAnsTtl));
    out.answers.push_back(a);
  }
  ++rec_pos;
  return true;
}

bool SegmentView::Impl::next_enc(capture::EncFlowRecord& out) {
  if (rec_pos == header.record_count) return false;
  out.start = SimTime::from_us(advance_ts(col_varint(kETs)));
  out.duration = SimDuration::us(zigzag_decode(col_varint(kEDur)));
  out.client_ip = Ipv4Addr::from_u32(col_addr(kEClientIp));
  out.server_ip = Ipv4Addr::from_u32(col_addr(kEServerIp));
  out.client_port = col_u16(kEClientPort);
  out.server_port = col_u16(kEServerPort);
  out.up_msgs = col_varint32(kEUpMsgs);
  out.down_msgs = col_varint32(kEDownMsgs);
  out.up_bytes = col_varint(kEUpBytes);
  out.down_bytes = col_varint(kEDownBytes);
  out.first_up_bytes = col_varint(kEFirstUp);
  out.first_down_bytes = col_varint(kEFirstDown);
  out.pad_aligned_up = col_varint32(kEPadUp);
  out.pad_aligned_down = col_varint32(kEPadDown);
  ++rec_pos;
  return true;
}

// ---- SegmentView -----------------------------------------------------------

SegmentView::SegmentView() = default;
SegmentView::~SegmentView() = default;
SegmentView::SegmentView(SegmentView&&) noexcept = default;
SegmentView& SegmentView::operator=(SegmentView&&) noexcept = default;
SegmentView::SegmentView(std::unique_ptr<Impl> impl) : impl_{std::move(impl)} {}

namespace {
[[nodiscard]] SegmentView::Impl& require(const std::unique_ptr<SegmentView::Impl>& p) {
  if (!p) throw std::logic_error{"SegmentView: empty view"};
  return *p;
}
}  // namespace

SegmentView SegmentView::parse(std::string_view bytes, std::string source) {
  auto impl = std::make_unique<Impl>();
  impl->source = std::move(source);
  impl->borrowed = bytes;
  impl->init();
  return SegmentView{std::move(impl)};
}

SegmentView SegmentView::adopt(std::string blob, std::string source) {
  auto impl = std::make_unique<Impl>();
  impl->source = std::move(source);
  impl->owned = std::move(blob);
  impl->use_owned = true;
  impl->init();
  return SegmentView{std::move(impl)};
}

SegmentView SegmentView::map_file(const std::string& path) { return map_file(path, path); }

SegmentView SegmentView::map_file(const std::string& path, std::string source) {
  auto impl = std::make_unique<Impl>();
  impl->source = std::move(source);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error{"cannot open " + path};
  struct stat st{};
  const bool have_size = ::fstat(fd, &st) == 0 && st.st_size > 0;
  if (have_size) {
    void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    if (p != MAP_FAILED) {
      impl->map_base = static_cast<char*>(p);
      impl->map_len = static_cast<std::size_t>(st.st_size);
    }
  }
  ::close(fd);
  if (impl->map_base == nullptr) {
    // Fallback (empty file, mmap-hostile filesystem): plain read.
    std::ifstream is{path, std::ios::binary};
    if (!is) throw std::runtime_error{"cannot open " + path};
    impl->owned.assign(std::istreambuf_iterator<char>{is},
                       std::istreambuf_iterator<char>{});
    impl->use_owned = true;
  }
  impl->init();
  return SegmentView{std::move(impl)};
}

const SegmentHeader& SegmentView::header() const { return require(impl_).header; }
const std::string& SegmentView::source() const { return require(impl_).source; }
SegmentCodec SegmentView::stored_codec() const { return require(impl_).codec_id; }

bool SegmentView::next(capture::ConnRecord& out) {
  Impl& im = require(impl_);
  if (im.header.kind != RecordKind::kConn) {
    throw std::logic_error{"SegmentView: conn cursor over a dns segment"};
  }
  return im.next_conn(out);
}

bool SegmentView::next(capture::DnsRecord& out) {
  Impl& im = require(impl_);
  if (im.header.kind != RecordKind::kDns) {
    throw std::logic_error{"SegmentView: dns cursor over a conn segment"};
  }
  return im.next_dns(out);
}

bool SegmentView::next(capture::EncFlowRecord& out) {
  Impl& im = require(impl_);
  if (im.header.kind != RecordKind::kEncFlow) {
    throw std::logic_error{"SegmentView: enc cursor over a non-enc segment"};
  }
  return im.next_enc(out);
}

void SegmentView::rewind() { require(impl_).rewind(); }

std::uint64_t SegmentView::deliver(capture::RecordSink& sink) {
  Impl& im = require(impl_);
  std::uint64_t delivered = 0;
  if (im.header.kind == RecordKind::kConn) {
    capture::ConnRecord rec;
    while (im.next_conn(rec)) {
      sink.on_conn(rec);
      ++delivered;
    }
  } else if (im.header.kind == RecordKind::kDns) {
    capture::DnsRecord rec;
    while (im.next_dns(rec)) {
      sink.on_dns(rec);
      ++delivered;
    }
  } else {
    capture::EncFlowRecord rec;
    while (im.next_enc(rec)) {
      sink.on_encflow(rec);
      ++delivered;
    }
  }
  return delivered;
}

}  // namespace dnsctx::stream
