#include "stream/segment_v2.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "stream/wire.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {

using namespace v2col;

namespace {

/// Dictionary storage order: the kDictHead most-referenced entries
/// first (hot values get 1-byte indices), then the rest in `tail_less`
/// order so the dictionary bytes themselves compress. Frequency ties
/// break toward first appearance to keep the writer deterministic.
/// Returns the permutation as storage order (new index -> old index).
template <typename TailLess>
std::vector<std::uint32_t> dict_order(const std::vector<std::uint32_t>& refs,
                                      TailLess tail_less) {
  std::vector<std::uint32_t> order(refs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&refs](std::uint32_t a, std::uint32_t b) {
    return refs[a] != refs[b] ? refs[a] > refs[b] : a < b;
  });
  if (order.size() > kDictHead) {
    std::sort(order.begin() + kDictHead, order.end(), tail_less);
  }
  return order;
}

/// Rewrite a column of varint dictionary indices through `new_of_old`.
void remap_index_column(std::string& col, const std::vector<std::uint32_t>& new_of_old) {
  std::string out;
  out.reserve(col.size());
  const char* p = col.data();
  const char* const end = p + col.size();
  while (p < end) {
    const auto idx = get_varint(&p, end);
    put_varint(out, new_of_old[static_cast<std::size_t>(*idx)]);
  }
  col = std::move(out);
}

}  // namespace

SegmentBuilderV2::SegmentBuilderV2(RecordKind kind, SegmentCodec codec)
    : kind_{kind}, codec_{codec} {
  cols_.resize(column_names(kind_).size());
}

void SegmentBuilderV2::start_record(RecordKind kind, std::int64_t ts_us) {
  if (kind != kind_) {
    throw std::logic_error{strfmt("SegmentBuilderV2: %s record added to a %s builder",
                                  to_string(kind).data(), to_string(kind_).data())};
  }
  if (count_ == 0) {
    first_ts_ = ts_us;
    prev_ts_ = ts_us;
  } else if (ts_us < prev_ts_) {
    throw std::runtime_error{
        strfmt("segment builder: %s record at %lld us arrived after %lld us; segment "
               "input must be time-sorted",
               to_string(kind_).data(), static_cast<long long>(ts_us),
               static_cast<long long>(prev_ts_))};
  }
  put_varint(cols_[kCTs], static_cast<std::uint64_t>(ts_us - prev_ts_));
  prev_ts_ = ts_us;
  ++count_;
}

std::uint32_t SegmentBuilderV2::addr_index(Ipv4Addr ip) {
  const auto [it, inserted] =
      addr_idx_.try_emplace(ip.to_u32(), static_cast<std::uint32_t>(addrs_.size()));
  if (inserted) {
    addrs_.push_back(ip.to_u32());
    addr_refs_.push_back(0);
  }
  ++addr_refs_[it->second];
  return it->second;
}

void SegmentBuilderV2::add(const capture::ConnRecord& rec) {
  start_record(RecordKind::kConn, rec.start.count_us());
  put_varint(cols_[kCDur], zigzag_encode(rec.duration.count_us()));
  put_varint(cols_[kCOrigIp], addr_index(rec.orig_ip));
  put_varint(cols_[kCRespIp], addr_index(rec.resp_ip));
  wire::put_u16(cols_[kCOrigPort], rec.orig_port);
  wire::put_u16(cols_[kCRespPort], rec.resp_port);
  wire::put_u8(cols_[kCProto], rec.proto == Proto::kUdp ? 1 : 0);
  wire::put_u8(cols_[kCState], static_cast<std::uint8_t>(rec.state));
  put_varint(cols_[kCOrigBytes], rec.orig_bytes);
  put_varint(cols_[kCRespBytes], rec.resp_bytes);
}

void SegmentBuilderV2::add(const capture::DnsRecord& rec) {
  start_record(RecordKind::kDns, rec.ts.count_us());
  put_varint(cols_[kDDur], zigzag_encode(rec.duration.count_us()));
  put_varint(cols_[kDClientIp], addr_index(rec.client_ip));
  wire::put_u16(cols_[kDClientPort], rec.client_port);
  put_varint(cols_[kDResolverIp], addr_index(rec.resolver_ip));
  put_varint(cols_[kDQtype], static_cast<std::uint16_t>(rec.qtype));
  wire::put_u8(cols_[kDRcode], static_cast<std::uint8_t>(rec.rcode));
  wire::put_u8(cols_[kDAnswered], rec.answered ? 1 : 0);
  const auto [it, inserted] =
      dict_idx_.try_emplace(rec.query.id(), static_cast<std::uint32_t>(dict_names_.size()));
  if (inserted) {
    dict_names_.push_back(rec.query.view());
    name_refs_.push_back(0);
  }
  ++name_refs_[it->second];
  put_varint(cols_[kDNameIdx], it->second);
  put_varint(cols_[kDAnswerCount], rec.answers.size());
  for (const auto& a : rec.answers) {
    put_varint(cols_[kDAnsAddr], addr_index(a.addr));
    put_varint(cols_[kDAnsTtl], a.ttl);
  }
}

void SegmentBuilderV2::add(const capture::EncFlowRecord& rec) {
  start_record(RecordKind::kEncFlow, rec.start.count_us());
  put_varint(cols_[kEDur], zigzag_encode(rec.duration.count_us()));
  put_varint(cols_[kEClientIp], addr_index(rec.client_ip));
  put_varint(cols_[kEServerIp], addr_index(rec.server_ip));
  wire::put_u16(cols_[kEClientPort], rec.client_port);
  wire::put_u16(cols_[kEServerPort], rec.server_port);
  put_varint(cols_[kEUpMsgs], rec.up_msgs);
  put_varint(cols_[kEDownMsgs], rec.down_msgs);
  put_varint(cols_[kEUpBytes], rec.up_bytes);
  put_varint(cols_[kEDownBytes], rec.down_bytes);
  put_varint(cols_[kEFirstUp], rec.first_up_bytes);
  put_varint(cols_[kEFirstDown], rec.first_down_bytes);
  put_varint(cols_[kEPadUp], rec.pad_aligned_up);
  put_varint(cols_[kEPadDown], rec.pad_aligned_down);
}

std::uint64_t SegmentBuilderV2::raw_bytes() const {
  std::uint64_t total = 0;
  for (const auto& col : cols_) total += col.size();
  for (const auto& name : dict_names_) total += name.size() + 1;
  return total + addrs_.size() * 4;
}

std::string SegmentBuilderV2::build() {
  // Reorder both dictionaries: hot head, compressible tail (addresses
  // ascending for delta coding, names by suffix so sibling hosts of a
  // domain sit adjacent), then point the index columns at the new
  // positions.
  const auto addr_order = dict_order(addr_refs_, [this](std::uint32_t a, std::uint32_t b) {
    return addrs_[a] < addrs_[b];
  });
  const auto name_order = dict_order(name_refs_, [this](std::uint32_t a, std::uint32_t b) {
    const auto sa = dict_names_[a];
    const auto sb = dict_names_[b];
    return std::lexicographical_compare(sa.rbegin(), sa.rend(), sb.rbegin(), sb.rend());
  });
  std::vector<std::uint32_t> new_of_old(addr_order.size());
  for (std::uint32_t k = 0; k < addr_order.size(); ++k) new_of_old[addr_order[k]] = k;
  if (kind_ == RecordKind::kConn) {
    remap_index_column(cols_[kCOrigIp], new_of_old);
    remap_index_column(cols_[kCRespIp], new_of_old);
  } else if (kind_ == RecordKind::kEncFlow) {
    remap_index_column(cols_[kEClientIp], new_of_old);
    remap_index_column(cols_[kEServerIp], new_of_old);
  } else {
    remap_index_column(cols_[kDClientIp], new_of_old);
    remap_index_column(cols_[kDResolverIp], new_of_old);
    remap_index_column(cols_[kDAnsAddr], new_of_old);
    new_of_old.assign(name_order.size(), 0);
    for (std::uint32_t k = 0; k < name_order.size(); ++k) new_of_old[name_order[k]] = k;
    remap_index_column(cols_[kDNameIdx], new_of_old);
  }

  std::string body;
  body.reserve(raw_bytes() + cols_.size() * 2 + 8);
  if (kind_ == RecordKind::kDns) {
    put_varint(body, name_order.size());
    for (const auto old : name_order) {
      const auto name = dict_names_[old];
      put_varint(body, name.size());
      body.append(name.data(), name.size());
    }
  }
  put_varint(body, addr_order.size());
  const std::size_t head = std::min(addr_order.size(), kDictHead);
  for (std::size_t k = 0; k < head; ++k) wire::put_u32(body, addrs_[addr_order[k]]);
  std::uint32_t prev = 0;
  for (std::size_t k = head; k < addr_order.size(); ++k) {
    const std::uint32_t value = addrs_[addr_order[k]];
    put_varint(body, value - prev);
    prev = value;
  }
  for (const auto& col : cols_) {
    put_varint(body, col.size());
    body += col;
  }

  // Frame: codec id, raw length, (maybe) compressed body. Fall back to
  // uncompressed storage when the codec doesn't pay for this body.
  SegmentCodec stored_codec = codec_;
  std::string compressed;
  if (codec_ != SegmentCodec::kNone) {
    codec(codec_).compress(body, compressed);
    if (compressed.size() >= body.size()) stored_codec = SegmentCodec::kNone;
  }
  const std::string& stored = stored_codec == SegmentCodec::kNone ? body : compressed;
  std::string payload;
  payload.reserve(1 + 8 + stored.size());
  wire::put_u8(payload, static_cast<std::uint8_t>(stored_codec));
  wire::put_u64(payload, body.size());
  payload += stored;

  std::string out;
  out.reserve(kSegmentHeaderBytes + payload.size());
  append_segment_header(out, kind_, count_, SimTime::from_us(first_ts_),
                        SimTime::from_us(prev_ts_), payload.size(), crc32(payload));
  out += payload;
  reset();
  return out;
}

void SegmentBuilderV2::reset() {
  count_ = 0;
  first_ts_ = 0;
  prev_ts_ = 0;
  for (auto& col : cols_) col.clear();
  dict_names_.clear();
  name_refs_.clear();
  dict_idx_.clear();
  addrs_.clear();
  addr_refs_.clear();
  addr_idx_.clear();
}

namespace {

template <typename Rec>
std::string build_one(RecordKind kind, const std::vector<Rec>& recs, SegmentCodec codec) {
  SegmentBuilderV2 b{kind, codec};
  for (const auto& r : recs) b.add(r);
  return b.build();
}

}  // namespace

std::string build_segment_v2(const std::vector<capture::ConnRecord>& recs,
                             SegmentCodec codec) {
  return build_one(RecordKind::kConn, recs, codec);
}

std::string build_segment_v2(const std::vector<capture::DnsRecord>& recs,
                             SegmentCodec codec) {
  return build_one(RecordKind::kDns, recs, codec);
}

std::string build_segment_v2(const std::vector<capture::EncFlowRecord>& recs,
                             SegmentCodec codec) {
  return build_one(RecordKind::kEncFlow, recs, codec);
}

}  // namespace dnsctx::stream
