// libFuzzer target for the DNS wire codec, the parser of every
// wire-origin payload the monitor sees. Three properties:
//   * dns::decode never crashes, whatever the bytes;
//   * when decode succeeds, encode∘decode is a fixed point: the
//     re-encoded message decodes again and re-encodes to the same bytes;
//   * truncate_for_udp's output encodes and decodes, with TC set when
//     the message was over the UDP limit.
// Decode interns every name it accepts (dns/name.hpp) and the table
// never frees, so memory grows with the distinct names the fuzzer
// invents; libFuzzer's -rss_limit_mb bounds it.
#include <cstdint>
#include <cstdlib>
#include <span>

#include "dns/codec.hpp"

namespace {

void require(bool ok) {
  if (!ok) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using namespace dnsctx::dns;
  const auto msg = decode(std::span<const std::uint8_t>{data, size});
  if (!msg) return 0;
  const auto wire = encode(*msg);
  const auto again = decode(wire);
  require(again.has_value());
  require(encode(*again) == wire);

  const auto cut = decode(encode(truncate_for_udp(*msg)));
  require(cut.has_value());
  if (wire.size() > kUdpPayloadLimit) require(cut->flags.tc);
  return 0;
}
