// dnsctx — the shared DNS payload of a simulated packet.
//
// Every simulated sender constructs from_message(), and every reader
// (stub, forwarder, recursive platform, monitor tap) reads the same
// DnsMessage through message(): it is shared by reference through NAT
// and tap fan-out, and no hop encodes or decodes it. wire_size() runs
// the codec to size the message (DoT/DoH padding, the monitor's
// encrypted-flow byte counts) and keeps nothing.
//
// The wire half has no caller outside tests and fuzzers: from_wire()
// payloads decode once, on the first message() call, and a malformed
// one yields nullptr (the monitor's malformed_dns count); wire()
// materializes bytes. The codec's encode/decode round-trip is identity
// on every message this simulation produces.
//
// Thread-safety: state is mutated behind const accessors (first-use
// materialization) and shared via a NON-atomic refcount drawn from a
// thread-local free list. Each shard owns its packets end-to-end and
// runs single-threaded, so every handle to one State lives on one
// thread; cross-shard sharing of a payload would be a design error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dns/message.hpp"

namespace dnsctx::dns {

/// Shared handle to one DNS message in flight; empty by default.
/// Copies bump an intrusive (non-atomic) refcount; dead states return to
/// a thread-local pool so the packet fan-out path never hits malloc.
class DnsPayload {
 public:
  DnsPayload() noexcept = default;
  DnsPayload(const DnsPayload& o) noexcept : state_{o.state_} {
    if (state_ != nullptr) ++state_->refs;
  }
  DnsPayload(DnsPayload&& o) noexcept : state_{o.state_} { o.state_ = nullptr; }
  DnsPayload& operator=(const DnsPayload& o) noexcept {
    if (this != &o) {
      release();
      state_ = o.state_;
      if (state_ != nullptr) ++state_->refs;
    }
    return *this;
  }
  DnsPayload& operator=(DnsPayload&& o) noexcept {
    if (this != &o) {
      release();
      state_ = o.state_;
      o.state_ = nullptr;
    }
    return *this;
  }
  ~DnsPayload() { release(); }

  [[nodiscard]] static DnsPayload from_message(DnsMessage msg);
  [[nodiscard]] static DnsPayload from_wire(std::vector<std::uint8_t> wire);

  [[nodiscard]] explicit operator bool() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool empty() const noexcept { return state_ == nullptr; }

  /// Structured view. Decodes on first call for wire-origin payloads;
  /// nullptr when empty or when the wire bytes are malformed.
  [[nodiscard]] const DnsMessage* message() const;

  /// RFC 1035 wire bytes. Encodes on first call for message-origin
  /// payloads; nullptr when empty.
  [[nodiscard]] const std::vector<std::uint8_t>* wire() const;

  /// Wire size in bytes without forcing materialization (exact: the
  /// codec's encoded_size). 0 when empty.
  [[nodiscard]] std::size_t wire_size() const;

 private:
  struct State {
    std::optional<DnsMessage> msg;
    std::optional<std::vector<std::uint8_t>> bytes;
    bool decode_failed = false;
    std::uint32_t refs = 1;
    State* pool_next = nullptr;
  };

  /// Per-thread free list; frees its chain at thread exit so shard
  /// threads leave nothing behind for leak checkers to flag.
  struct Pool {
    State* head = nullptr;
    ~Pool();
  };

  explicit DnsPayload(State* s) noexcept : state_{s} {}

  [[nodiscard]] static Pool& pool();
  [[nodiscard]] static State* acquire();
  static void recycle(State* s) noexcept;
  void release() noexcept {
    if (state_ != nullptr && --state_->refs == 0) recycle(state_);
    state_ = nullptr;
  }

  State* state_ = nullptr;
};

}  // namespace dnsctx::dns
