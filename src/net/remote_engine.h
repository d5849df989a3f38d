// Remote measurement sites: IMeasureEngine over a socket.
//
// The capture/encode split (DESIGN.md §10) is what makes a remote site cheap:
// engines only capture, so only the capture half crosses the wire —
// MeasureReq over, RawSample spans back — and the consumer's drain decodes
// remote words exactly like local ones. A RemoteEngineHandle therefore drops
// into any EngineHandle consumer (the scan grid above all) with no consumer
// changes.
//
// Failure contract: every call carries a deadline. A timeout, short read,
// connection loss or wire-format violation throws TransportError — and the
// scan grid maps that exception onto the *existing* hung-site resilience path
// (fault::FaultKind::kHungSite → retry/backoff → quarantine → degradation
// telemetry). A flaky remote site degrades exactly like a flaky local one;
// there is no second error-handling scheme to operate.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/measure_engine.h"
#include "net/socket.h"
#include "net/wire.h"

namespace psnt::net {

// Thrown by RemoteEngineHandle when a transaction cannot complete. Carries
// the transport-level status (and the wire error, when the bytes arrived but
// were malformed) so fault telemetry can say *why* the site looked hung.
class TransportError : public std::runtime_error {
 public:
  TransportError(IoStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  TransportError(WireError wire, const std::string& what)
      : std::runtime_error(what), status_(IoStatus::kError), wire_(wire) {}

  [[nodiscard]] IoStatus status() const { return status_; }
  [[nodiscard]] std::optional<WireError> wire_error() const { return wire_; }

 private:
  IoStatus status_;
  std::optional<WireError> wire_;
};

struct RemoteEngineConfig {
  // Per-call deadline for the full request→response round trip. The grid's
  // hung-site watchdog semantics, but enforced at the transport.
  int deadline_ms = 2000;
  core::BubblePolicy bubble_policy = core::BubblePolicy::kMajority;
};

// Client half. Owns the connection; encode (for the auto-range observe) runs
// locally. The context's code policy is resolved client-side and every
// request ships an explicit DelayCode — the server never second-guesses the
// code, which keeps auto-range and drift injection working unchanged. The
// context word hook runs on words as they come off the wire (transport
// position of the post-capture hook point). A batch larger than one reply
// frame holds (net::kMaxSpanSamples) is split into consecutive round trips.
class RemoteEngineHandle final : public core::IMeasureEngine {
 public:
  // `conn` must already be connected and about to deliver the server's
  // kHello (word width handshake). Throws TransportError when the hello does
  // not arrive within the deadline.
  RemoteEngineHandle(Fd conn, const RemoteEngineConfig& config);

  core::EngineContext& context() override { return ctx_; }
  [[nodiscard]] std::size_t word_bits() const override { return word_bits_; }

  void measure_raw_batch(const core::MeasureRequest& first,
                         Picoseconds interval, std::size_t count,
                         std::vector<core::RawSample>& out) override;
  [[nodiscard]] core::EncodedWord encode(
      const core::ThermoWord& word) const override {
    return encoder_.encode(word);
  }

  // Round trips completed / failed over this handle's lifetime.
  [[nodiscard]] std::uint64_t round_trips() const { return round_trips_; }
  [[nodiscard]] std::uint64_t transport_faults() const {
    return transport_faults_;
  }

 private:
  // Ships one MeasureReq and appends the returned span to `out`. Throws
  // TransportError on any failure.
  void round_trip(const core::MeasureRequest& first, Picoseconds interval,
                  std::size_t count, std::vector<core::RawSample>& out);

  Fd conn_;
  RemoteEngineConfig config_;
  core::EngineContext ctx_;
  core::Encoder encoder_;
  std::size_t word_bits_ = 0;
  FrameParser parser_;
  std::vector<std::uint8_t> tx_;
  std::uint64_t round_trips_ = 0;
  std::uint64_t transport_faults_ = 0;
};

// Server half: serves one connection from a local engine. Single-threaded and
// blocking — run it on a dedicated thread or in a forked process. Replies to
// each kMeasureReq with one kSampleSpan; exits on kShutdown, connection
// close, or a framing error from the peer.
class EngineServer {
 public:
  EngineServer(core::EngineHandle engine, Fd conn, std::uint32_t worker = 0);

  // Sends the kHello handshake, then serves until shutdown/close.
  void serve();

  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  core::EngineHandle engine_;
  Fd conn_;
  std::uint32_t worker_;
  std::uint64_t served_ = 0;
  std::uint32_t seq_ = 0;
};

}  // namespace psnt::net
