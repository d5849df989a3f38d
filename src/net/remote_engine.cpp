#include "net/remote_engine.h"

#include <algorithm>
#include <string>

namespace psnt::net {
namespace {

[[noreturn]] void throw_io(IoStatus status, const char* where) {
  throw TransportError(status, std::string(where) + ": " + to_string(status));
}

[[noreturn]] void throw_wire(WireError error, const char* where) {
  throw TransportError(error, std::string(where) + ": " + to_string(error));
}

}  // namespace

// --- client ----------------------------------------------------------------

RemoteEngineHandle::RemoteEngineHandle(Fd conn,
                                       const RemoteEngineConfig& config)
    : conn_(std::move(conn)),
      config_(config),
      encoder_(config.bubble_policy) {
  // Handshake: the server leads with kHello carrying its word width.
  std::uint8_t chunk[512];
  for (;;) {
    if (auto frame = parser_.next()) {
      HelloPayload hello;
      if (frame->type != FrameType::kHello) {
        throw_wire(WireError::kBadType, "hello");
      }
      if (auto err = decode_hello(*frame, hello)) {
        throw_wire(*err, "hello");
      }
      word_bits_ = hello.word_bits;
      return;
    }
    if (parser_.failed()) throw_wire(*parser_.error(), "hello");
    std::size_t got = 0;
    const IoStatus st =
        recv_some(conn_, chunk, sizeof(chunk), config_.deadline_ms, got);
    if (st != IoStatus::kOk) throw_io(st, "hello");
    parser_.feed(chunk, got);
  }
}

void RemoteEngineHandle::round_trip(const core::MeasureRequest& first,
                                    Picoseconds interval,
                                    std::size_t count,
                                    std::vector<core::RawSample>& out) {
  // Resolve the code client-side (context policy or per-request override) so
  // the server is a pure capture executor.
  MeasureReqPayload req;
  req.start_ps = first.start.value();
  req.interval_ps = interval.value();
  req.count = static_cast<std::uint32_t>(count);
  req.target = static_cast<std::uint8_t>(first.target);
  req.has_code = 1;
  req.code = first.code ? first.code->value() : ctx_.current_code().value();

  tx_.clear();
  FrameWriter::append_measure_req(tx_, req);
  IoStatus st = send_all(conn_, tx_.data(), tx_.size(), config_.deadline_ms);
  if (st != IoStatus::kOk) {
    ++transport_faults_;
    throw_io(st, "measure_req send");
  }

  // Read until the reply span lands (or the deadline does).
  std::uint8_t chunk[8192];
  for (;;) {
    if (auto frame = parser_.next()) {
      if (frame->type != FrameType::kSampleSpan) continue;  // skip noise
      std::size_t n = 0;
      if (auto err = span_sample_count(*frame, n)) {
        ++transport_faults_;
        throw_wire(*err, "span");
      }
      if (n != count) {
        ++transport_faults_;
        throw_wire(WireError::kBadPayload, "span count");
      }
      const std::size_t base = out.size();
      out.resize(base + n);
      for (std::size_t i = 0; i < n; ++i) {
        if (auto err = decode_span_sample(*frame, i, out[base + i])) {
          out.resize(base);
          ++transport_faults_;
          throw_wire(*err, "span sample");
        }
        // Transport position of the post-capture word hook (the fault
        // surface a FaultSession installs).
        if (ctx_.has_word_hook()) {
          core::ThermoWord word = out[base + i].word;
          ctx_.apply_word(word);
          out[base + i].word = word;
        }
      }
      ++round_trips_;
      return;
    }
    if (parser_.failed()) {
      ++transport_faults_;
      throw_wire(*parser_.error(), "reply");
    }
    std::size_t got = 0;
    st = recv_some(conn_, chunk, sizeof(chunk), config_.deadline_ms, got);
    if (st != IoStatus::kOk) {
      ++transport_faults_;
      throw_io(st, "reply");
    }
    parser_.feed(chunk, got);
  }
}

void RemoteEngineHandle::measure_raw_batch(const core::MeasureRequest& first,
                                           Picoseconds interval,
                                           std::size_t count,
                                           std::vector<core::RawSample>& out) {
  // One reply frame carries at most kMaxSpanSamples; larger batches go as
  // consecutive round trips. Chunk j starts at first.start + base * interval,
  // which is exact (and the schedule bit-identical to one local call)
  // whenever the schedule's picosecond values are integers below 2^53.
  core::MeasureRequest chunk = first;
  for (std::size_t base = 0; base < count; base += kMaxSpanSamples) {
    chunk.start = Picoseconds{first.start.value() +
                              static_cast<double>(base) * interval.value()};
    round_trip(chunk, interval, std::min(kMaxSpanSamples, count - base), out);
  }
}

// --- server ----------------------------------------------------------------

EngineServer::EngineServer(core::EngineHandle engine, Fd conn,
                           std::uint32_t worker)
    : engine_(std::move(engine)), conn_(std::move(conn)), worker_(worker) {}

void EngineServer::serve() {
  std::vector<std::uint8_t> tx;
  HelloPayload hello;
  hello.worker = worker_;
  hello.word_bits = static_cast<std::uint8_t>(engine_->word_bits());
  FrameWriter::append_hello(tx, hello);
  if (send_all(conn_, tx.data(), tx.size(), 5000) != IoStatus::kOk) return;

  FrameParser parser;
  std::vector<core::RawSample> batch;
  std::uint8_t chunk[8192];
  for (;;) {
    while (auto frame = parser.next()) {
      if (frame->type == FrameType::kShutdown) return;
      if (frame->type != FrameType::kMeasureReq) continue;
      MeasureReqPayload req;
      if (decode_measure_req(*frame, req)) return;  // broken peer

      core::MeasureRequest first;
      first.start = Picoseconds{req.start_ps};
      first.target = static_cast<core::SenseTarget>(req.target);
      if (req.has_code != 0) first.code = core::DelayCode(req.code);

      // decode_measure_req bounds count by kMaxSpanSamples, so the reply
      // always fits one frame.
      batch.clear();
      engine_->measure_raw_batch(first, Picoseconds{req.interval_ps},
                                 req.count, batch);

      SpanHeader span;
      span.worker = worker_;
      span.seq = seq_++;
      span.send_ns = monotonic_ns();
      tx.clear();
      FrameWriter::append_sample_span(tx, span, batch.data(),
                                            batch.size());
      if (send_all(conn_, tx.data(), tx.size(), 5000) != IoStatus::kOk) return;
      ++served_;
    }
    if (parser.failed()) return;

    std::size_t got = 0;
    const IoStatus st = recv_some(conn_, chunk, sizeof(chunk), 60000, got);
    if (st == IoStatus::kTimeout) continue;  // idle is fine; keep waiting
    if (st != IoStatus::kOk) return;
    parser.feed(chunk, got);
  }
}

}  // namespace psnt::net
