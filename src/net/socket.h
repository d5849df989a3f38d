// Minimal POSIX stream-socket transport for the fleet layer.
//
// Everything the wire format needs to cross a process boundary, and nothing
// more: RAII fds, socketpair construction, and deadline-bounded send/recv
// built on poll(). All fds are non-blocking; a blocking wait is always an
// explicit poll with a deadline, so a dead or wedged peer surfaces as
// IoStatus::kTimeout or kClosed instead of a hung thread.
//
// BufferedWriter is the ring→socket bridge's send half: frames accumulate in
// a user-space buffer and go to the kernel in batches, either when the
// buffer crosses `flush_threshold` or on an explicit flush() (the Nagle-free
// "batch while busy, flush when idle" send discipline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace psnt::net {

enum class IoStatus : std::uint8_t {
  kOk = 0,
  kTimeout,  // deadline expired before the transfer completed
  kClosed,   // orderly EOF / EPIPE / ECONNRESET — the peer is gone
  kError,    // any other errno
};
[[nodiscard]] const char* to_string(IoStatus status);

// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

// Connected non-blocking AF_UNIX stream pair (the fork transport: create
// before fork, parent keeps [0], child keeps [1]). Throws on failure.
[[nodiscard]] std::pair<Fd, Fd> socketpair_stream();

// Writes all `size` bytes before `deadline_ms` elapses (SIGPIPE suppressed).
[[nodiscard]] IoStatus send_all(const Fd& fd, const std::uint8_t* data,
                                std::size_t size, int deadline_ms);
// Reads up to `size` bytes, returning the count actually read; kOk with
// out_read > 0 on data, kClosed on EOF, kTimeout when nothing arrived.
[[nodiscard]] IoStatus recv_some(const Fd& fd, std::uint8_t* data,
                                 std::size_t size, int deadline_ms,
                                 std::size_t& out_read);

// Batched, explicit-flush socket writer (see file comment). Not
// thread-safe; one writer per connection.
class BufferedWriter {
 public:
  explicit BufferedWriter(const Fd& fd, std::size_t flush_threshold = 16384,
                          int deadline_ms = 5000)
      : fd_(fd), flush_threshold_(flush_threshold), deadline_ms_(deadline_ms) {
    buffer_.reserve(flush_threshold);
  }

  // Appends bytes; auto-flushes once the buffer reaches the threshold. The
  // first failed flush latches into status() and drops further writes (the
  // peer is gone; the caller decides what that means).
  IoStatus append(const std::uint8_t* data, std::size_t size);
  // Direct access for FrameWriter::append_* composition.
  [[nodiscard]] std::vector<std::uint8_t>& buffer() { return buffer_; }
  // Sends everything buffered now. No-op on an empty buffer.
  IoStatus flush();

  [[nodiscard]] IoStatus status() const { return status_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }

 private:
  const Fd& fd_;
  std::size_t flush_threshold_;
  int deadline_ms_;
  std::vector<std::uint8_t> buffer_;
  IoStatus status_ = IoStatus::kOk;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t flushes_ = 0;
};

// CLOCK_MONOTONIC in nanoseconds — comparable across processes on one host,
// the timestamp domain of wire::SpanHeader::send_ns.
[[nodiscard]] std::uint64_t monotonic_ns();

}  // namespace psnt::net
