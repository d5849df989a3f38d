#include "net/socket.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

namespace psnt::net {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Remaining milliseconds of a deadline anchored at `start`; clamped to >= 0.
int remaining_ms(std::chrono::steady_clock::time_point start, int deadline_ms) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const long long left = static_cast<long long>(deadline_ms) - elapsed;
  return left > 0 ? static_cast<int>(left) : 0;
}

IoStatus poll_one(int fd, short events, int timeout_ms) {
  struct pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc == 0) return IoStatus::kTimeout;
  if (rc < 0) return errno == EINTR ? IoStatus::kTimeout : IoStatus::kError;
  if (pfd.revents & (POLLHUP | POLLERR | POLLNVAL)) {
    // Readable-with-hangup still delivers buffered bytes; let the recv/send
    // call observe the condition itself.
    if (!(pfd.revents & events)) return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::pair<Fd, Fd> socketpair_stream() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error(std::string("socketpair: ") +
                             std::strerror(errno));
  }
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
  return {Fd(fds[0]), Fd(fds[1])};
}

IoStatus send_all(const Fd& fd, const std::uint8_t* data, std::size_t size,
                  int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd.get(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    const int left = remaining_ms(start, deadline_ms);
    if (left == 0) return IoStatus::kTimeout;
    const IoStatus waited = poll_one(fd.get(), POLLOUT, left);
    if (waited == IoStatus::kTimeout || waited == IoStatus::kOk) continue;
    return waited;
  }
  return IoStatus::kOk;
}

IoStatus recv_some(const Fd& fd, std::uint8_t* data, std::size_t size,
                   int deadline_ms, std::size_t& out_read) {
  out_read = 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const ssize_t n = ::recv(fd.get(), data, size, 0);
    if (n > 0) {
      out_read = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == ECONNRESET) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    const int left = remaining_ms(start, deadline_ms);
    if (left == 0) return IoStatus::kTimeout;
    const IoStatus waited = poll_one(fd.get(), POLLIN, left);
    if (waited == IoStatus::kError) return waited;
    // kOk / kClosed / kTimeout all loop: recv decides what the fd holds.
  }
}

IoStatus BufferedWriter::flush() {
  if (status_ != IoStatus::kOk) return status_;
  if (buffer_.empty()) return IoStatus::kOk;
  const IoStatus st =
      send_all(fd_, buffer_.data(), buffer_.size(), deadline_ms_);
  if (st != IoStatus::kOk) {
    status_ = st;
    return st;
  }
  bytes_sent_ += buffer_.size();
  ++flushes_;
  buffer_.clear();
  return IoStatus::kOk;
}

std::uint64_t monotonic_ns() {
  struct timespec ts{};
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace psnt::net
