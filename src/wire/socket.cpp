#include "wire/socket.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace flay::wire {

namespace {

[[noreturn]] void sysError(const std::string& what) {
  throw WireError(what + ": " + ::strerror(errno));
}

sockaddr_un unixAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw WireError("socket path too long: '" + path + "'");
  }
  ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::pair<Fd, Fd> socketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    sysError("socketpair failed");
  }
  return {Fd(fds[0]), Fd(fds[1])};
}

Fd listenUnix(const std::string& path, int backlog) {
  sockaddr_un addr = unixAddr(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) sysError("socket failed");
  ::unlink(path.c_str());  // stale path from a previous run
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    sysError("cannot bind '" + path + "'");
  }
  if (::listen(fd.get(), backlog) != 0) sysError("listen failed");
  return fd;
}

Fd acceptOne(const Fd& listener) {
  for (;;) {
    int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    sysError("accept failed");
  }
}

Fd connectUnix(const std::string& path, int retries, int retryDelayMs) {
  sockaddr_un addr = unixAddr(path);
  for (int attempt = 0;; ++attempt) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) sysError("socket failed");
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (attempt >= retries) sysError("cannot connect to '" + path + "'");
    std::this_thread::sleep_for(std::chrono::milliseconds(retryDelayMs));
  }
}

void sendAll(int fd, const std::vector<uint8_t>& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireError("timed out writing to peer");
      }
      sysError("send failed");
    }
    off += static_cast<size_t>(n);
  }
}

void FrameChannel::send(FrameType type, const std::vector<uint8_t>& payload) {
  if (!fd_.valid()) throw WireError("send on a closed channel");
  sendAll(fd_.get(), encodeFrame(type, payload));
}

bool FrameChannel::recv(Frame* out) {
  if (!fd_.valid()) return false;
  uint8_t chunk[16384];
  for (;;) {
    switch (decoder_.next(out)) {
      case FrameDecoder::Status::kFrame:
        return true;
      case FrameDecoder::Status::kError:
        throw WireError("bad frame from peer: " + decoder_.error());
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    ssize_t n = ::read(fd_.get(), chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireError("timed out waiting for a frame");
      }
      sysError("read failed");
    }
    if (n == 0) return false;  // EOF; a buffered torn frame never happened
    decoder_.feed(chunk, static_cast<size_t>(n));
  }
}

}  // namespace flay::wire
