#ifndef FLAY_WIRE_SOCKET_H
#define FLAY_WIRE_SOCKET_H

// Thin POSIX socket layer under the frame codec: RAII descriptors, Unix-
// domain listen/connect (the daemon/agent rendezvous), socketpair links for
// agents run on a thread (tests), and FrameChannel, a blocking descriptor
// paired with an incremental FrameDecoder. Both ends of a daemon/agent link
// read and write only through a FrameChannel (see fleet/agent.h); a
// descriptor's receive/send timeouts bound its waits.

#include <string>
#include <utility>
#include <vector>

#include "wire/wire.h"

namespace flay::wire {

/// Move-only RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// AF_UNIX SOCK_STREAM pair — a daemon<->agent link within one process
/// (real serialization + syscalls, no filesystem rendezvous). Throws
/// WireError.
std::pair<Fd, Fd> socketPair();

/// Binds + listens on a Unix-domain socket path (unlinking any stale one).
Fd listenUnix(const std::string& path, int backlog = 16);
/// Accepts one connection (blocking).
Fd acceptOne(const Fd& listener);
/// Connects to a Unix-domain socket path, retrying while the daemon is
/// still coming up (spawned agents race its listen()).
Fd connectUnix(const std::string& path, int retries = 50,
               int retryDelayMs = 100);

/// Writes all of `data` (blocking); throws WireError on a dead peer or when
/// the descriptor's send timeout expires.
void sendAll(int fd, const std::vector<uint8_t>& data);

/// Blocking framed endpoint: one descriptor + one incremental decoder.
class FrameChannel {
 public:
  explicit FrameChannel(Fd fd) : fd_(std::move(fd)) {}

  /// Encodes and writes one frame.
  void send(FrameType type, const std::vector<uint8_t>& payload);
  /// Blocks for the next frame. Returns false on EOF — including an EOF
  /// with a torn frame still buffered, which the receiver treats like the
  /// WAL's torn tail (the frame never happened; the connection is simply
  /// gone). Throws WireError on a structurally bad stream, a failed read,
  /// or when the descriptor's receive timeout expires.
  bool recv(Frame* out);

  int fd() const { return fd_.get(); }
  void close() { fd_.reset(); }
  bool open() const { return fd_.valid(); }

 private:
  Fd fd_;
  FrameDecoder decoder_;
};

}  // namespace flay::wire

#endif  // FLAY_WIRE_SOCKET_H
