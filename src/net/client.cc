#include "net/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/syscall_retry.h"

namespace tarpit {
namespace net {

Status FrameClient::Connect(const std::string& host, uint16_t port,
                            const std::string& source_ip) {
  auto fd = ConnectTcp(host, port, source_ip, /*nonblocking=*/false);
  if (!fd.ok()) return fd.status();
  fd_.Reset(*fd);
  decoder_ = FrameDecoder(64 << 20);
  progress_frames_ = 0;
  return Status::OK();
}

Status FrameClient::SendRaw(std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = RetryOnEintr([&] {
      return ::send(fd_.get(), bytes.data() + sent, bytes.size() - sent,
                    MSG_NOSIGNAL);
    });
    if (n <= 0) {
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FrameClient::SendFrame(FrameType type, std::string_view payload) {
  std::string wire;
  AppendFrame(&wire, type, payload);
  return SendRaw(wire);
}

Result<Frame> FrameClient::RecvFrame(double timeout_seconds) {
  const auto deadline_ms = static_cast<int64_t>(timeout_seconds * 1000.0);
  int64_t waited_ms = 0;
  while (true) {
    Frame f;
    std::string err;
    switch (decoder_.Pop(&f, &err)) {
      case FrameDecoder::Next::kFrame:
        return f;
      case FrameDecoder::Next::kError:
        return Status::InvalidArgument("client decoder: " + err);
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    if (waited_ms >= deadline_ms) {
      return Status::IOError("timed out waiting for frame");
    }
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int slice =
        static_cast<int>(std::min<int64_t>(100, deadline_ms - waited_ms));
    const int rc = RetryOnEintr([&] { return ::poll(&pfd, 1, slice); });
    if (rc < 0) {
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    waited_ms += slice;
    if (rc == 0) continue;
    char chunk[16 * 1024];
    const ssize_t n = RetryOnEintr(
        [&] { return ::recv(fd_.get(), chunk, sizeof(chunk), 0); });
    // EOF reads as Cancelled: the server tore the connection down
    // (protocol error, shutdown, backpressure) -- distinguishable from
    // a mere timeout (IOError) in tests.
    if (n == 0) return Status::Cancelled("connection closed by server");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    decoder_.Feed(chunk, static_cast<size_t>(n));
  }
}

Result<Frame> FrameClient::AwaitResponse(double timeout_seconds) {
  while (true) {
    auto f = RecvFrame(timeout_seconds);
    if (!f.ok()) return f;
    if (f->type == FrameType::kProgress) {
      ++progress_frames_;  // Keep-alive: liveness, not payload.
      continue;
    }
    return f;
  }
}

Result<WireResponse> FrameClient::AwaitWireResponse(
    double timeout_seconds) {
  auto f = AwaitResponse(timeout_seconds);
  if (!f.ok()) return f.status();
  WireResponse r;
  if (f->type == FrameType::kResponse) {
    if (!ParseResponse(f->payload, &r)) {
      return Status::InvalidArgument("malformed kResponse payload");
    }
    return r;
  }
  if (f->type == FrameType::kError) {
    if (!ParseError(f->payload, &r)) {
      return Status::InvalidArgument("malformed kError payload");
    }
    return r;  // Carried as data: tests assert on the wire status code.
  }
  return Status::InvalidArgument(
      "unexpected frame type " +
      std::to_string(static_cast<unsigned>(f->type)));
}

Status FrameClient::Hello(uint64_t identity, double timeout_seconds) {
  Status s = SendFrame(FrameType::kHello, HelloPayload(identity, 0));
  if (!s.ok()) return s;
  auto f = AwaitResponse(timeout_seconds);
  if (!f.ok()) return f.status();
  if (f->type != FrameType::kHelloAck) {
    return Status::InvalidArgument("expected kHelloAck");
  }
  return Status::OK();
}

Result<WireResponse> FrameClient::Query(std::string_view sql,
                                        double timeout_seconds) {
  Status s = SendFrame(FrameType::kQuery, sql);
  if (!s.ok()) return s;
  return AwaitWireResponse(timeout_seconds);
}

Result<WireResponse> FrameClient::GetByKey(int64_t key,
                                           double timeout_seconds) {
  Status s = SendFrame(FrameType::kGetKey, GetKeyPayload(key));
  if (!s.ok()) return s;
  return AwaitWireResponse(timeout_seconds);
}

}  // namespace net
}  // namespace tarpit
