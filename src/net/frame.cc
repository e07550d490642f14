#include "net/frame.h"

#include <cstring>

namespace tarpit {
namespace net {

void AppendU32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(b, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t ReadU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t ReadU64(const char* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         (static_cast<uint64_t>(ReadU32(p + 4)) << 32);
}

void AppendFrame(std::string* out, FrameType type,
                 std::string_view payload) {
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->push_back(static_cast<char>(type));
  out->append(payload.data(), payload.size());
}

std::string HelloPayload(uint64_t identity, uint32_t reserved) {
  std::string p;
  AppendU64(&p, identity);
  AppendU32(&p, reserved);
  return p;
}

bool ParseHello(std::string_view payload, uint64_t* identity,
                uint32_t* reserved) {
  if (payload.size() != 12) return false;
  *identity = ReadU64(payload.data());
  *reserved = ReadU32(payload.data() + 8);
  return true;
}

std::string GetKeyPayload(int64_t key) {
  std::string p;
  AppendU64(&p, static_cast<uint64_t>(key));
  return p;
}

bool ParseGetKey(std::string_view payload, int64_t* key) {
  if (payload.size() != 8) return false;
  *key = static_cast<int64_t>(ReadU64(payload.data()));
  return true;
}

std::string ResponsePayload(uint8_t status_code, uint64_t delay_micros,
                            uint32_t row_count, std::string_view text) {
  std::string p;
  p.push_back(static_cast<char>(status_code));
  AppendU64(&p, delay_micros);
  AppendU32(&p, row_count);
  p.append(text.data(), text.size());
  return p;
}

bool ParseResponse(std::string_view payload, WireResponse* out) {
  if (payload.size() < 13) return false;
  out->status_code = static_cast<uint8_t>(payload[0]);
  out->delay_micros = ReadU64(payload.data() + 1);
  out->row_count = ReadU32(payload.data() + 9);
  out->text.assign(payload.data() + 13, payload.size() - 13);
  return true;
}

std::string ErrorPayload(uint8_t status_code, std::string_view message) {
  std::string p;
  p.push_back(static_cast<char>(status_code));
  p.append(message.data(), message.size());
  return p;
}

bool ParseError(std::string_view payload, WireResponse* out) {
  if (payload.empty()) return false;
  out->status_code = static_cast<uint8_t>(payload[0]);
  out->delay_micros = 0;
  out->row_count = 0;
  out->text.assign(payload.data() + 1, payload.size() - 1);
  return true;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (poisoned_) return;  // Stream is dead; don't buffer more.
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Next FrameDecoder::Pop(Frame* out, std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = "frame stream poisoned";
    return Next::kError;
  }
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return Next::kNeedMore;
  const uint32_t len = ReadU32(buf_.data() + pos_);
  // The length check happens against the header alone: a hostile
  // 4 GiB prefix costs us nothing (the payload was never reserved).
  if (len > max_frame_bytes_) {
    poisoned_ = true;
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) + " exceeds max " +
               std::to_string(max_frame_bytes_);
    }
    return Next::kError;
  }
  if (avail < kFrameHeaderBytes + len) return Next::kNeedMore;
  out->type = static_cast<FrameType>(
      static_cast<unsigned char>(buf_[pos_ + 4]));
  out->payload.assign(buf_.data() + pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Next::kFrame;
}

}  // namespace net
}  // namespace tarpit
