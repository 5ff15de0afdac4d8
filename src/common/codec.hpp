// The one big-endian byte codec every kfisim byte format shares.
//
// The injection journal (KFIJ header, KFIE frames), the CampaignSpec
// blob, the KFFR status frames and the KFNM network messages all
// serialize big-endian with the same primitive vocabulary, parse through
// the same bounds-checked cursor (never throws, never overreads, latches
// `ok = false` on the first short read) and checksum with the same
// FNV-1a.  Keeping the primitives in one header means a new format cannot
// invent a subtly different integer layout.
#pragma once

#include <sys/types.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace kfi::codec {

inline u64 fnv1a(const u8* data, size_t size) {
  u64 h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline void put8(std::vector<u8>& out, u8 v) { out.push_back(v); }

inline void put32(std::vector<u8>& out, u32 v) {
  out.push_back(static_cast<u8>(v >> 24));
  out.push_back(static_cast<u8>(v >> 16));
  out.push_back(static_cast<u8>(v >> 8));
  out.push_back(static_cast<u8>(v));
}

inline void put64(std::vector<u8>& out, u64 v) {
  put32(out, static_cast<u32>(v >> 32));
  put32(out, static_cast<u32>(v));
}

inline void put_double(std::vector<u8>& out, double d) {
  u64 bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  put64(out, bits);
}

inline void put_string(std::vector<u8>& out, const std::string& s) {
  put32(out, static_cast<u32>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline void put_blob(std::vector<u8>& out, const std::vector<u8>& b) {
  put32(out, static_cast<u32>(b.size()));
  out.insert(out.end(), b.begin(), b.end());
}

/// Bounds-checked big-endian reader: every get_* returns a default and
/// latches `ok = false` once the input runs out, so malformed input can
/// never read past the buffer.
struct Cursor {
  const u8* in;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  Cursor(const u8* data, size_t n) : in(data), size(n) {}
  Cursor(const std::vector<u8>& v, size_t at)
      : in(v.data()), size(v.size()), pos(at) {}

  bool have(size_t n) {
    if (!ok || pos > size || size - pos < n) ok = false;
    return ok;
  }
  u8 get8() {
    if (!have(1)) return 0;
    return in[pos++];
  }
  u32 get32() {
    if (!have(4)) return 0;
    const u32 v = (static_cast<u32>(in[pos]) << 24) |
                  (static_cast<u32>(in[pos + 1]) << 16) |
                  (static_cast<u32>(in[pos + 2]) << 8) |
                  static_cast<u32>(in[pos + 3]);
    pos += 4;
    return v;
  }
  u64 get64() {
    const u64 hi = get32();
    return (hi << 32) | get32();
  }
  double get_double() {
    const u64 bits = get64();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  std::string get_string() {
    const u32 len = get32();
    if (!have(len)) return {};
    std::string s(in + pos, in + pos + len);
    pos += len;
    return s;
  }
  std::vector<u8> get_blob() {
    const u32 len = get32();
    if (!have(len)) return {};
    std::vector<u8> b(in + pos, in + pos + len);
    pos += len;
    return b;
  }
  /// Every byte consumed and nothing short: a clean decode.
  bool done() const { return ok && pos == size; }
};

/// Incremental reader for one "magic | u32 len | payload | fnv64" stream:
/// the framing both the KFFR status frames and the KFNM network messages
/// use.  feed() appends raw pipe or socket bytes; next() pops the earliest
/// complete payload through `Decode`, or nullopt while only a partial frame
/// is buffered.  A bad magic, a length over `max_len`, a checksum mismatch
/// or a payload `Decode` rejects latches corrupted(): the peer is not
/// speaking the protocol.  An oversized length latches as soon as the
/// 8-byte header is in, before any of the claimed payload is buffered.
template <typename T, u32 kMagic, u32 kDefaultMaxLen,
          std::optional<T> (*Decode)(const u8* payload, size_t len)>
class FramedReader {
 public:
  explicit FramedReader(u32 max_len = kDefaultMaxLen) : max_len_(max_len) {}

  void feed(const u8* data, size_t size) {
    // Compact the consumed prefix before growing, so a long-lived stream
    // doesn't accumulate every frame it ever saw.
    if (pos_ > 0 && pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    } else if (pos_ > 65536) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
      pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + size);
  }

  std::optional<T> next() {
    if (corrupted_) return std::nullopt;
    Cursor c{buf_, pos_};
    if (!c.have(8)) return std::nullopt;  // need magic + length
    if (c.get32() != kMagic) return corrupt();
    const u32 len = c.get32();
    if (len > max_len_) return corrupt();
    if (!c.have(size_t{len} + 8)) return std::nullopt;  // partial: wait
    const u8* payload = buf_.data() + c.pos;
    c.pos += len;
    if (c.get64() != fnv1a(payload, len)) return corrupt();
    std::optional<T> out = Decode(payload, len);
    if (!out) return corrupt();
    pos_ = c.pos;
    return out;
  }

  bool corrupted() const { return corrupted_; }

 private:
  std::optional<T> corrupt() {
    corrupted_ = true;
    return std::nullopt;
  }

  std::vector<u8> buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
  u32 max_len_;
  bool corrupted_ = false;
};

/// Frame `payload` as "magic | u32 len | payload | fnv64".
inline std::vector<u8> frame_payload(u32 magic, const std::vector<u8>& payload) {
  std::vector<u8> out;
  out.reserve(payload.size() + 16);
  put32(out, magic);
  put32(out, static_cast<u32>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put64(out, fnv1a(payload.data(), payload.size()));
  return out;
}

/// Move `size` bytes through `io(offset, count)` (a read/write/send),
/// retrying short transfers and EINTR.  Any other error, or EOF, fails.
template <typename Io>
bool transfer_all(size_t size, Io io) {
  for (size_t at = 0; at < size;) {
    const ssize_t n = io(at, size - at);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += static_cast<size_t>(n);
  }
  return true;
}

/// write(2) the whole buffer, retrying short writes and EINTR.  Returns
/// false on any other error (e.g. EPIPE/ECONNRESET: the peer is gone).
bool write_all(int fd, const void* data, size_t size);

/// read(2) exactly `size` bytes, retrying short reads and EINTR.
/// Returns false on EOF or any other error before `size` bytes arrived.
bool read_exact(int fd, void* data, size_t size);

}  // namespace kfi::codec
