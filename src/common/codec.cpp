#include "common/codec.hpp"

#include <unistd.h>

namespace kfi::codec {

bool write_all(int fd, const void* data, size_t size) {
  const u8* p = static_cast<const u8*>(data);
  return transfer_all(size, [&](size_t at, size_t n) {
    return ::write(fd, p + at, n);
  });
}

bool read_exact(int fd, void* data, size_t size) {
  u8* p = static_cast<u8*>(data);
  return transfer_all(size, [&](size_t at, size_t n) {
    return ::read(fd, p + at, n);
  });
}

}  // namespace kfi::codec
