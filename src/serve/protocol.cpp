#include "serve/protocol.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace kcc::serve {

bool read_exact(int fd, void* buf, std::size_t bytes) {
  auto* out = static_cast<std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::read(fd, out + done, bytes - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("serve: read failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (done == 0) return false;  // clean EOF between frames
      throw Error("serve: peer closed mid-frame (" + std::to_string(done) +
                  " of " + std::to_string(bytes) + " bytes)");
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void write_all(int fd, const void* buf, std::size_t bytes) {
  const auto* in = static_cast<const std::uint8_t*>(buf);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::write(fd, in + done, bytes - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("serve: write failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

void write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  std::uint8_t prefix[4];
  const auto bytes = static_cast<std::uint32_t>(payload.size());
  std::memcpy(prefix, &bytes, 4);  // little-endian host (see snapshot.cpp)
  // One writev-style buffer would save a syscall; a 4-byte + payload pair of
  // writes is kept for simplicity — clients batch frames anyway.
  std::vector<std::uint8_t> framed;
  framed.reserve(4 + payload.size());
  framed.insert(framed.end(), prefix, prefix + 4);
  framed.insert(framed.end(), payload.begin(), payload.end());
  write_all(fd, framed.data(), framed.size());
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::uint32_t max_bytes) {
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, 4)) return false;
  std::uint32_t bytes = 0;
  std::memcpy(&bytes, prefix, 4);
  require(bytes <= max_bytes,
          "serve: frame of ", bytes, " bytes exceeds the limit of ", max_bytes);
  payload.resize(bytes);
  if (bytes > 0) {
    if (!read_exact(fd, payload.data(), bytes)) {
      throw Error("serve: peer closed between length prefix and payload");
    }
  }
  return true;
}

}  // namespace kcc::serve
