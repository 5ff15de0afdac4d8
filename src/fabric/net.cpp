#include "fabric/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/codec.hpp"

namespace kfi::fabric {

namespace {

using codec::Cursor;
using codec::put8;
using codec::put32;
using codec::put64;
using codec::put_blob;
using codec::put_double;
using codec::put_string;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

bool send_all(int fd, const void* data, size_t size) {
  const u8* p = static_cast<const u8*>(data);
  return codec::transfer_all(size, [&](size_t at, size_t n) {
    return ::send(fd, p + at, n, MSG_NOSIGNAL);
  });
}

int tcp_listen(const std::string& bind_addr, u16 port, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (err != nullptr) *err = errno_text("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "bad bind address '" + bind_addr + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (err != nullptr) *err = errno_text("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 16) != 0) {
    if (err != nullptr) *err = errno_text("listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

u16 local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int tcp_connect(const std::string& host, u16 port, double timeout_seconds,
                std::string* err) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (gai != 0 || res == nullptr) {
    if (err != nullptr) {
      *err = "cannot resolve '" + host + "': " + ::gai_strerror(gai);
    }
    return -1;
  }
  int fd = -1;
  std::string last_err = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      last_err = errno_text("socket");
      continue;
    }
    // Non-blocking connect so a black-holed host costs `timeout_seconds`,
    // not the kernel's multi-minute SYN retry budget.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int timeout_ms =
          timeout_seconds > 0.0 ? static_cast<int>(timeout_seconds * 1000.0)
                                : -1;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc <= 0) {
        last_err = rc == 0 ? "connect timed out" : errno_text("poll");
        ::close(fd);
        fd = -1;
        continue;
      }
      int so_err = 0;
      socklen_t len = sizeof(so_err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &len);
      if (so_err != 0) {
        last_err = std::string("connect: ") + std::strerror(so_err);
        ::close(fd);
        fd = -1;
        continue;
      }
    } else if (rc != 0) {
      last_err = errno_text("connect");
      ::close(fd);
      fd = -1;
      continue;
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    break;
  }
  ::freeaddrinfo(res);
  if (fd < 0 && err != nullptr) {
    *err = "connect to " + host + ":" + service + " failed: " + last_err;
  }
  return fd;
}

std::vector<u8> encode_message(const NetMessage& msg) {
  std::vector<u8> payload;
  payload.reserve(msg.body.size() + 1);
  put8(payload, static_cast<u8>(msg.type));
  payload.insert(payload.end(), msg.body.begin(), msg.body.end());
  return codec::frame_payload(kMsgMagic, payload);
}

bool send_message(int fd, const NetMessage& msg) {
  const std::vector<u8> bytes = encode_message(msg);
  return send_all(fd, bytes.data(), bytes.size());
}

std::optional<NetMessage> decode_message_payload(const u8* payload,
                                                 size_t len) {
  if (len < 1 || payload[0] < static_cast<u8>(MsgType::kSubmit) ||
      payload[0] > static_cast<u8>(MsgType::kJournal)) {
    return std::nullopt;
  }
  return NetMessage{static_cast<MsgType>(payload[0]),
                    std::vector<u8>(payload + 1, payload + len)};
}

std::vector<u8> encode_submit(const SubmitRequest& req) {
  std::vector<u8> out;
  put8(out, req.protocol);
  put64(out, req.expect_plan_fp);
  put32(out, req.shard);
  put32(out, req.shards);
  put8(out, req.fresh ? 1 : 0);
  put32(out, req.jobs);
  put32(out, req.retries);
  put_double(out, req.heartbeat_seconds);
  put_double(out, req.stall_seconds);
  put8(out, req.flush);
  put_string(out, req.indices);
  put_blob(out, req.spec);
  return out;
}

std::optional<SubmitRequest> decode_submit(const std::vector<u8>& body) {
  Cursor c{body, 0};
  SubmitRequest req;
  req.protocol = c.get8();
  req.expect_plan_fp = c.get64();
  req.shard = c.get32();
  req.shards = c.get32();
  req.fresh = c.get8() != 0;
  req.jobs = c.get32();
  req.retries = c.get32();
  req.heartbeat_seconds = c.get_double();
  req.stall_seconds = c.get_double();
  req.flush = c.get8();
  req.indices = c.get_string();
  req.spec = c.get_blob();
  if (!c.done()) return std::nullopt;
  return req;
}

std::vector<u8> encode_accept(const AcceptInfo& info) {
  std::vector<u8> out;
  put64(out, info.plan_fingerprint);
  put32(out, info.resumed);
  put32(out, info.pid);
  return out;
}

std::optional<AcceptInfo> decode_accept(const std::vector<u8>& body) {
  Cursor c{body, 0};
  AcceptInfo info;
  info.plan_fingerprint = c.get64();
  info.resumed = c.get32();
  info.pid = c.get32();
  if (!c.done()) return std::nullopt;
  return info;
}

std::vector<u8> encode_refusal(const Refusal& refusal) {
  std::vector<u8> out;
  put8(out, static_cast<u8>(refusal.code));
  put_string(out, refusal.reason);
  return out;
}

std::optional<Refusal> decode_refusal(const std::vector<u8>& body) {
  Cursor c{body, 0};
  Refusal refusal;
  const u8 code = c.get8();
  if (code < static_cast<u8>(RefuseCode::kSkew) ||
      code > static_cast<u8>(RefuseCode::kBadRequest)) {
    return std::nullopt;
  }
  refusal.code = static_cast<RefuseCode>(code);
  refusal.reason = c.get_string();
  if (!c.done()) return std::nullopt;
  return refusal;
}

std::optional<std::vector<HostSpec>> parse_host_list(const std::string& text) {
  std::vector<HostSpec> hosts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return std::nullopt;
    }
    HostSpec spec;
    spec.host = item.substr(0, colon);
    const std::string port_text = item.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
      return std::nullopt;
    }
    spec.port = static_cast<u16>(port);
    hosts.push_back(std::move(spec));
    if (comma == text.size()) break;
    start = comma + 1;
  }
  if (hosts.empty()) return std::nullopt;
  return hosts;
}

}  // namespace kfi::fabric
