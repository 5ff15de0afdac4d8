// kfi_campaignd: long-running campaign daemon, one host of a multi-host
// fabric.
//
//   kfi_campaignd --port P [--bind ADDR] [--dir DIR] [--port-file PATH]
//                 [--verbose]
//
// The daemon binds a TCP port (0 = ephemeral; --port-file publishes the
// bound port for scripts) and serves campaign shard submissions forever:
// each accepted connection is one session (net.hpp's KFNM protocol).
// A session rebuilds the campaign plan deterministically from the
// submitted spec blob and refuses — typed, before any injection — if the
// rebuilt fingerprint disagrees with the client's --expect-plan-fp or
// the protocol versions differ.  Accepted shards run on the existing
// CampaignEngine in slice mode against a LOCAL journal under --dir
// (named by plan fingerprint + shard), so a daemon that is kill -9ed
// loses wall-clock only: the next submission with fresh=false resumes
// the journal and already-completed indices never re-execute.
//
// While running, the session streams KFFR status frames (hello /
// progress / heartbeat / done) inside kStatus messages — heartbeats
// renew the client's lease, progress frames carry the live outcome
// tally.  On completion the shard journal is streamed back
// byte-for-byte (kJournal).  A client that vanishes mid-run is noticed
// by the heartbeat thread (socket probe / failed send) and the engine
// is cancelled at the next injection boundary with the journal flushed.
//
// SIGTERM/SIGINT drain: stop accepting, let in-flight sessions finish,
// then exit 0.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fabric/net.hpp"
#include "fabric/runner.hpp"
#include "fabric/shard.hpp"
#include "fabric/wire.hpp"

using namespace kfi;

namespace {

std::atomic<bool> g_shutdown{false};

void on_term(int) { g_shutdown.store(true); }

bool g_verbose = false;

void logf(const char* fmt, ...) {
  if (!g_verbose) return;
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "campaignd: ");
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

/// One (plan fingerprint, shard) may have at most one live session: a
/// second submission for the same shard journal — e.g. after the client
/// revoked a lease the daemon outlived — is refused kBusy until the
/// first session notices the dead socket and cancels.
std::mutex g_active_mutex;
std::set<std::pair<u64, u32>> g_active;

struct ActiveKey {
  std::pair<u64, u32> key;
  bool held = false;

  bool acquire(u64 fp, u32 shard) {
    const std::lock_guard<std::mutex> lock(g_active_mutex);
    key = {fp, shard};
    held = g_active.insert(key).second;
    return held;
  }
  ~ActiveKey() {
    if (!held) return;
    const std::lock_guard<std::mutex> lock(g_active_mutex);
    g_active.erase(key);
  }
};

void refuse(int fd, fabric::RefuseCode code, const std::string& reason) {
  fabric::send_message(
      fd, fabric::NetMessage{fabric::MsgType::kRefuse,
                             fabric::encode_refusal({code, reason})});
  logf("refused: %s", reason.c_str());
}

/// Wait for the client's kSubmit on a fresh connection.  Bounded in time
/// and size: a connection that stays silent, trickles garbage, or
/// announces a message over kMaxSubmitLen is dropped, so neither a
/// draining daemon nor its memory is held hostage by it.
std::optional<fabric::SubmitRequest> read_submit(int fd) {
  fabric::MsgReader reader(fabric::kMaxSubmitLen);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 500);
    if (rc < 0 && errno != EINTR) return std::nullopt;
    if (g_shutdown.load()) return std::nullopt;
    if (rc <= 0) continue;
    u8 buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;
    }
    reader.feed(buf, static_cast<size_t>(n));
    if (auto msg = reader.next()) {
      if (msg->type != fabric::MsgType::kSubmit) {
        refuse(fd, fabric::RefuseCode::kBadRequest,
               "expected a submit message");
        return std::nullopt;
      }
      auto req = fabric::decode_submit(msg->body);
      if (!req) {
        refuse(fd, fabric::RefuseCode::kBadRequest,
               "submit body does not decode");
      }
      return req;
    }
    if (reader.corrupted()) {
      refuse(fd, fabric::RefuseCode::kBadRequest,
             "corrupt or oversized submit (cap " +
                 std::to_string(fabric::kMaxSubmitLen) + " bytes)");
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// True once the client has closed its end of the session socket.
bool peer_gone(int fd) {
  char probe;
  const ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  return r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                    errno != EINTR);
}

/// Serve one session on `fd`; the caller closes the socket afterwards.
void serve_session(int fd, const std::string& dir) {
  auto req = read_submit(fd);
  if (!req) return;
  req->jobs = std::max<u32>(req->jobs, 1);
  req->retries = std::max<u32>(req->retries, 1);
  // The heartbeat doubles as the client-health probe, so it always runs.
  if (req->heartbeat_seconds <= 0.0) req->heartbeat_seconds = 1.0;

  std::vector<u8> journal_bytes;
  try {
    fabric::Shard shard;
    if (const auto refusal = fabric::load_shard(*req, true, &shard)) {
      refuse(fd, refusal->code, refusal->reason);
      return;
    }
    ActiveKey active;
    if (!active.acquire(shard.plan_fp, req->shard)) {
      refuse(fd, fabric::RefuseCode::kBusy,
             "shard " + std::to_string(req->shard) +
                 " of this plan already has a live session");
      return;
    }

    const std::string fp_hex = fabric::fingerprint_hex(shard.plan_fp);
    const std::string journal_path = fabric::shard_journal_path(
        dir + "/" + fp_hex, req->shard, req->shards);
    inject::InjectionJournal journal =
        fabric::open_shard_journal(*req, shard, journal_path);

    fabric::AcceptInfo info;
    info.plan_fingerprint = shard.plan_fp;
    for (const inject::JournalEntry& e : journal.recovered()) {
      if (e.record.outcome != inject::OutcomeCategory::kHarnessError &&
          std::binary_search(shard.indices.begin(), shard.indices.end(),
                             e.index)) {
        ++info.resumed;
      }
    }
    info.pid = static_cast<u32>(::getpid());
    if (!fabric::send_message(fd, fabric::NetMessage{
                                      fabric::MsgType::kAccept,
                                      fabric::encode_accept(info)})) {
      return;
    }
    logf("accepted plan %s shard %u/%u (%zu indices, %u resumed%s)",
         fp_hex.c_str(),
         req->shard, req->shards, shard.indices.size(), info.resumed,
         req->fresh ? ", fresh" : "");

    // A client that closed its end (lease revoked, Ctrl-C, crash) fails
    // the heartbeat's probe or the next send, which cancels the engine at
    // the next injection boundary — the journal stays flushed for the
    // re-dispatch.
    const auto sink = [fd](const fabric::StatusFrame& frame) {
      if (frame.type == fabric::FrameType::kHeartbeat && peer_gone(fd)) {
        return false;
      }
      return fabric::send_message(
          fd, fabric::NetMessage{fabric::MsgType::kStatus,
                                 fabric::encode_frame(frame)});
    };
    if (!fabric::run_shard(*req, shard, journal, sink)) {
      logf("session for shard %u cancelled (client gone); journal kept",
           req->shard);
      return;
    }
    // Read the finished journal while this session still owns the shard;
    // the busy key is released before the bytes go out, so a client that
    // resubmits as soon as it has them is never refused.
    std::ifstream in(journal_path, std::ios::binary);
    journal_bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  } catch (const std::exception& e) {
    fabric::StatusFrame f;
    f.type = fabric::FrameType::kError;
    f.message = e.what();
    fabric::send_message(fd, fabric::NetMessage{fabric::MsgType::kStatus,
                                                fabric::encode_frame(f)});
    logf("session error: %s", e.what());
    return;
  }
  // Stream the completed shard journal back byte-for-byte; the client
  // splices it with the other shards.
  fabric::send_message(
      fd, fabric::NetMessage{fabric::MsgType::kJournal,
                             std::move(journal_bytes)});
  logf("shard %u complete, journal streamed", req->shard);
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--bind ADDR] [--dir DIR]\n"
               "          [--port-file PATH] [--verbose]\n"
               "  --port P:      TCP port to listen on (0 = ephemeral)\n"
               "  --bind ADDR:   bind address (default 127.0.0.1)\n"
               "  --dir DIR:     shard journal directory (default .)\n"
               "  --port-file F: write the bound port to F (for scripts\n"
               "                 using --port 0)\n"
               "  --verbose:     narrate sessions to stderr\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string bind_addr = "127.0.0.1", dir = ".", port_file;
  u16 port = 0;
  bool have_port = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      const unsigned long v = std::strtoul(next(), nullptr, 10);
      if (v > 65535) {
        usage(argv[0]);
        return 2;
      }
      port = static_cast<u16>(v);
      have_port = true;
    } else if (arg == "--bind") {
      bind_addr = next();
    } else if (arg == "--dir") {
      dir = next();
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--verbose") {
      g_verbose = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_port) {
    usage(argv[0]);
    return 2;
  }

  // A vanished client must surface as a failed send, not a fatal signal.
  ::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = on_term;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::string err;
  const int listen_fd = fabric::tcp_listen(bind_addr, port, &err);
  if (listen_fd < 0) {
    std::fprintf(stderr, "campaignd: %s\n", err.c_str());
    return 1;
  }
  const u16 bound = fabric::local_port(listen_fd);
  if (!port_file.empty()) {
    std::ofstream f(port_file, std::ios::trunc);
    f << bound << "\n";
  }
  std::fprintf(stderr, "campaignd: listening on %s:%u (journals in %s)\n",
               bind_addr.c_str(), bound, dir.c_str());

  // Sessions carry a done flag so the accept loop can reap finished
  // threads as it goes — the daemon serves many campaigns over its life.
  struct Session {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Session> sessions;
  auto reap_done = [&sessions]() {
    for (size_t i = 0; i < sessions.size();) {
      if (sessions[i].done->load()) {
        sessions[i].thread.join();
        sessions.erase(sessions.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  };

  while (!g_shutdown.load()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0 && errno != EINTR) {
      std::fprintf(stderr, "campaignd: poll failed: %s\n",
                   std::strerror(errno));
      break;
    }
    reap_done();
    if (rc <= 0) continue;
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "campaignd: accept failed: %s\n",
                   std::strerror(errno));
      break;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    sessions.push_back(Session{std::thread([fd, dir, done]() {
                                 serve_session(fd, dir);
                                 ::close(fd);
                                 done->store(true);
                               }),
                               done});
  }

  // SIGTERM drain: stop accepting, let in-flight shards finish (their
  // journals flush as they go either way).
  ::close(listen_fd);
  std::fprintf(stderr, "campaignd: draining %zu session(s)\n",
               sessions.size());
  for (Session& s : sessions) {
    if (s.thread.joinable()) s.thread.join();
  }
  return 0;
}
