#include "fabric/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "fabric/shard.hpp"

namespace kfi::fabric {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Unit {
  u32 shard = 0;
  std::vector<u32> slice;
  std::string journal;
  enum class State { kPending, kRunning, kDone } state = State::kPending;
  u32 dispatches = 0;  // launches so far (first launch gets the chaos kill)
  /// TCP: a daemon accepted this shard at least once, so later
  /// submissions send fresh=false and resume the daemon's journal.
  bool ever_accepted = false;
  /// Records this shard already held when the run began: the shard
  /// journal's before the first dispatch, plus what a daemon reports
  /// resuming in its first accept.
  u64 resumed = 0;
  Clock::time_point eligible_at = Clock::time_point::min();
  std::optional<StatusFrame> done_frame;
};

/// One worker slot or daemon host.  The session fields are valid while
/// unit >= 0.
struct Endpoint {
  HostSpec host;  // TCP only
  bool retired = false;
  Rng backoff_rng{1};
  inject::FabricHostStats stats;
  RemoteHostProgress progress;
  int unit = -1;
  int fd = -1;
  pid_t pid = -1;  // pipe: the worker process
  MsgReader msgs;  // TCP: the outer KFNM stream
  FrameReader frames;
  Clock::time_point last_heard = Clock::time_point::min();
  bool got_done = false;
  std::string error;  // the last kError frame's message
};

/// How a transport step left its session.
struct Step {
  enum Kind { kRunning, kDone, kDied } kind = kRunning;
  std::string why;  // kDied: what ended the session
};

Step died(std::string why) { return Step{Step::kDied, std::move(why)}; }

/// Decode the KFFR frames in `data`; a garbled stream ends the session.
Step read_frames(Endpoint& ep, const u8* data, size_t size,
                 std::vector<StatusFrame>& out) {
  ep.frames.feed(data, size);
  while (auto frame = ep.frames.next()) out.push_back(std::move(*frame));
  return ep.frames.corrupted() ? died("corrupt status frame") : Step{};
}

/// What differs between worker pipes and daemon sockets.  open() starts a
/// session running `indices` of `unit` (setting ep.fd), feed() takes the
/// bytes read from ep.fd and appends complete status frames to `frames`,
/// eof() judges a session whose fd closed, and close() tears a session
/// down (idempotent).
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  virtual Step open(Endpoint& ep, Unit& unit,
                    const std::vector<u32>& indices) = 0;
  virtual Step feed(Endpoint& ep, Unit& unit, const u8* data, size_t size,
                    std::vector<StatusFrame>& frames) = 0;
  virtual Step eof(Endpoint& ep) = 0;
  virtual void close(Endpoint& ep) = 0;
};

/// kfi_worker subprocesses writing raw KFFR frames to an inherited pipe.
/// Death is judged by waitpid; a session ends with SIGKILL.
class PipeTransport final : public Transport {
 public:
  PipeTransport(const FabricOptions& opt, const inject::CampaignPlan& plan,
                u32 shards)
      : opt_(opt),
        spec_hex_(to_hex(serialize_campaign_spec(plan.spec))),
        plan_fp_hex_(fingerprint_hex(inject::plan_fingerprint(plan))),
        shards_(shards) {}

  Step open(Endpoint& ep, Unit& unit,
            const std::vector<u32>& indices) override {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw FabricError(std::string("pipe2 failed: ") + std::strerror(errno));
    }
    std::vector<std::string> args = {
        opt_.worker_binary,
        "--spec", spec_hex_,
        "--expect-plan-fp", plan_fp_hex_,
        "--indices", format_index_ranges(indices),
        "--journal", unit.journal,
        "--shard", std::to_string(unit.shard),
        "--shards", std::to_string(shards_),
        "--status-fd", std::to_string(fds[1]),
        "--jobs", std::to_string(opt_.jobs),
        "--heartbeat", std::to_string(opt_.heartbeat_seconds),
        "--retries", std::to_string(opt_.retries),
        "--journal-flush",
        opt_.flush == inject::FlushPolicy::kFsync ? "fsync" : "flush",
    };
    if (opt_.stall_seconds > 0.0) {
      args.push_back("--stall");
      args.push_back(std::to_string(opt_.stall_seconds));
    }
    if (opt_.chaos_kill_after > 0 && unit.dispatches == 1) {
      args.push_back("--chaos-kill-after");
      args.push_back(std::to_string(opt_.chaos_kill_after));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw FabricError(std::string("fork failed: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Child: keep the write end across exec, drop everything else.
      ::fcntl(fds[1], F_SETFD, 0);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "fabric: exec %s failed: %s\n", argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(fds[1]);
    ep.pid = pid;
    ep.fd = fds[0];
    return {};
  }

  Step feed(Endpoint& ep, Unit&, const u8* data, size_t size,
            std::vector<StatusFrame>& frames) override {
    return read_frames(ep, data, size, frames);
  }

  Step eof(Endpoint& ep) override {
    int status = 0;
    ::waitpid(ep.pid, &status, 0);
    ep.pid = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && ep.got_done) {
      return Step{Step::kDone, ""};
    }
    return died(WIFSIGNALED(status)
                    ? "signal " + std::to_string(WTERMSIG(status))
                    : "exit " + std::to_string(WEXITSTATUS(status)));
  }

  void close(Endpoint& ep) override {
    if (ep.pid > 0) {
      ::kill(ep.pid, SIGKILL);
      ::waitpid(ep.pid, nullptr, 0);
      ep.pid = -1;
    }
    if (ep.fd >= 0) {
      ::close(ep.fd);
      ep.fd = -1;
    }
  }

 private:
  const FabricOptions& opt_;
  std::string spec_hex_, plan_fp_hex_;
  u32 shards_;
};

/// Atomically land retrieved journal bytes: a torn write must never
/// masquerade as a complete shard journal.
void write_journal_bytes(const std::string& path,
                         const std::vector<u8>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw FabricError("cannot write retrieved journal " + tmp);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) {
      throw FabricError("short write retrieving journal " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw FabricError("cannot rename " + tmp + " into place: " +
                      std::strerror(errno));
  }
}

/// kfi_campaignd daemons over TCP: a kSubmit per session, KFFR frames
/// inside kStatus messages, and the finished shard journal as kJournal.
/// A session ends by closing the socket.
class TcpTransport final : public Transport {
 public:
  TcpTransport(const FabricOptions& opt, const inject::CampaignPlan& plan,
               u32 shards)
      : opt_(opt),
        spec_blob_(serialize_campaign_spec(plan.spec)),
        plan_fp_(inject::plan_fingerprint(plan)),
        shards_(shards) {}

  Step open(Endpoint& ep, Unit& unit,
            const std::vector<u32>& indices) override {
    std::string err;
    ep.fd = tcp_connect(ep.host.host, ep.host.port,
                        opt_.connect_timeout_seconds, &err);
    if (ep.fd < 0) return died(err);
    ep.msgs = MsgReader();
    SubmitRequest req;
    req.expect_plan_fp = plan_fp_;
    req.shard = unit.shard;
    req.shards = shards_;
    // Re-dispatches resume the daemon's journal, so a restarted daemon
    // never re-executes what it already journaled.
    req.fresh = opt_.fresh && !unit.ever_accepted;
    req.jobs = opt_.jobs;
    req.retries = opt_.retries;
    req.heartbeat_seconds = opt_.heartbeat_seconds;
    req.stall_seconds = opt_.stall_seconds;
    req.flush = static_cast<u8>(opt_.flush);
    req.indices = format_index_ranges(indices);
    req.spec = spec_blob_;
    if (!send_message(ep.fd,
                      NetMessage{MsgType::kSubmit, encode_submit(req)})) {
      return died("submit write failed");
    }
    return {};
  }

  Step feed(Endpoint& ep, Unit& unit, const u8* data, size_t size,
            std::vector<StatusFrame>& frames) override {
    ep.msgs.feed(data, size);
    while (auto msg = ep.msgs.next()) {
      switch (msg->type) {
        case MsgType::kAccept: {
          const auto info = decode_accept(msg->body);
          if (!info) return died("malformed accept");
          if (info->plan_fingerprint != plan_fp_) {
            throw FabricError(
                "daemon accepted with a different plan fingerprint: "
                "client and daemon binaries disagree");
          }
          // Only the first accept predates this run; a re-dispatch
          // resumes records this run's own sessions wrote.
          if (!unit.ever_accepted) unit.resumed += info->resumed;
          unit.ever_accepted = true;
          if (opt_.verbose && info->resumed > 0) {
            std::fprintf(stderr,
                         "fabric: %s resumed %u journaled indices\n",
                         ep.stats.host.c_str(), info->resumed);
          }
          break;
        }
        case MsgType::kRefuse: {
          const auto refusal = decode_refusal(msg->body);
          if (!refusal) return died("malformed refusal");
          // Transient: the daemon still runs a prior session for this
          // shard (e.g. after a lease revocation the daemon outlived).
          if (refusal->code == RefuseCode::kBusy) {
            return died("daemon busy, will retry");
          }
          // kSkew / kBadRequest: hard configuration error, typed, raised
          // before any injection ran anywhere.
          throw FabricError(
              "daemon " + ep.stats.host + " refused (" +
              (refusal->code == RefuseCode::kSkew ? "version/plan skew"
                                                  : "bad request") +
              "): " + refusal->reason);
        }
        case MsgType::kStatus: {
          Step step = read_frames(ep, msg->body.data(), msg->body.size(),
                                  frames);
          if (step.kind != Step::kRunning) return step;
          break;
        }
        case MsgType::kJournal:
          write_journal_bytes(unit.journal, msg->body);
          return Step{Step::kDone, ""};
        case MsgType::kSubmit:
          return died("protocol violation (submit from daemon)");
      }
    }
    return ep.msgs.corrupted() ? died("corrupt message stream") : Step{};
  }

  Step eof(Endpoint&) override { return died("connection closed"); }

  void close(Endpoint& ep) override {
    if (ep.fd >= 0) {
      ::close(ep.fd);
      ep.fd = -1;
    }
  }

 private:
  const FabricOptions& opt_;
  std::vector<u8> spec_blob_;
  u64 plan_fp_;
  u32 shards_;
};

}  // namespace

std::vector<u32> remaining_indices(const std::string& path,
                                   const std::vector<u32>& slice,
                                   u64 want_plan_fp) {
  inject::JournalFileData data;
  try {
    data = inject::read_journal_file(path);
  } catch (const inject::JournalError&) {
    return slice;  // no usable journal yet: everything remains
  }
  if (data.plan_fingerprint != want_plan_fp) {
    throw FabricError("stale shard journal " + path +
                      " belongs to a different campaign; remove it or "
                      "choose another --journal prefix");
  }
  std::vector<u8> done;
  for (const inject::JournalEntry& e : data.entries) {
    if (e.record.outcome == inject::OutcomeCategory::kHarnessError) continue;
    if (e.index >= done.size()) done.resize(e.index + 1, 0);
    done[e.index] = 1;
  }
  std::vector<u32> remaining;
  for (const u32 i : slice) {
    if (i >= done.size() || !done[i]) remaining.push_back(i);
  }
  return remaining;
}

FabricCoordinator::FabricCoordinator(FabricOptions options)
    : opt_(std::move(options)) {
  if (opt_.workers == 0) opt_.workers = 1;
  if (opt_.min_workers == 0) opt_.min_workers = 1;
  opt_.min_workers = std::min(opt_.min_workers, shards());
  if (opt_.journal_prefix.empty()) {
    throw FabricError("fabric needs a journal prefix (--journal)");
  }
  if (opt_.hosts.empty() && opt_.worker_binary.empty()) {
    throw FabricError("fabric needs the kfi_worker binary path");
  }
}

u32 FabricCoordinator::shards() const {
  return opt_.hosts.empty() ? opt_.workers
                            : static_cast<u32>(opt_.hosts.size());
}

std::vector<std::string> FabricCoordinator::journal_paths(u32 total) const {
  const auto slices = shard_indices(total, shards());
  std::vector<std::string> paths;
  for (u32 s = 0; s < slices.size(); ++s) {
    if (slices[s].empty()) continue;
    paths.push_back(shard_journal_path(opt_.journal_prefix, s, shards()));
  }
  return paths;
}

inject::CampaignResult FabricCoordinator::run(const inject::CampaignPlan& plan,
                                              SpliceStats* stats) {
  const Clock::time_point run_start = Clock::now();
  const u32 total = static_cast<u32>(plan.targets.size());
  const u64 plan_fp = inject::plan_fingerprint(plan);
  const u32 shards = this->shards();
  const auto slices = shard_indices(total, shards);
  std::unique_ptr<Transport> transport;
  if (opt_.hosts.empty()) {
    transport = std::make_unique<PipeTransport>(opt_, plan, shards);
  } else {
    transport = std::make_unique<TcpTransport>(opt_, plan, shards);
  }

  std::vector<Unit> units(shards);
  std::vector<Endpoint> endpoints(shards);
  for (u32 s = 0; s < shards; ++s) {
    Unit& u = units[s];
    u.shard = s;
    u.slice = slices[s];
    u.journal = shard_journal_path(opt_.journal_prefix, s, shards);
    if (u.slice.empty()) u.state = Unit::State::kDone;
    Endpoint& ep = endpoints[s];
    if (!opt_.hosts.empty()) ep.host = opt_.hosts[s];
    ep.stats.host =
        opt_.hosts.empty() ? "worker" + std::to_string(s) : ep.host.label();
    ep.backoff_rng =
        Rng(plan_fp ^ 0xFABC0FFull ^ (0x9E3779B97F4A7C15ull * (s + 1)));
  }

  auto live_endpoints = [&endpoints]() {
    u32 n = 0;
    for (const Endpoint& ep : endpoints) n += ep.retired ? 0 : 1;
    return n;
  };

  auto emit_progress = [&]() {
    if (!opt_.progress) return;
    std::vector<RemoteHostProgress> snap;
    snap.reserve(endpoints.size());
    for (const Endpoint& ep : endpoints) {
      snap.push_back(ep.progress);
      snap.back().host = ep.stats.host;
      snap.back().connected = ep.unit >= 0;
      snap.back().retired = ep.retired;
    }
    opt_.progress(snap);
  };

  // End a session and advance its unit's state machine: a finished shard
  // is done; a death recovers what the journal holds and re-enqueues the
  // rest behind the endpoint's backoff.
  auto end_session = [&](Endpoint& ep, const Step& step) {
    transport->close(ep);
    Unit& unit = units[static_cast<size_t>(ep.unit)];
    ep.unit = -1;
    if (step.kind == Step::kDone) {
      unit.state = Unit::State::kDone;
      ep.stats.records += unit.slice.size();
      ep.progress.done = true;
      ep.progress.completed = ep.progress.total;
      if (opt_.verbose) {
        std::fprintf(stderr, "fabric: shard %u done (%s)\n", unit.shard,
                     ep.stats.host.c_str());
      }
      emit_progress();
      return;
    }
    ++ep.stats.deaths;
    ep.progress = RemoteHostProgress{};
    const std::vector<u32> remaining =
        remaining_indices(unit.journal, unit.slice, plan_fp);
    if (opt_.verbose) {
      std::fprintf(stderr,
                   "fabric: %s lost shard %u (%s%s%s), %zu of %zu indices "
                   "remain\n",
                   ep.stats.host.c_str(), unit.shard, step.why.c_str(),
                   ep.error.empty() ? "" : ": ", ep.error.c_str(),
                   remaining.size(), unit.slice.size());
    }
    if (remaining.empty()) {
      // Died after its last durable record: nothing left to run.
      unit.state = Unit::State::kDone;
    } else {
      unit.state = Unit::State::kPending;
      double wait = 0.0;
      if (opt_.backoff_base > 0.0) {
        const double exp = opt_.backoff_base *
                           static_cast<double>(
                               1ull << std::min<u64>(ep.stats.deaths - 1, 30));
        wait = std::min(opt_.backoff_cap, exp) *
               (0.5 + ep.backoff_rng.next_double());
        ++ep.stats.backoff_waits;
        ep.stats.backoff_seconds += wait;
      }
      unit.eligible_at = Clock::now() + from_seconds(wait);
    }
    if (ep.stats.deaths > opt_.max_restarts) {
      ep.retired = true;
      if (opt_.verbose) {
        std::fprintf(stderr, "fabric: %s retired after %llu deaths\n",
                     ep.stats.host.c_str(),
                     static_cast<unsigned long long>(ep.stats.deaths));
      }
      if (live_endpoints() < opt_.min_workers) {
        throw FabricError(
            "fabric degraded below --min-workers (" +
            std::to_string(live_endpoints()) + " live < " +
            std::to_string(opt_.min_workers) +
            "); shard journals are intact — rerun to resume");
      }
    }
  };

  auto dispatch = [&](Endpoint& ep, Unit& unit,
                      const std::vector<u32>& indices) {
    ep.unit = static_cast<int>(&unit - units.data());
    ep.frames = FrameReader();
    ep.got_done = false;
    ep.error.clear();
    ep.last_heard = Clock::now();
    ep.progress = RemoteHostProgress{};
    ep.progress.shard = unit.shard;
    ep.progress.total = static_cast<u32>(indices.size());
    unit.state = Unit::State::kRunning;
    ++unit.dispatches;
    ++ep.stats.dispatches;
    if (opt_.verbose) {
      std::fprintf(stderr, "fabric: %s <- shard %u (%zu indices%s)\n",
                   ep.stats.host.c_str(), unit.shard, indices.size(),
                   unit.dispatches > 1 ? ", re-dispatch" : "");
    }
    const Step step = transport->open(ep, unit, indices);
    if (step.kind != Step::kRunning) end_session(ep, step);
  };

  auto handle_frame = [&](Endpoint& ep, const StatusFrame& frame) {
    RemoteHostProgress& p = ep.progress;
    switch (frame.type) {
      case FrameType::kHello:
        if (frame.plan_fingerprint != plan_fp) {
          throw FabricError(
              ep.stats.host +
              " rebuilt a different plan (fingerprint mismatch): "
              "coordinator and endpoint binaries disagree");
        }
        break;
      case FrameType::kProgress:
      case FrameType::kHeartbeat:
        if (frame.type == FrameType::kProgress || frame.done > p.completed) {
          p.completed = frame.done;
          p.outcomes = frame.outcomes;
          emit_progress();
        }
        break;
      case FrameType::kDone:
        ep.got_done = true;
        units[static_cast<size_t>(ep.unit)].done_frame = frame;
        p.completed = p.total;
        p.outcomes = frame.outcomes;
        emit_progress();
        break;
      case FrameType::kError:
        ep.error = frame.message;
        break;
    }
  };

  auto close_all = [&]() {
    for (Endpoint& ep : endpoints) transport->close(ep);
  };

  try {
    while (true) {
      const Clock::time_point now = Clock::now();

      // Dispatch eligible pending units to idle live endpoints, each with
      // only the indices its shard journal does not hold yet.
      for (Unit& unit : units) {
        if (unit.state != Unit::State::kPending || unit.eligible_at > now) {
          continue;
        }
        Endpoint* idle = nullptr;
        for (Endpoint& ep : endpoints) {
          if (!ep.retired && ep.unit < 0) {
            idle = &ep;
            break;
          }
        }
        if (idle == nullptr) break;
        const std::vector<u32> remaining =
            remaining_indices(unit.journal, unit.slice, plan_fp);
        if (unit.dispatches == 0) {
          unit.resumed = unit.slice.size() - remaining.size();
        }
        if (remaining.empty()) {
          unit.state = Unit::State::kDone;
          continue;
        }
        dispatch(*idle, unit, remaining);
      }

      u32 pending = 0, running = 0;
      Clock::time_point next_eligible = Clock::time_point::max();
      for (const Unit& u : units) {
        if (u.state == Unit::State::kPending) {
          ++pending;
          next_eligible = std::min(next_eligible, u.eligible_at);
        } else if (u.state == Unit::State::kRunning) {
          ++running;
        }
      }
      if (pending == 0 && running == 0) break;  // every unit done

      if (running == 0) {
        // Pending work, nobody running: either we are waiting out a
        // backoff, or every endpoint is retired.
        if (live_endpoints() < opt_.min_workers) {
          throw FabricError(
              "fabric degraded below --min-workers with work pending; "
              "shard journals are intact — rerun to resume");
        }
        std::this_thread::sleep_until(
            std::min(next_eligible, now + std::chrono::milliseconds(100)));
        continue;
      }

      // Wait for endpoint traffic, a lease expiry, or a backoff expiry.
      std::vector<pollfd> fds;
      std::vector<Endpoint*> fd_endpoints;
      Clock::time_point deadline = now + std::chrono::milliseconds(500);
      if (pending > 0) deadline = std::min(deadline, next_eligible);
      for (Endpoint& ep : endpoints) {
        if (ep.unit < 0) continue;
        fds.push_back(pollfd{ep.fd, POLLIN, 0});
        fd_endpoints.push_back(&ep);
        deadline = std::min(deadline,
                            ep.last_heard + from_seconds(opt_.lease_seconds));
      }
      const int timeout_ms = std::max(
          10, static_cast<int>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count()));
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) <
              0 &&
          errno != EINTR) {
        throw FabricError(std::string("poll failed: ") + std::strerror(errno));
      }

      for (size_t i = 0; i < fds.size(); ++i) {
        Endpoint& ep = *fd_endpoints[i];
        if (ep.unit < 0) continue;  // session ended earlier this pass
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        u8 buf[65536];
        const ssize_t n = ::read(ep.fd, buf, sizeof(buf));
        Step step;
        if (n > 0) {
          ep.last_heard = Clock::now();
          std::vector<StatusFrame> frames;
          step = transport->feed(ep, units[static_cast<size_t>(ep.unit)], buf,
                                 static_cast<size_t>(n), frames);
          for (const StatusFrame& f : frames) handle_frame(ep, f);
        } else if (n == 0 || errno != EINTR) {
          step = transport->eof(ep);
        }
        if (step.kind != Step::kRunning) end_session(ep, step);
      }

      // Lease check: silent endpoints are presumed dead or wedged.
      const Clock::time_point after = Clock::now();
      for (Endpoint& ep : endpoints) {
        if (ep.unit < 0 ||
            seconds_between(ep.last_heard, after) <= opt_.lease_seconds) {
          continue;
        }
        ++ep.stats.lease_revocations;
        end_session(ep, died("lease expired"));
      }
    }
  } catch (...) {
    close_all();
    throw;
  }
  close_all();  // no-op on the clean path; belt and braces

  inject::CampaignResult result =
      splice_journals(plan, journal_paths(total), stats);
  result.fabric_workers = shards;
  for (const Endpoint& ep : endpoints) {
    result.fabric_hosts.push_back(ep.stats);
    result.fabric_worker_deaths += ep.stats.deaths;
    result.fabric_backoff_waits += ep.stats.backoff_waits;
    result.fabric_backoff_seconds += ep.stats.backoff_seconds;
  }
  for (const Unit& u : units) {
    result.resumed_records += u.resumed;
    result.fabric_redispatches += u.dispatches > 1 ? u.dispatches - 1 : 0;
    if (!u.done_frame) continue;
    result.stalls += u.done_frame->stalls;
    result.harness_retries += u.done_frame->harness_retries;
    result.retry_backoff_waits += u.done_frame->backoff_waits;
    result.retry_backoff_seconds += u.done_frame->backoff_seconds;
    result.journal_flushes += u.done_frame->executed;
    result.throughput.spin_skips += u.done_frame->spin_skips;
    result.throughput.spin_skipped_cycles +=
        u.done_frame->spin_skipped_cycles;
  }
  result.throughput.jobs = shards * opt_.jobs;
  result.throughput.plan_seconds = plan.plan_seconds;
  result.throughput.run_seconds = seconds_between(run_start, Clock::now());
  result.throughput.wall_seconds =
      result.throughput.plan_seconds + result.throughput.run_seconds;
  return result;
}

}  // namespace kfi::fabric
