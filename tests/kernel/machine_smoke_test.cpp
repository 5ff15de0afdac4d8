// End-to-end smoke tests: boot both simulated machines and drive the
// kernel through every system call, verifying functional correctness in
// the absence of injected faults.  Everything downstream (injection
// campaigns) assumes a fault-free kernel behaves identically to this.
#include <gtest/gtest.h>

#include "kernel/abi.hpp"
#include "kernel/layout.hpp"
#include "kernel/machine.hpp"
#include "workload/workload.hpp"

namespace kfi::kernel {
namespace {

class MachineSmokeTest : public ::testing::TestWithParam<isa::Arch> {
 protected:
  MachineSmokeTest() : machine_(GetParam(), MachineOptions{}) {}

  u32 must_syscall(Syscall nr, u32 a0 = 0, u32 a1 = 0, u32 a2 = 0) {
    const Event ev = machine_.syscall(nr, a0, a1, a2);
    EXPECT_EQ(ev.kind, EventKind::kSyscallDone)
        << "crash: " << (ev.kind == EventKind::kCrash
                             ? crash_cause_name(ev.crash.cause) + " at pc=" +
                                   std::to_string(ev.crash.pc) + " detail=" +
                                   ev.crash.detail
                             : "non-crash");
    return ev.ret;
  }

  Machine machine_;
};

TEST_P(MachineSmokeTest, GetpidReturnsTask0Pid) {
  EXPECT_EQ(must_syscall(Syscall::kGetpid), 1u);
}

TEST_P(MachineSmokeTest, YieldCompletes) {
  EXPECT_EQ(must_syscall(Syscall::kYield), 0u);
}

TEST_P(MachineSmokeTest, ReadReturnsDiskPattern) {
  const Addr buf = kUserBufBase;
  const u32 n = must_syscall(Syscall::kRead, 0, buf, kBlockSize);
  ASSERT_EQ(n, kBlockSize);
  // File 0 starts at disk block 0; pattern byte = (block*31 + i*7 + 3).
  for (u32 i = 0; i < kBlockSize; ++i) {
    EXPECT_EQ(machine_.space().vread8(buf + i), (i * 7 + 3) & 0xFF) << i;
  }
}

TEST_P(MachineSmokeTest, SequentialReadsAdvancePosition) {
  const Addr buf = kUserBufBase;
  must_syscall(Syscall::kRead, 0, buf, kBlockSize);
  must_syscall(Syscall::kRead, 0, buf, kBlockSize);
  // Third block of file 0 = disk block 2.
  must_syscall(Syscall::kRead, 0, buf, kBlockSize);
  for (u32 i = 0; i < kBlockSize; ++i) {
    EXPECT_EQ(machine_.space().vread8(buf + i), (2 * 31 + i * 7 + 3) & 0xFF);
  }
}

TEST_P(MachineSmokeTest, WriteReadBackRoundTrip) {
  const Addr wbuf = kUserBufBase;
  const Addr rbuf = kUserBufBase + 0x800;
  for (u32 i = 0; i < kBlockSize; ++i) {
    machine_.space().vwrite8(wbuf + i, static_cast<u8>(0xA0 ^ i));
  }
  ASSERT_EQ(must_syscall(Syscall::kWrite, 1, wbuf, kBlockSize), kBlockSize);
  // Rewind file 1 and read back through the cache.
  machine_.write_global("file_table", 0, 1, "pos");
  ASSERT_EQ(must_syscall(Syscall::kRead, 1, rbuf, kBlockSize), kBlockSize);
  for (u32 i = 0; i < kBlockSize; ++i) {
    EXPECT_EQ(machine_.space().vread8(rbuf + i), (0xA0 ^ i) & 0xFF) << i;
  }
}

TEST_P(MachineSmokeTest, AllocFreeRoundTrip) {
  const u32 page = must_syscall(Syscall::kAlloc);
  ASSERT_NE(page, 0u);
  EXPECT_EQ(machine_.space().vread32(page), page ^ 0x5A5A5A5Au);
  EXPECT_EQ(must_syscall(Syscall::kFree, page), 0u);
}

TEST_P(MachineSmokeTest, AllocExhaustionReturnsZero) {
  u32 last = 0;
  for (u32 i = 0; i < kNumPages; ++i) {
    last = must_syscall(Syscall::kAlloc);
    EXPECT_NE(last, 0u);
  }
  EXPECT_EQ(must_syscall(Syscall::kAlloc), 0u);
}

TEST_P(MachineSmokeTest, SendRecvLoopback) {
  const Addr sbuf = kUserBufBase;
  const Addr rbuf = kUserBufBase + 0x800;
  const u32 len = 48;
  for (u32 i = 0; i < len; ++i) {
    machine_.space().vwrite8(sbuf + i, static_cast<u8>(i * 3 + 1));
  }
  ASSERT_EQ(must_syscall(Syscall::kSend, sbuf, len), len);
  // Delivery happens in ksoftirqd; yield until the packet arrives.
  u32 got = 0;
  for (u32 tries = 0; tries < 64 && got == 0; ++tries) {
    must_syscall(Syscall::kYield);
    got = must_syscall(Syscall::kRecv, rbuf, 256);
  }
  ASSERT_EQ(got, len);
  for (u32 i = 0; i < len; ++i) {
    EXPECT_EQ(machine_.space().vread8(rbuf + i), (i * 3 + 1) & 0xFF) << i;
  }
}

TEST_P(MachineSmokeTest, KernelThreadsRunAndJournalCommits) {
  // Drive enough syscalls (and therefore timer ticks + schedules) that
  // kupdate flushes and kjournald commits at least once.
  const Addr buf = kUserBufBase;
  for (u32 i = 0; i < 400; ++i) {
    must_syscall(Syscall::kWrite, 1, buf, kBlockSize);
    must_syscall(Syscall::kYield);
  }
  EXPECT_GT(machine_.read_global("jiffies"), 0u);
  EXPECT_GT(machine_.read_global("flush_count"), 0u);
  EXPECT_GT(machine_.read_global("commit_count"), 0u);
  EXPECT_GT(machine_.read_global("intr_count"), 0u);
}

TEST_P(MachineSmokeTest, SnapshotRestoreIsBitExact) {
  const Addr buf = kUserBufBase;
  must_syscall(Syscall::kRead, 0, buf, kBlockSize);
  must_syscall(Syscall::kAlloc);
  machine_.restore(machine_.boot_snapshot());
  // After "reboot", state matches a fresh machine: same first read result.
  EXPECT_EQ(machine_.read_global("syscall_count"), 0u);
  const u32 n = must_syscall(Syscall::kRead, 0, buf, kBlockSize);
  EXPECT_EQ(n, kBlockSize);
  EXPECT_EQ(machine_.read_global("syscall_count"), 1u);
}

TEST_P(MachineSmokeTest, BadFdReturnsError) {
  EXPECT_EQ(must_syscall(Syscall::kRead, 99, kUserBufBase, kBlockSize),
            kErrReturn);
}

INSTANTIATE_TEST_SUITE_P(BothArchs, MachineSmokeTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return info.param == isa::Arch::kCisca ? "cisca"
                                                                  : "riscf";
                         });

}  // namespace
}  // namespace kfi::kernel

namespace kfi::kernel {
namespace {

// A fault-free kernel must survive the full workload suite across many
// seeds and timer alignments — any baseline crash would contaminate every
// injection campaign (this guards the class of bug where the timer
// interrupt glue corrupted live registers).
class FaultFreeBaselineTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, int>> {};

TEST_P(FaultFreeBaselineTest, SuiteRunsCleanAcrossSeeds) {
  const auto& [arch, seed] = GetParam();
  MachineOptions opts;
  opts.seed = 0x9000 + static_cast<u64>(seed) * 77;
  Machine machine(arch, opts);
  auto wl = workload::make_suite(1);
  wl->reset(static_cast<u64>(seed) * 1337 + 1);
  u32 issued = 0;
  while (auto req = wl->next(machine)) {
    const Event ev = machine.syscall(req->nr, req->a0, req->a1, req->a2);
    ASSERT_EQ(ev.kind, EventKind::kSyscallDone)
        << "baseline crash after " << issued << " syscalls: "
        << crash_cause_name(ev.crash.cause) << " pc=" << std::hex
        << ev.crash.pc << " addr=" << ev.crash.addr;
    ASSERT_TRUE(wl->check(machine, ev.ret)) << "baseline FSV @" << issued;
    ++issued;
  }
  EXPECT_TRUE(wl->final_check(machine));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultFreeBaselineTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Range(0, 6)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_seed"
                             : "riscf_seed") +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace kfi::kernel
