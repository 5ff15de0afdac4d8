// Campaign-engine scaling: one frozen CampaignPlan per arch, executed at
// several worker counts.  Reports wall-clock, injections/sec, simulated
// cycles/sec, speedup vs serial, and resident memory per worker (private
// pages held at campaign end; with copy-on-write boot-snapshot sharing
// this is the dirty working set, not a full image copy, so it stays
// roughly flat as jobs grow — sublinear total memory), and the spin-loop
// fast-forwards the workers took (Machine::run).  Verifies that
// every worker count produced the bit-identical merged result (the
// engine's determinism contract).  On a multicore host the stack campaign
// reaches >= 2x at --jobs 4; on a single hardware thread the rows
// collapse to ~1x, which is itself evidence that the parallel path adds
// no overhead.
//
// Also measures the durability tax: the same serial campaign with the
// supervisor's append-only journal enabled (one flushed entry per
// injection), cross-checked bit-identical and resumable.
//
// Knobs: KFI_INJECTIONS (default 2000), KFI_SEED, KFI_JOBS_MAX (default 4).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "inject/journal.hpp"
#include "kernel/abi.hpp"
#include "kernel/layout.hpp"
#include "mem/phys_mem.hpp"

namespace {

using namespace kfi;

/// Per-injection "reboot" cost, production (dirty-page) vs reference
/// (full-copy) restore: each rep dirties memory with one syscall (untimed
/// intent; it is cheap next to a full copy) and restores the boot
/// snapshot (the measured op).
void report_reboot_cost(isa::Arch arch) {
  for (const bool reference : {false, true}) {
    kernel::MachineOptions opts;
    opts.reference = reference;
    kernel::Machine machine(arch, opts);
    auto& pm = machine.space().phys();
    constexpr u32 kReps = 200;
    const u64 pages_before = pm.restore_pages_copied();
    const auto t0 = std::chrono::steady_clock::now();
    for (u32 i = 0; i < kReps; ++i) {
      machine.syscall(kernel::Syscall::kGetpid);
      machine.restore(machine.boot_snapshot());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kReps;
    const double pages =
        static_cast<double>(pm.restore_pages_copied() - pages_before) / kReps;
    std::printf(
        "reboot(%s, %s): %7.2f us/reboot  %6.1f pages copied (of %u)\n",
        isa::arch_name(arch).c_str(),
        reference ? "full-copy" : "dirty-page", us, pages, pm.num_pages());
  }
}

/// Journal overhead: serial campaign with every record flushed to the
/// append-only journal, vs the in-memory serial baseline.  Also proves
/// the journaled result is bit-identical and that a resume of the
/// completed journal replays it without executing anything.
int report_journal_cost(const inject::CampaignPlan& plan, u64 serial_fp,
                        double serial_seconds) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "kfi_scaling_bench.kfij")
          .string();
  std::filesystem::remove(path);
  {
    inject::InjectionJournal journal =
        inject::InjectionJournal::create(path, plan);
    inject::RunControl ctl;
    ctl.journal = &journal;
    const inject::CampaignResult result =
        inject::CampaignEngine(1).run(plan, {}, ctl);
    const u64 fp = inject::result_fingerprint(result);
    std::printf(
        "journal: run=%6.2fs  overhead=%+5.1f%%  %llu flushes  %.1f KiB  "
        "result=%s\n",
        result.throughput.run_seconds,
        serial_seconds > 0.0
            ? 100.0 * (result.throughput.run_seconds / serial_seconds - 1.0)
            : 0.0,
        static_cast<unsigned long long>(result.journal_flushes),
        static_cast<double>(std::filesystem::file_size(path)) / 1024.0,
        fp == serial_fp ? "bit-identical" : "DIVERGED");
    if (fp != serial_fp) {
      std::fprintf(stderr, "FATAL: journaled run diverged from serial\n");
      return 1;
    }
  }
  inject::InjectionJournal journal =
      inject::InjectionJournal::resume(path, plan);
  inject::RunControl ctl;
  ctl.journal = &journal;
  const inject::CampaignResult replayed =
      inject::CampaignEngine(1).run(plan, {}, ctl);
  std::filesystem::remove(path);
  if (inject::result_fingerprint(replayed) != serial_fp ||
      replayed.resumed_records != plan.targets.size()) {
    std::fprintf(stderr, "FATAL: journal replay diverged from serial\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  const u32 n = bench::env_u32("KFI_INJECTIONS", 2000);
  const u32 jobs_max = bench::env_u32("KFI_JOBS_MAX", 4);

  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    auto spec = bench::base_spec(arch, inject::CampaignKind::kStack, n);
    std::printf("== %s stack campaign, n=%u ==\n",
                isa::arch_name(arch).c_str(), spec.injections);
    const inject::CampaignPlan plan = inject::build_campaign_plan(spec);
    std::printf("plan: %.2fs (codegen + calibrate + profile + %zu targets)\n",
                plan.plan_seconds, plan.targets.size());

    double serial_seconds = 0.0;
    u64 serial_fp = 0;
    for (u32 jobs = 1; jobs <= jobs_max; jobs *= 2) {
      const inject::CampaignResult result =
          inject::CampaignEngine(jobs).run(plan);
      const u64 fp = inject::result_fingerprint(result);
      if (jobs == 1) {
        serial_seconds = result.throughput.run_seconds;
        serial_fp = fp;
      }
      const bool identical = fp == serial_fp;
      // COW proof: private pages per worker vs the full-image page count.
      // Sharing the boot snapshot means each worker holds only the pages
      // it dirtied since its last restore.
      const u32 total_pages =
          static_cast<u32>(kernel::kPhysBytes / mem::kPageSize);
      const double priv_per_worker =
          result.throughput.jobs > 0
              ? static_cast<double>(result.throughput.worker_private_pages) /
                    result.throughput.jobs
              : 0.0;
      std::printf(
          "jobs=%u  run=%6.2fs  %7.1f inj/s  %8.1f Msim-cyc/s  "
          "speedup=%.2fx  priv-pages/worker=%5.1f (max %u of %u)  "
          "spin-skips=%llu (%.1f Msim-cyc)  result=%s\n",
          jobs, result.throughput.run_seconds,
          result.throughput.injections_per_second(result.records.size()),
          result.throughput.simulated_cycles_per_second() / 1e6,
          serial_seconds / result.throughput.run_seconds, priv_per_worker,
          result.throughput.max_worker_private_pages, total_pages,
          static_cast<unsigned long long>(result.throughput.spin_skips),
          static_cast<double>(result.throughput.spin_skipped_cycles) / 1e6,
          identical ? "bit-identical" : "DIVERGED");
      if (!identical) {
        std::fprintf(stderr, "FATAL: jobs=%u diverged from serial (fp %" PRIx64
                             " vs %" PRIx64 ")\n",
                     jobs, fp, serial_fp);
        return 1;
      }
    }
    if (report_journal_cost(plan, serial_fp, serial_seconds) != 0) return 1;
    report_reboot_cost(arch);
    std::printf("\n");
  }
  return 0;
}
