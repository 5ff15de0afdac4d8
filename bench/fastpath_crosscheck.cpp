// Fast-path cross-check: the production machine configuration
// (superblocks with spin-loop fast-forward, dirty-page reboot,
// copy-on-write pages) is a pure speedup over the plain reference
// configuration (kernel::MachineOptions::reference: single-step decode
// from memory, full-copy reboot, every page private), so a campaign must
// merge to the bit-identical result under both.  This is the acceptance
// gate for every hot-loop optimization: one frozen plan per case,
// executed under both configurations, compared through
// inject::result_fingerprint and, record by record, through
// inject::unfingerprinted_difference.  Exits non-zero on any divergence.
//
// Cases, on both arches: every campaign kind (errno included), a two-bit
// data shape and a stack rate trigger, each for three seeds; then the
// seed-1 n=186 code campaigns, which hold spin hangs, so production must
// report at least one spin-loop fast-forward on each.
//
// Knobs: KFI_INJECTIONS (default 24, the per-case size of the seed
// sweep), KFI_JOBS.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "errnoinj/errno_model.hpp"

using namespace kfi;

namespace {

struct Case {
  std::string name;
  inject::CampaignSpec spec;
  bool expect_spin_skips = false;
};

inject::CampaignSpec make_spec(isa::Arch arch, inject::CampaignKind kind,
                               u32 n, u64 seed) {
  inject::CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = n;
  spec.seed = seed;
  if (kind == inject::CampaignKind::kErrno) {
    std::string bad;
    spec.errno_model.trigger = errnoinj::ErrnoTrigger::kNth;
    spec.errno_model.syscalls =
        *errnoinj::parse_syscall_list("read,write", &bad);
  }
  return spec;
}

std::vector<Case> cases(u32 n) {
  std::vector<Case> out;
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    for (const u64 seed : {1u, 7u, 77u}) {
      for (const auto kind :
           {inject::CampaignKind::kStack, inject::CampaignKind::kRegister,
            inject::CampaignKind::kData, inject::CampaignKind::kCode,
            inject::CampaignKind::kErrno}) {
        out.push_back({campaign_kind_name(kind),
                       make_spec(arch, kind, n, seed)});
      }
      Case bits2{"data-bits2",
                 make_spec(arch, inject::CampaignKind::kData, n, seed)};
      bits2.spec.model.shape = inject::FaultShape::kMultiBit;
      bits2.spec.model.bits = 2;
      out.push_back(bits2);
      Case rate{"stack-rate2",
                make_spec(arch, inject::CampaignKind::kStack, n, seed)};
      rate.spec.model.trigger = inject::FaultTrigger::kRate;
      rate.spec.model.rate = 2.0;
      out.push_back(rate);
    }
  }
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    out.push_back({"code-spin",
                   make_spec(arch, inject::CampaignKind::kCode, 186, 1),
                   /*expect_spin_skips=*/true});
  }
  return out;
}

}  // namespace

int main() {
  const u32 n = bench::env_u32("KFI_INJECTIONS", 24);
  const u32 jobs = bench::env_jobs();
  bool ok = true;

  // CI guards on this count: production and reference, nothing else.
  std::printf("variants=2\n");

  for (const Case& c : cases(n)) {
    // The plan does not depend on the configuration (calibration runs on
    // a default machine); build it once and only flip the workers'.
    const inject::CampaignPlan plan = inject::build_campaign_plan(c.spec);
    const inject::CampaignResult production =
        inject::CampaignEngine(jobs).run(plan);
    inject::CampaignPlan reference_plan = plan;
    reference_plan.spec.machine.reference = true;
    const inject::CampaignResult reference =
        inject::CampaignEngine(jobs).run(reference_plan);
    const u64 fp = inject::result_fingerprint(production);
    const u64 ref_fp = inject::result_fingerprint(reference);
    // The fingerprint leaves some record fields out; compare those too.
    // Both results hold one record per target of the same plan.
    std::string differing;
    for (size_t i = 0; i < production.records.size(); ++i) {
      const std::string field = inject::unfingerprinted_difference(
          production.records[i], reference.records[i]);
      if (field.empty()) continue;
      differing = "record " + std::to_string(i) + " differs in " + field;
      break;
    }
    const bool same = fp == ref_fp && differing.empty();
    const bool skipped = production.throughput.spin_skips > 0 &&
                         reference.throughput.spin_skips == 0;
    std::printf("%s %-11s seed=%-2" PRIu64 " n=%-3u result fingerprint: "
                "%016" PRIx64 " reference=%s",
                isa::arch_name(c.spec.arch).c_str(), c.name.c_str(),
                c.spec.seed, plan.spec.injections, fp,
                same ? "ok" : "DIVERGED");
    if (c.expect_spin_skips) {
      std::printf(" spin-loop fast-forwards: %" PRIu64 " (reference %" PRIu64
                  ")",
                  production.throughput.spin_skips,
                  reference.throughput.spin_skips);
    }
    std::printf("\n");
    if (!same) {
      ok = false;
      std::fprintf(stderr,
                   "FATAL: %s %s seed %" PRIu64 " diverged (fp %016" PRIx64
                   " vs reference %016" PRIx64 ")\n",
                   isa::arch_name(c.spec.arch).c_str(), c.name.c_str(),
                   c.spec.seed, fp, ref_fp);
      if (!differing.empty()) {
        std::fprintf(stderr, "FATAL: %s\n", differing.c_str());
      }
    }
    if (c.expect_spin_skips && !skipped) {
      ok = false;
      std::fprintf(stderr,
                   "FATAL: %s %s: production took no spin-loop "
                   "fast-forward (or the reference took one)\n",
                   isa::arch_name(c.spec.arch).c_str(), c.name.c_str());
    }
  }
  std::printf("%s\n", ok ? "fast paths bit-identical" : "FAST PATHS DIVERGED");
  return ok ? 0 : 1;
}
