#include "inject/plan.hpp"

#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "inject/target_gen.hpp"

namespace kfi::inject {

double calibrated_kernel_fraction(const kernel::Machine& machine,
                                  u64 nominal_cycles) {
  if (nominal_cycles == 0) return 0.15;
  return 1.0 - static_cast<double>(machine.user_cycles()) /
                   static_cast<double>(nominal_cycles);
}

kernel::MachineOptions campaign_machine_options(const CampaignSpec& spec) {
  kernel::MachineOptions mopts = spec.machine;
  mopts.seed ^= spec.seed;
  return mopts;
}

namespace {

/// Calibration-time hook that counts eligible syscall invocations without
/// ever forcing a result — the errno plan's draw-window measurement.
class EligibleCounter final : public kernel::SyscallResultHook {
 public:
  explicit EligibleCounter(const errnoinj::ErrnoModel& model)
      : model_(model) {}
  bool on_syscall_result(kernel::Syscall nr, u32* ret) override {
    (void)ret;
    if (model_.eligible(nr)) ++count_;
    return false;
  }
  u64 count() const { return count_; }

 private:
  const errnoinj::ErrnoModel& model_;
  u64 count_ = 0;
};

}  // namespace

CampaignPlan build_campaign_plan(const CampaignSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();

  spec.model.validate(spec.kind);
  spec.errno_model.validate();
  if (spec.kind == CampaignKind::kErrno && !spec.errno_model.enabled()) {
    throw errnoinj::ErrnoModelError(
        "errno model: an errno campaign needs eligible syscalls "
        "(--errno-syscalls)");
  }
  if (spec.kind != CampaignKind::kErrno && spec.errno_model.enabled()) {
    throw errnoinj::ErrnoModelError(
        "errno model: errno knobs set on a physical campaign (--kind " +
        campaign_kind_name(spec.kind) + ")");
  }

  CampaignPlan plan;
  plan.spec = spec;
  plan.image =
      kernel::build_shared_kernel_image(spec.arch, spec.machine.spinlock_debug);

  const kernel::MachineOptions mopts = campaign_machine_options(spec);
  kernel::Machine machine(spec.arch, mopts, plan.image);
  auto wl = workload::make_suite(spec.workload_scale);

  // One golden pass calibrates, profiles and counts.  The entry profile
  // is an observational trace sink and the counting hook declines every
  // call, so nominal_cycles is bit-identical to an uninstrumented
  // calibration (the profile and hook-parity tests pin this).
  EligibleCounter counter(spec.errno_model);
  if (spec.kind == CampaignKind::kErrno) {
    machine.set_syscall_result_hook(&counter);
  }
  plan.nominal_cycles =
      calibrate_workload(machine, *wl, spec.seed, &plan.hot_functions);
  machine.set_syscall_result_hook(nullptr);
  plan.eligible_invocations = counter.count();
  plan.kernel_fraction =
      calibrated_kernel_fraction(machine, plan.nominal_cycles);

  TargetGenerator generator(*plan.image, plan.hot_functions,
                            machine.cpu().sysregs().count(),
                            spec.seed * 0x9E3779B9u + 17);
  plan.targets =
      spec.kind == CampaignKind::kErrno
          ? generator.generate_errno(spec.errno_model, spec.injections,
                                     plan.eligible_invocations)
          : generator.generate(spec.kind, spec.injections, spec.model);

  plan.budget_cycles = static_cast<u64>(spec.budget_factor *
                                        static_cast<double>(plan.nominal_cycles)) +
                       2 * mopts.timer_period;

  Rng seeds(spec.seed ^ 0xDADA);
  plan.run_seeds.reserve(plan.targets.size());
  for (size_t i = 0; i < plan.targets.size(); ++i) {
    plan.run_seeds.push_back(seeds.next_u64());
  }

  plan.plan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return plan;
}

u64 plan_fingerprint(const CampaignPlan& plan) {
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  auto mix_double = [&mix](double d) {
    u64 bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  auto mix_string = [&mix](const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<u8>(c));
  };

  const CampaignSpec& spec = plan.spec;
  mix(static_cast<u64>(spec.arch));
  mix(static_cast<u64>(spec.kind));
  mix(spec.injections);
  mix(spec.seed);
  mix(spec.workload_scale);
  mix_double(spec.channel_loss);
  mix_double(spec.budget_factor);
  mix(spec.machine.timer_period);
  mix(spec.machine.user_cycles_mean);
  mix(spec.machine.g4_stack_wrapper ? 1 : 0);
  mix(spec.machine.p4_stack_limit_check ? 1 : 0);
  mix(spec.machine.spinlock_debug ? 1 : 0);
  mix(spec.machine.seed);

  // The legacy (single-bit single-shot) model mixes nothing of itself and
  // hashes each target through its flat legacy view, reproducing the
  // pre-FaultModel byte stream exactly — old journals keep resuming.
  // Any other model mixes its knobs plus the full site lists.
  const bool legacy = plan.spec.model.is_legacy() &&
                      spec.kind != CampaignKind::kErrno;
  if (!legacy && !plan.spec.model.is_legacy()) {
    mix(0xFA017ull);  // domain separator: model block follows
    mix(static_cast<u64>(spec.model.shape));
    mix(static_cast<u64>(spec.model.trigger));
    mix(spec.model.bits);
    mix(spec.model.burst_span);
    mix_double(spec.model.rate);
    mix(static_cast<u64>(spec.model.opclass));
  }
  if (spec.kind == CampaignKind::kErrno) {
    mix(0xE4401ull);  // domain separator: errno-model block follows
    mix(errnoinj::errno_model_fingerprint(spec.errno_model));
    mix(plan.eligible_invocations);
  }

  mix(plan.nominal_cycles);
  mix_double(plan.kernel_fraction);
  mix(plan.budget_cycles);
  mix(plan.targets.size());
  for (const InjectionTarget& t : plan.targets) {
    if (legacy) {
      const LegacyTargetFields f = legacy_target_fields(t);
      mix(static_cast<u64>(f.kind));
      mix(f.code_entry);
      mix(f.code_addr);
      mix(f.code_insn_len);
      mix(f.code_bit);
      mix_string(f.function);
      mix(f.data_addr);
      mix(f.data_bit);
      mix(f.stack_task);
      mix_double(f.stack_depth_frac);
      mix(f.stack_bit);
      mix(f.reg_index);
      mix(f.reg_bit);
      mix_string(f.reg_name);
      mix_double(f.inject_at_frac);
    } else {
      mix(static_cast<u64>(t.kind));
      mix(t.code_entry);
      mix_string(t.function);
      mix(static_cast<u64>(t.opclass));
      mix_string(t.reg_name);
      mix_double(t.inject_at_frac);
      mix(t.sites.size());
      for (const FaultSite& s : t.sites) {
        mix(s.addr);
        mix(s.bit);
        mix(s.insn_len);
        mix(s.task);
        mix_double(s.depth_frac);
        mix(s.reg_index);
        mix_double(s.at_frac);
      }
    }
  }
  for (const u64 s : plan.run_seeds) mix(s);
  return h;
}

}  // namespace kfi::inject
