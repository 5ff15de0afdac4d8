#include "inject/record.hpp"

#include "common/error.hpp"

namespace kfi::inject {

FaultSite& InjectionTarget::site() {
  KFI_CHECK(!sites.empty(), "target has no fault sites");
  return sites.front();
}

const FaultSite& InjectionTarget::site() const {
  KFI_CHECK(!sites.empty(), "target has no fault sites");
  return sites.front();
}

InjectionTarget InjectionTarget::code(Addr entry, Addr addr, u32 insn_len,
                                      u32 bit, std::string function) {
  InjectionTarget t;
  t.kind = CampaignKind::kCode;
  t.code_entry = entry;
  t.function = std::move(function);
  FaultSite s;
  s.addr = addr;
  s.insn_len = insn_len;
  s.bit = bit;
  t.sites.push_back(s);
  return t;
}

InjectionTarget InjectionTarget::data(Addr addr, u32 bit) {
  InjectionTarget t;
  t.kind = CampaignKind::kData;
  FaultSite s;
  s.addr = addr;
  s.bit = bit;
  t.sites.push_back(s);
  return t;
}

InjectionTarget InjectionTarget::stack(u32 task, double depth_frac, u32 bit,
                                       double at_frac) {
  InjectionTarget t;
  t.kind = CampaignKind::kStack;
  t.inject_at_frac = at_frac;
  FaultSite s;
  s.task = task;
  s.depth_frac = depth_frac;
  s.bit = bit;
  t.sites.push_back(s);
  return t;
}

InjectionTarget InjectionTarget::sysreg(u32 reg_index, u32 bit,
                                        double at_frac) {
  InjectionTarget t;
  t.kind = CampaignKind::kRegister;
  t.inject_at_frac = at_frac;
  FaultSite s;
  s.reg_index = reg_index;
  s.bit = bit;
  t.sites.push_back(s);
  return t;
}

InjectionTarget InjectionTarget::errno_return(u32 invocation, u32 ret) {
  InjectionTarget t;
  t.kind = CampaignKind::kErrno;
  FaultSite s;
  s.task = invocation;  // eligible-invocation index (field overload)
  s.bit = ret;          // forced return word (field overload)
  t.sites.push_back(s);
  return t;
}

LegacyTargetFields legacy_target_fields(const InjectionTarget& target) {
  LegacyTargetFields f;
  f.kind = target.kind;
  f.function = target.function;
  f.reg_name = target.reg_name;
  f.inject_at_frac = target.inject_at_frac;
  if (target.sites.empty()) return f;
  const FaultSite& s = target.sites.front();
  switch (target.kind) {
    case CampaignKind::kCode:
      f.code_entry = target.code_entry;
      f.code_addr = s.addr;
      f.code_insn_len = s.insn_len;
      f.code_bit = s.bit;
      break;
    case CampaignKind::kData:
      f.data_addr = s.addr;
      f.data_bit = s.bit;
      break;
    case CampaignKind::kStack:
      f.stack_task = s.task;
      f.stack_depth_frac = s.depth_frac;
      f.stack_bit = s.bit;
      break;
    case CampaignKind::kRegister:
      f.reg_index = s.reg_index;
      f.reg_bit = s.bit;
      break;
    case CampaignKind::kErrno:
      // Errno targets never take the legacy (pre-FaultModel) path: the
      // campaign family postdates it, so the legacy fingerprint layout
      // can never contain one.
      KFI_CHECK(false, "errno targets have no legacy field view");
      break;
  }
  return f;
}

std::string campaign_kind_name(CampaignKind kind) {
  switch (kind) {
    case CampaignKind::kStack: return "stack";
    case CampaignKind::kRegister: return "register";
    case CampaignKind::kData: return "data";
    case CampaignKind::kCode: return "code";
    case CampaignKind::kErrno: return "errno";
  }
  return "unknown";
}

std::string outcome_name(OutcomeCategory outcome) {
  switch (outcome) {
    case OutcomeCategory::kNotActivated: return "Not Activated";
    case OutcomeCategory::kNotManifested: return "Not Manifested";
    case OutcomeCategory::kFailSilenceViolation: return "Fail Silence Violation";
    case OutcomeCategory::kKnownCrash: return "Known Crash";
    case OutcomeCategory::kHangOrUnknownCrash: return "Hang/Unknown Crash";
    case OutcomeCategory::kHarnessError: return "Harness Error (quarantined)";
    case OutcomeCategory::kNumOutcomes: break;
  }
  return "unknown";
}

}  // namespace kfi::inject
