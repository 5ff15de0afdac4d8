#include "inject/campaign.hpp"

#include "inject/experiment.hpp"

namespace kfi::inject {

CampaignResult run_campaign(const CampaignSpec& spec, const ProgressFn& progress,
                            u32 jobs, bool trace) {
  const CampaignPlan plan = build_campaign_plan(spec);
  RunControl control;
  control.trace = trace;
  return CampaignEngine(jobs).run(plan, progress, control);
}

InjectionRecord run_single_injection(kernel::Machine& machine,
                                     workload::Workload& wl,
                                     const InjectionTarget& target, u64 seed,
                                     trace::TaintEngine* taint,
                                     const FaultModel& model) {
  const u64 nominal = calibrate_workload(machine, wl, seed);
  const double kernel_fraction = calibrated_kernel_fraction(machine, nominal);
  UdpChannel channel(0.0, seed);
  CrashCollector collector;
  ExperimentRunner runner(machine, wl, channel, collector, nominal,
                          static_cast<u64>(3.0 * static_cast<double>(nominal)) +
                              2 * machine.options().timer_period,
                          kernel_fraction);
  runner.set_fault_model(model);
  if (taint != nullptr) {
    machine.set_trace_sink(taint);
    runner.set_taint_engine(taint);
  }
  InjectionRecord record = runner.run_one(target, seed, 0);
  if (taint != nullptr) machine.set_trace_sink(nullptr);
  return record;
}

std::vector<InjectionRecord> completed_records(const CampaignResult& result) {
  if (result.done_mask.size() != result.records.size()) {
    return result.records;  // pre-supervisor result: everything counts
  }
  std::vector<InjectionRecord> out;
  out.reserve(result.records.size());
  for (size_t i = 0; i < result.records.size(); ++i) {
    if (result.done_mask[i]) out.push_back(result.records[i]);
  }
  return out;
}

void mix_record(Fnv64& fnv, const InjectionRecord& r) {
  fnv.mix(static_cast<u64>(r.outcome));
  fnv.mix(r.activated ? 1 : 0);
  fnv.mix(r.activation_cycle);
  fnv.mix(r.latency_base_cycle);
  fnv.mix(r.cycles_to_crash);
  fnv.mix(r.crashed ? 1 : 0);
  fnv.mix(r.crash_report_received ? 1 : 0);
  fnv.mix(static_cast<u64>(r.crash.cause));
  fnv.mix(r.crash.pc);
  fnv.mix(r.syscalls_completed);
  if (r.cascade_valid) {
    // The cascade digest is part of an errno campaign's result (unlike
    // the observational propagation block).  Physical campaigns never
    // set cascade_valid, so their fingerprints are byte-identical to
    // pre-errno builds.
    fnv.mix(0xCA5CADEull);  // domain separator
    fnv.mix(r.cascade.forced);
    fnv.mix(r.cascade.first_forced_op);
    fnv.mix(r.cascade.first_forced_syscall);
    fnv.mix(r.cascade.natural_ret);
    fnv.mix(r.cascade.forced_ret);
    fnv.mix(r.cascade.deviating_ops);
    fnv.mix(r.cascade.cascade_length);
    fnv.mix(static_cast<u64>(r.cascade.containment));
    fnv.mix(r.cascade.checked_at_site ? 1 : 0);
    fnv.mix(r.cascade.state_deviation ? 1 : 0);
  }
}

u64 result_fingerprint(const CampaignResult& result) {
  Fnv64 fnv;
  fnv.mix(result.nominal_cycles);
  fnv.mix(result.reboots);
  fnv.mix(result.datagrams_sent);
  fnv.mix(result.datagrams_dropped);
  for (const auto& r : result.records) mix_record(fnv, r);
  return fnv.h;
}

std::string unfingerprinted_difference(const InjectionRecord& a,
                                       const InjectionRecord& b) {
  if (!(a.target == b.target)) return "target";
  if (a.activation_known != b.activation_known) return "activation_known";
  if (a.crash.addr != b.crash.addr) return "crash.addr";
  if (a.crash.has_addr != b.crash.has_addr) return "crash.has_addr";
  if (a.crash.detail != b.crash.detail) return "crash.detail";
  return "";
}

}  // namespace kfi::inject
