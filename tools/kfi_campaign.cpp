// kfi_campaign: run one injection campaign from the command line.
//
//   kfi_campaign --arch p4|g4 --kind stack|register|data|code|errno
//                [--n COUNT] [--seed S] [--jobs N] [--loss P] [--scale K]
//                [--fault-model single-bit|multi-bit|burst|opclass]
//                [--bits K] [--burst SPAN] [--rate R] [--opclass CLASS]
//                [--errno-model nth|rate|nth-drawn|rate-drawn]
//                [--errno-syscalls LIST] [--errno-rate R] [--errno-nth N]
//                [--journal PATH] [--resume] [--retries K] [--stall SECS]
//                [--step-budget N] [--journal-flush fsync|flush]
//                [--fabric N] [--min-workers K] [--lease SECS]
//                [--fabric-backoff BASE] [--fabric-backoff-cap CAP]
//                [--max-restarts K] [--chaos-kill-after N]
//                [--worker-bin PATH] [--hosts H:P[,H:P...]]
//                [--heartbeat SECS] [--connect-timeout SECS]
//                [--expect-plan-fp HEX16] [--dry-run]
//                [--no-wrapper] [--p4-stackcheck]
//                [--no-spinlock-debug] [--csv PREFIX]
//                [--trace] [--trace-out CSV]
//
// --jobs N runs the campaign on N worker threads (0 = hardware
// concurrency; default 1 = serial).  The merged result is bit-identical
// for any worker count — parallelism only changes wall-clock time.
//
// --journal PATH makes the campaign durable: every completed injection is
// flushed to an append-only journal, and Ctrl-C exits cleanly with resume
// instructions.  --resume (requires --journal) skips already-journaled
// indices; the resumed result is bit-identical to an uninterrupted run.
// --retries/--stall/--step-budget tune the supervisor's fault isolation.
//
// --fabric N runs the campaign as N crash-isolated worker PROCESSES
// (kfi_worker), one shard each, coordinated over heartbeat leases with
// deterministic-backoff restarts and re-dispatch of a dead worker's
// remaining indices.  Requires --journal (shard journals live at
// PATH.shard<k>of<n>.kfij); --jobs then means engine threads per worker.
// kill -9 any worker — or the coordinator itself — and rerunning with
// --resume continues from the shard journals; the spliced result's
// fingerprint is byte-identical to the single-process run.
//
// --hosts runs the campaign across kfi_campaignd daemons over TCP, one
// shard per endpoint.  Requires --journal (retrieved shard journals land
// at PATH.shard<k>of<n>.kfij).  Daemons are crash domains with their own
// local journals: kill -9 a daemon mid-campaign and the coordinator
// revokes its lease, backs off deterministically, and re-dispatches;
// re-submissions resume the daemon-side journal so completed indices
// never re-execute.  The spliced result's fingerprint is bit-identical
// to the serial run.  While running, the progress line shows each host's
// live outcome tally.  --expect-plan-fp HEX16 pins the plan fingerprint
// up front: a mismatch (here or on any daemon) is a typed refusal before
// any injection runs.
//
// --dry-run prints the plan fingerprint, the fault/errno model
// fingerprints, and the shard map (who would run what, against which
// journals), then exits without executing anything.
//
// --fault-model selects what each injection corrupts (default: the
// paper's single-bit flip).  --bits K / --burst SPAN / --opclass CLASS
// imply their shape; --rate R switches the trigger to a Poisson process
// with mean R events per nominal run, pre-drawn at plan time so results
// stay deterministic and resumable.  Bad knob combinations are rejected
// before the plan is built (exit 2).
//
// --errno-* flags select the errno campaign family (--kind errno): no
// physical corruption — instead error returns are forced at the syscall
// boundary per a plan-frozen schedule, and the report shows how far each
// forced error cascades through the workload.  Any --errno-* flag implies
// --kind errno; combining them with physical fault-model knobs
// (--fault-model/--bits/--burst/--rate/--opclass) is rejected up front
// (exit 2), as is --kind errno without an eligible syscall set.
//
// --trace runs the campaign with the error-propagation trace subsystem
// attached: every record carries a PropagationSummary, the report gains a
// propagation segment, and journals persist the summaries.
// Observational — the result fingerprint matches an untraced run.
// --trace-out CSV (implies --trace) additionally writes one propagation
// row per traced record.
//
// Prints the Table-5/6-style row, the campaign throughput, the
// crash-cause distribution against the paper's reference, and the
// Figure-16 latency buckets; optionally writes PREFIX.records.csv /
// PREFIX.tally.csv / PREFIX.latency.csv.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "analysis/cascade.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/shard.hpp"
#include "analysis/csv.hpp"
#include "analysis/propagation.hpp"
#include "analysis/report.hpp"
#include "errnoinj/errno_model.hpp"
#include "inject/campaign.hpp"
#include "inject/fault_model.hpp"
#include "inject/journal.hpp"
#include "isa/opclass.hpp"

using namespace kfi;

namespace {

std::atomic<bool> g_cancel{false};

void on_sigint(int) { g_cancel.store(true); }

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --arch p4|g4 --kind stack|register|data|code|errno\n"
               "          [--n COUNT] [--seed S] [--jobs N] [--loss P]\n"
               "          [--fault-model single-bit|multi-bit|burst|opclass]\n"
               "          [--bits K] [--burst SPAN] [--rate R]\n"
               "          [--opclass alu|loadstore|branch|system|other]\n"
               "          [--errno-model nth|rate|nth-drawn|rate-drawn]\n"
               "          [--errno-syscalls LIST|all] [--errno-rate R]\n"
               "          [--errno-nth N]\n"
               "          [--scale K] [--journal PATH] [--resume]\n"
               "          [--retries K] [--stall SECS] [--step-budget N]\n"
               "          [--journal-flush fsync|flush] [--fabric N]\n"
               "          [--min-workers K] [--lease SECS]\n"
               "          [--fabric-backoff BASE] [--fabric-backoff-cap C]\n"
               "          [--max-restarts K] [--chaos-kill-after N]\n"
               "          [--worker-bin PATH] [--hosts H:P[,H:P...]]\n"
               "          [--heartbeat SECS] [--connect-timeout SECS]\n"
               "          [--expect-plan-fp HEX16] [--dry-run]\n"
               "          [--no-wrapper] [--p4-stackcheck]\n"
               "          [--no-spinlock-debug] [--csv PREFIX] [--quiet]\n"
               "          [--trace] [--trace-out CSV]\n"
               "  --jobs N:    worker threads (0 = hardware concurrency,\n"
               "               default 1); results are bit-identical for any N\n"
               "  --journal P: append every completed injection to journal P;\n"
               "               Ctrl-C flushes and prints resume instructions\n"
               "  --resume:    skip indices already in the journal (requires\n"
               "               --journal); bit-identical to an unbroken run\n"
               "  --fault-model M: what each injection corrupts (default\n"
               "               single-bit, the paper's model)\n"
               "  --bits K:    flip K distinct bits per fault (implies\n"
               "               multi-bit)\n"
               "  --burst S:   flip S adjacent bits per fault (implies burst)\n"
               "  --rate R:    Poisson trigger, mean R faults per nominal\n"
               "               run, pre-drawn at plan time (deterministic)\n"
               "  --opclass C: restrict code faults to one instruction\n"
               "               class (implies opclass; code campaigns only)\n"
               "  --errno-model M: errno campaign trigger/value (nth forces\n"
               "               -1 at one eligible invocation; rate draws a\n"
               "               Poisson event count; -drawn variants force a\n"
               "               drawn negative errno instead of -1); any\n"
               "               --errno-* flag implies --kind errno\n"
               "  --errno-syscalls L: comma list of eligible syscalls\n"
               "               (read,write,alloc,free,send,recv or all)\n"
               "  --errno-rate R: mean forced errors per run (implies the\n"
               "               rate trigger)\n"
               "  --errno-nth N: force at the Nth eligible invocation\n"
               "               (default: drawn per run)\n"
               "  --retries K: harness-error retries per index before\n"
               "               quarantine (default 1)\n"
               "  --journal-flush P: journal durability policy — fsync\n"
               "               (default, crash-durable) or flush (faster,\n"
               "               loses the OS-buffered tail on power loss)\n"
               "  --fabric N:  run as N crash-isolated worker processes\n"
               "               (requires --journal; shard journals at\n"
               "               PATH.shard<k>of<n>.kfij; kill -9 safe, the\n"
               "               spliced result is bit-identical to --jobs)\n"
               "  --min-workers K: abort once fewer than K worker slots\n"
               "               survive (default 1); journals stay resumable\n"
               "  --lease S:   heartbeat lease — a worker silent for S\n"
               "               seconds is killed and its shard re-dispatched\n"
               "  --fabric-backoff B: restart backoff base seconds\n"
               "               (deterministic exponential, cap via\n"
               "               --fabric-backoff-cap)\n"
               "  --max-restarts K: worker deaths one slot absorbs before\n"
               "               retirement (default 3)\n"
               "  --chaos-kill-after N: each shard's first worker SIGKILLs\n"
               "               itself after N injections (crash testing)\n"
               "  --worker-bin P: kfi_worker binary (default: next to\n"
               "               kfi_campaign)\n"
               "  --hosts L:   run across kfi_campaignd daemons (one shard\n"
               "               per host:port endpoint; requires --journal;\n"
               "               --min-workers/--lease/--fabric-backoff/\n"
               "               --max-restarts apply to hosts)\n"
               "  --heartbeat S: heartbeat period requested of workers and\n"
               "               daemons (default 1.0)\n"
               "  --connect-timeout S: TCP connect timeout per dispatch\n"
               "               (default 5.0)\n"
               "  --expect-plan-fp H: refuse (typed, before any injection)\n"
               "               unless the built plan's fingerprint is H\n"
               "  --dry-run:   print plan/model fingerprints and the shard\n"
               "               map, then exit without executing\n"
               "  --stall S:   wall-clock watchdog budget per injection in\n"
               "               seconds (default off)\n"
               "  --trace:     shadow-state error-propagation tracing; adds\n"
               "               a propagation report segment (observational:\n"
               "               results are bit-identical with it off)\n"
               "  --trace-out CSV: write per-injection propagation metrics\n"
               "               to CSV (implies --trace)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  inject::CampaignSpec spec;
  spec.injections = 500;
  std::string csv_prefix;
  std::string trace_out;
  std::string journal_path;
  bool resume = false;
  inject::RunControl control;
  u32 jobs = 1;
  inject::FlushPolicy flush = inject::FlushPolicy::kFsync;
  fabric::FabricOptions fabric_opt;
  u32 fabric_workers = 0;  // 0 = in-process campaign (no fabric)
  std::string hosts_text;  // non-empty = multi-host campaign (kfi_campaignd)
  std::string expect_fp_hex;
  bool dry_run = false;
  bool have_arch = false, have_kind = false, quiet = false;
  bool have_shape = false;
  bool have_errno = false;          // any --errno-* flag seen
  bool have_errno_trigger = false;  // --errno-model chose the trigger
  // The physical flag most recently seen, quoted in the mixed-family
  // rejection so the error names the offending value.
  std::string physical_flag;

  // Bad fault-model knobs are configuration errors, reported through the
  // same typed FaultModelError that plan building would throw.
  auto fail_model = [](const inject::FaultModelError& e) {
    std::fprintf(stderr, "fault model error: %s\n", e.what());
    return 2;
  };
  auto fail_errno = [](const errnoinj::ErrnoModelError& e) {
    std::fprintf(stderr, "errno model error: %s\n", e.what());
    return 2;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--arch") {
      const std::string v = next();
      if (v == "p4" || v == "cisca") {
        spec.arch = isa::Arch::kCisca;
      } else if (v == "g4" || v == "riscf") {
        spec.arch = isa::Arch::kRiscf;
      } else {
        usage(argv[0]);
        return 2;
      }
      have_arch = true;
    } else if (arg == "--kind") {
      const std::string v = next();
      if (v == "stack") spec.kind = inject::CampaignKind::kStack;
      else if (v == "register") spec.kind = inject::CampaignKind::kRegister;
      else if (v == "data") spec.kind = inject::CampaignKind::kData;
      else if (v == "code") spec.kind = inject::CampaignKind::kCode;
      else if (v == "errno") spec.kind = inject::CampaignKind::kErrno;
      else {
        usage(argv[0]);
        return 2;
      }
      have_kind = true;
    } else if (arg == "--n") {
      spec.injections = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--seed") {
      spec.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--jobs") {
      jobs = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--loss") {
      spec.channel_loss = std::strtod(next(), nullptr);
    } else if (arg == "--fault-model") {
      const std::string v = next();
      if (v == "single-bit") spec.model.shape = inject::FaultShape::kSingleBit;
      else if (v == "multi-bit") spec.model.shape = inject::FaultShape::kMultiBit;
      else if (v == "burst") spec.model.shape = inject::FaultShape::kBurst;
      else if (v == "opclass") spec.model.shape = inject::FaultShape::kOpclass;
      else {
        return fail_model(inject::FaultModelError(
            "unknown fault model '" + v +
            "' (single-bit|multi-bit|burst|opclass)"));
      }
      have_shape = true;
      physical_flag = "--fault-model " + v;
    } else if (arg == "--bits") {
      const char* v = next();
      spec.model.bits = static_cast<u32>(std::strtoul(v, nullptr, 10));
      if (!have_shape) spec.model.shape = inject::FaultShape::kMultiBit;
      physical_flag = std::string("--bits ") + v;
    } else if (arg == "--burst") {
      const char* v = next();
      spec.model.burst_span = static_cast<u32>(std::strtoul(v, nullptr, 10));
      if (!have_shape) spec.model.shape = inject::FaultShape::kBurst;
      physical_flag = std::string("--burst ") + v;
    } else if (arg == "--rate") {
      const char* v = next();
      spec.model.rate = std::strtod(v, nullptr);
      spec.model.trigger = inject::FaultTrigger::kRate;
      physical_flag = std::string("--rate ") + v;
    } else if (arg == "--errno-model") {
      const std::string v = next();
      if (v == "nth") {
        spec.errno_model.trigger = errnoinj::ErrnoTrigger::kNth;
        spec.errno_model.value = errnoinj::ErrnoValue::kErrReturn;
      } else if (v == "rate") {
        spec.errno_model.trigger = errnoinj::ErrnoTrigger::kRate;
        spec.errno_model.value = errnoinj::ErrnoValue::kErrReturn;
      } else if (v == "nth-drawn") {
        spec.errno_model.trigger = errnoinj::ErrnoTrigger::kNth;
        spec.errno_model.value = errnoinj::ErrnoValue::kDrawnNegative;
      } else if (v == "rate-drawn") {
        spec.errno_model.trigger = errnoinj::ErrnoTrigger::kRate;
        spec.errno_model.value = errnoinj::ErrnoValue::kDrawnNegative;
      } else {
        return fail_errno(errnoinj::ErrnoModelError(
            "unknown errno model '" + v +
            "' (nth|rate|nth-drawn|rate-drawn)"));
      }
      have_errno = true;
      have_errno_trigger = true;
    } else if (arg == "--errno-syscalls") {
      const std::string v = next();
      std::string bad;
      const auto mask = errnoinj::parse_syscall_list(v, &bad);
      if (!mask) {
        return fail_errno(errnoinj::ErrnoModelError(
            "bad syscall '" + bad + "' in --errno-syscalls " + v +
            " (read,write,alloc,free,send,recv or all)"));
      }
      spec.errno_model.syscalls = *mask;
      have_errno = true;
    } else if (arg == "--errno-rate") {
      spec.errno_model.rate = std::strtod(next(), nullptr);
      if (!have_errno_trigger) {
        spec.errno_model.trigger = errnoinj::ErrnoTrigger::kRate;
      }
      have_errno = true;
    } else if (arg == "--errno-nth") {
      spec.errno_model.nth =
          static_cast<u32>(std::strtoul(next(), nullptr, 10));
      if (!have_errno_trigger) {
        spec.errno_model.trigger = errnoinj::ErrnoTrigger::kNth;
      }
      have_errno = true;
    } else if (arg == "--opclass") {
      const std::string v = next();
      const auto cls = isa::parse_opclass(v);
      if (!cls) {
        return fail_model(inject::FaultModelError(
            "unknown instruction class '" + v +
            "' (alu|loadstore|branch|system|other)"));
      }
      spec.model.opclass = *cls;
      if (!have_shape) spec.model.shape = inject::FaultShape::kOpclass;
      physical_flag = "--opclass " + v;
    } else if (arg == "--scale") {
      spec.workload_scale =
          static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--journal") {
      journal_path = next();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--retries") {
      control.retries = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--stall") {
      control.stall_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--step-budget") {
      control.step_budget = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--journal-flush") {
      const std::string v = next();
      const auto policy = inject::parse_flush_policy(v);
      if (!policy) {
        std::fprintf(stderr, "bad --journal-flush '%s' (fsync|flush)\n",
                     v.c_str());
        return 2;
      }
      flush = *policy;
    } else if (arg == "--fabric") {
      fabric_workers = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--min-workers") {
      fabric_opt.min_workers =
          static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--lease") {
      fabric_opt.lease_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--fabric-backoff") {
      fabric_opt.backoff_base = std::strtod(next(), nullptr);
    } else if (arg == "--fabric-backoff-cap") {
      fabric_opt.backoff_cap = std::strtod(next(), nullptr);
    } else if (arg == "--max-restarts") {
      fabric_opt.max_restarts =
          static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--chaos-kill-after") {
      fabric_opt.chaos_kill_after =
          static_cast<u32>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--worker-bin") {
      fabric_opt.worker_binary = next();
    } else if (arg == "--hosts") {
      hosts_text = next();
    } else if (arg == "--heartbeat") {
      fabric_opt.heartbeat_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--connect-timeout") {
      fabric_opt.connect_timeout_seconds = std::strtod(next(), nullptr);
    } else if (arg == "--expect-plan-fp") {
      expect_fp_hex = next();
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--no-wrapper") {
      spec.machine.g4_stack_wrapper = false;
    } else if (arg == "--p4-stackcheck") {
      spec.machine.p4_stack_limit_check = true;
    } else if (arg == "--no-spinlock-debug") {
      spec.machine.spinlock_debug = false;
    } else if (arg == "--csv") {
      csv_prefix = next();
    } else if (arg == "--trace") {
      control.trace = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
      control.trace = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  // The errno family is selected either way: --kind errno (defaulting to
  // every fallible syscall) or any --errno-* flag (implying the kind).
  // Mixing the two campaign families is a configuration error, rejected
  // before any plan work starts.
  if (have_errno ||
      (have_kind && spec.kind == inject::CampaignKind::kErrno)) {
    if (!physical_flag.empty()) {
      return fail_errno(errnoinj::ErrnoModelError(
          "physical fault-model flags cannot be combined with an errno "
          "campaign (offending flag: " +
          physical_flag + ")"));
    }
    if (have_kind && spec.kind != inject::CampaignKind::kErrno) {
      return fail_errno(errnoinj::ErrnoModelError(
          "errno flags set on a physical campaign (--kind " +
          std::string(inject::campaign_kind_name(spec.kind)) + ")"));
    }
    spec.kind = inject::CampaignKind::kErrno;
    have_kind = true;
    if (spec.errno_model.syscalls == 0) {
      spec.errno_model.syscalls = errnoinj::eligible_syscall_mask();
    }
  }
  if (!have_arch || !have_kind) {
    usage(argv[0]);
    return 2;
  }
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal PATH\n");
    return 2;
  }
  std::vector<fabric::HostSpec>& hosts = fabric_opt.hosts;
  if (!hosts_text.empty()) {
    const auto parsed = fabric::parse_host_list(hosts_text);
    if (!parsed) {
      std::fprintf(stderr,
                   "bad --hosts '%s' (expected host:port[,host:port...])\n",
                   hosts_text.c_str());
      return 2;
    }
    hosts = *parsed;
    if (fabric_workers > 0) {
      std::fprintf(stderr,
                   "--hosts and --fabric are mutually exclusive (local "
                   "worker processes vs remote daemons)\n");
      return 2;
    }
  }
  const bool use_fabric = fabric_workers > 0 || !hosts.empty();
  const char* fabric_flag = hosts.empty() ? "--fabric" : "--hosts";
  // A dry run writes nothing, so only a real fabric run needs a journal.
  if (use_fabric && journal_path.empty() && !dry_run) {
    std::fprintf(stderr,
                 "%s requires --journal PATH (shard journals are the "
                 "crash-recovery substrate)\n",
                 fabric_flag);
    return 2;
  }
  if (use_fabric && control.trace) {
    std::fprintf(stderr, "--trace is not supported with %s yet\n",
                 fabric_flag);
    return 2;
  }
  try {
    spec.errno_model.validate();
  } catch (const errnoinj::ErrnoModelError& e) {
    return fail_errno(e);
  }
  try {
    spec.model.validate(spec.kind);
  } catch (const inject::FaultModelError& e) {
    return fail_model(e);
  }

  const inject::CampaignPlan plan = inject::build_campaign_plan(spec);
  const u64 plan_fp = inject::plan_fingerprint(plan);

  // The --expect-plan-fp handshake, client side: the same version-skew
  // refusal every daemon and worker applies, typed and raised before any
  // injection runs anywhere.
  if (!expect_fp_hex.empty() &&
      plan_fp != std::strtoull(expect_fp_hex.c_str(), nullptr, 16)) {
    std::fprintf(stderr,
                 "plan fingerprint skew: built %016llx, --expect-plan-fp "
                 "%s (binaries or flags disagree)\n",
                 static_cast<unsigned long long>(plan_fp),
                 expect_fp_hex.c_str());
    return 3;
  }

  if (dry_run) {
    // Print what WOULD run — fingerprints and the shard map — without
    // executing a single injection.
    std::printf("plan fingerprint: %016llx\n",
                static_cast<unsigned long long>(plan_fp));
    std::printf("fault model fingerprint: %016llx\n",
                static_cast<unsigned long long>(
                    inject::fault_model_fingerprint(spec.model)));
    std::printf("errno model fingerprint: %016llx\n",
                static_cast<unsigned long long>(
                    errnoinj::errno_model_fingerprint(spec.errno_model)));
    std::printf("targets: %zu\n", plan.targets.size());
    const u32 shards =
        !hosts.empty() ? static_cast<u32>(hosts.size())
                       : (fabric_workers > 0 ? fabric_workers : 1);
    const auto slices = fabric::shard_indices(
        static_cast<u32>(plan.targets.size()), shards);
    std::printf("shard map (%u shard%s):\n", shards,
                shards == 1 ? "" : "s");
    for (u32 s = 0; s < slices.size(); ++s) {
      std::string line = "  shard " + std::to_string(s) + ": " +
                         std::to_string(slices[s].size()) + " indices";
      if (!slices[s].empty()) {
        line += " [" + fabric::format_index_ranges(slices[s]) + "]";
      }
      if (s < hosts.size()) line += " -> " + hosts[s].label();
      if (!journal_path.empty()) {
        line += " journal " +
                (shards == 1 ? journal_path
                             : fabric::shard_journal_path(journal_path, s,
                                                          shards));
      }
      std::puts(line.c_str());
    }
    std::puts("dry run: nothing executed");
    return 0;
  }

  std::optional<inject::InjectionJournal> journal;
  inject::CampaignResult result;
  try {
    if (use_fabric) {
      fabric_opt.workers = fabric_workers;
      fabric_opt.journal_prefix = journal_path;
      fabric_opt.fresh = !resume;
      fabric_opt.jobs = jobs;
      fabric_opt.flush = flush;
      fabric_opt.retries = control.retries;
      fabric_opt.stall_seconds = control.stall_seconds;
      fabric_opt.verbose = !quiet;
      if (fabric_opt.worker_binary.empty()) {
        // kfi_worker is installed next to kfi_campaign.
        fabric_opt.worker_binary =
            (std::filesystem::path(argv[0]).parent_path() / "kfi_worker")
                .string();
      }
      if (!quiet) {
        // Live per-endpoint tally: one line, redrawn on every progress frame.
        static const char* kOutcomeTags[fabric::kFrameOutcomeSlots] = {
            "NA", "NM", "FSV", "KC", "HU", "HE"};
        fabric_opt.progress =
            [](const std::vector<fabric::RemoteHostProgress>& snap) {
              std::string line = "\r";
              for (const fabric::RemoteHostProgress& h : snap) {
                if (h.total == 0 && !h.connected) continue;
                if (line.size() > 1) line += "  ";
                line += h.host + " s" + std::to_string(h.shard) + " " +
                        std::to_string(h.completed) + "/" +
                        std::to_string(h.total) + " [";
                for (size_t i = 0; i < h.outcomes.size(); ++i) {
                  if (i > 0) line += " ";
                  line += std::string(kOutcomeTags[i]) + ":" +
                          std::to_string(h.outcomes[i]);
                }
                line += "]";
              }
              line += "   ";
              std::fputs(line.c_str(), stderr);
            };
      }
      fabric::FabricCoordinator coordinator(fabric_opt);
      if (!resume) {
        // A fresh run must not resurrect a previous campaign's shard
        // journals; --resume keeps them (the whole point after a crash).
        for (const std::string& p : coordinator.journal_paths(
                 static_cast<u32>(plan.targets.size()))) {
          std::filesystem::remove(p);
        }
      }
      result = coordinator.run(plan);
      if (!quiet) std::fputc('\n', stderr);
    } else {
      if (!journal_path.empty()) {
        journal = resume ? inject::InjectionJournal::resume(journal_path,
                                                            plan, flush)
                         : inject::InjectionJournal::create(journal_path,
                                                            plan, flush);
        control.journal = &*journal;
        // A durable campaign is interruptible: flush-and-resume on Ctrl-C.
        std::signal(SIGINT, on_sigint);
        control.cancel = &g_cancel;
      }
      result = inject::CampaignEngine(jobs).run(
          plan,
          quiet ? inject::ProgressFn{} : [](u32 done, u32 total) {
            if (done % 100 == 0 || done == total) {
              std::fprintf(stderr, "\r[%u/%u]", done, total);
              if (done == total) std::fputc('\n', stderr);
            }
          },
          control);
    }
  } catch (const fabric::FabricError& e) {
    if (!quiet) std::fputc('\n', stderr);
    std::fprintf(stderr, "fabric error: %s\n", e.what());
    return 1;
  } catch (const inject::JournalError& e) {
    std::fprintf(stderr, "journal error: %s\n", e.what());
    return 1;
  }

  if (result.interrupted) {
    // The journal already holds every completed record; report the
    // partial tally and how to pick the campaign back up.
    std::fputc('\n', stderr);
    std::puts(analysis::summarize_campaign(result).c_str());
    std::printf(
        "\ninterrupted: %llu/%zu injections journaled to %s\n"
        "resume with: --journal %s --resume (plus the same campaign flags)\n",
        static_cast<unsigned long long>(result.executed()),
        result.records.size(), journal_path.c_str(), journal_path.c_str());
    return 130;  // conventional SIGINT exit
  }

  const analysis::OutcomeTally tally =
      analysis::tally_records(result.records);
  const bool errno_campaign = spec.kind == inject::CampaignKind::kErrno;

  std::puts(analysis::summarize_campaign(result).c_str());
  // The determinism arbiter, printed so scripts (and CI) can pin it:
  // equal fingerprints mean bit-identical campaigns, whatever the
  // jobs / fabric / resume topology that produced them.
  std::printf("result fingerprint: %016llx\n",
              static_cast<unsigned long long>(
                  inject::result_fingerprint(result)));
  std::puts("");
  if (errno_campaign) {
    // The paper has no errno rows: the cascade segment replaces the
    // Table-5/6 and crash-cause comparisons.
    std::fputs(analysis::render_cascades(
                   std::string(isa::arch_name(spec.arch)) + " " +
                       spec.errno_model.name(),
                   analysis::tally_cascades(result.records),
                   analysis::tally_cascades_by_syscall(result.records))
                   .c_str(),
               stdout);
  } else {
    std::fputs(analysis::render_failure_table(spec.arch, {{spec.kind, tally}})
                   .c_str(),
               stdout);
    std::puts("");
    std::fputs(analysis::render_cause_comparison(
                   spec.arch, "Crash causes", tally,
                   analysis::paper_campaign_crash_causes(spec.arch, spec.kind))
                   .c_str(),
               stdout);
  }
  std::puts("");
  std::fputs(analysis::render_profile(result.hot_functions).c_str(), stdout);
  if (control.trace) {
    std::puts("");
    std::fputs(analysis::render_propagation(
                   std::string(isa::arch_name(spec.arch)) + " " +
                       inject::campaign_kind_name(spec.kind),
                   analysis::tally_propagation(result.records))
                   .c_str(),
               stdout);
  }

  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    analysis::write_propagation_csv(f, result.records);
    std::printf("wrote %s\n", trace_out.c_str());
  }

  if (!csv_prefix.empty()) {
    {
      std::ofstream f(csv_prefix + ".records.csv");
      analysis::write_records_csv(f, result.records);
    }
    {
      std::ofstream f(csv_prefix + ".tally.csv");
      analysis::write_tally_csv(f, tally);
    }
    {
      std::ofstream f(csv_prefix + ".latency.csv");
      analysis::write_latency_csv(f, tally);
    }
    if (errno_campaign) {
      std::ofstream f(csv_prefix + ".cascade.csv");
      analysis::write_cascade_csv(f, result.records);
      std::printf("wrote %s.{records,tally,latency,cascade}.csv\n",
                  csv_prefix.c_str());
    } else {
      std::printf("wrote %s.{records,tally,latency}.csv\n",
                  csv_prefix.c_str());
    }
  }
  return 0;
}
