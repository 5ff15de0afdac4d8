#include "kernel/machine.hpp"

#include <algorithm>
#include <cstring>

#include "cisca/cpu.hpp"
#include "cisca/regs.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "kernel/program.hpp"
#include "riscf/cpu.hpp"
#include "riscf/regs.hpp"

namespace kfi::kernel {

namespace {

constexpr u32 kPercpuBase = 0xC0003000u;

/// Blocks one run() call dispatches before the spin-loop detector starts
/// probing.  A spin hang never leaves run(); an ordinary syscall returns
/// long before, paying one counter increment per block.
constexpr u64 kSpinGateBlocks = u64{1} << 14;
/// Most pages a period may rewrite and still be proven to repeat.
constexpr size_t kSpinMaxPages = 8;

}  // namespace

kir::Image build_kernel_image(isa::Arch arch, bool spinlock_debug) {
  auto backend = arch == isa::Arch::kCisca
                     ? kir::make_cisca_backend(kTextBase, kDataBase)
                     : kir::make_riscf_backend(kTextBase, kDataBase);
  backend->set_spinlock_checks(spinlock_debug);
  build_kernel(*backend);
  return backend->finish();
}

kir::ImagePtr build_shared_kernel_image(isa::Arch arch, bool spinlock_debug) {
  return std::make_shared<const kir::Image>(
      build_kernel_image(arch, spinlock_debug));
}

trace::RegSlot syscall_result_slot(isa::Arch arch) {
  return arch == isa::Arch::kCisca ? static_cast<trace::RegSlot>(cisca::kEax)
                                   : static_cast<trace::RegSlot>(3);
}

Machine::Machine(isa::Arch arch, MachineOptions options)
    : Machine(arch, options,
              build_shared_kernel_image(arch, options.spinlock_debug)) {}

Machine::Machine(isa::Arch arch, MachineOptions options, kir::ImagePtr image)
    : arch_(arch),
      options_(options),
      space_(kPhysBytes, arch == isa::Arch::kCisca ? mem::Endian::kLittle
                                                   : mem::Endian::kBig),
      image_(std::move(image)),
      rng_(options.seed) {
  KFI_CHECK(image_ != nullptr, "Machine requires a built kernel image");
  KFI_CHECK(image_->arch == arch, "kernel image built for a different arch");
  init_cpu();
  boot();
}

Machine::Machine(isa::Arch arch, MachineOptions options, kir::ImagePtr image,
                 const MachineSnapshot& boot_snap)
    : arch_(arch),
      options_(options),
      space_(kPhysBytes, arch == isa::Arch::kCisca ? mem::Endian::kLittle
                                                   : mem::Endian::kBig),
      image_(std::move(image)),
      rng_(options.seed) {
  KFI_CHECK(image_ != nullptr, "Machine requires a built kernel image");
  KFI_CHECK(image_->arch == arch, "kernel image built for a different arch");
  init_cpu();

  // Boot by adoption: establish the address-space layout and cached
  // symbols, then take ALL memory and CPU state from the donor snapshot.
  // No image-load writes happen, so outside the reference configuration
  // this machine starts with zero private pages.
  map_address_space();
  dispatch_entry_ = image_->function(KernelEntryPoints::kDispatch).addr;
  timer_entry_ = image_->function(KernelEntryPoints::kTimerTick).addr;
  current_addr_ = image_->object("current").addr;
  if (cisca_cpu_ != nullptr) {
    cisca_cpu_->set_stack_bounds(
        kStackRegion, kStackRegion + kNumTasks * stack_slot(arch_));
  }
  boot_snapshot_ = boot_snap;
  restore(boot_snap);
  if (riscf_cpu_ != nullptr) {
    // The boot-time SPRG2 value the exception prologue's stack switch is
    // checked against (the donor recorded the same value at its boot).
    expected_sprg2_ = riscf_cpu_->regs().sprg[2];
  }
}

Machine::~Machine() = default;

void Machine::init_cpu() {
  helper_backend_ = arch_ == isa::Arch::kCisca
                        ? kir::make_cisca_backend(kTextBase, kDataBase)
                        : kir::make_riscf_backend(kTextBase, kDataBase);
  if (arch_ == isa::Arch::kCisca) {
    cisca::CiscaCpu::Options copts;
    copts.stack_limit_check = options_.p4_stack_limit_check;
    auto cpu = std::make_unique<cisca::CiscaCpu>(space_, copts);
    cisca_cpu_ = cpu.get();
    cpu_ = std::move(cpu);
  } else {
    auto cpu = std::make_unique<riscf::RiscfCpu>(space_);
    riscf_cpu_ = cpu.get();
    cpu_ = std::move(cpu);
  }
  cpu_->set_fast_paths(!options_.reference);
  space_.phys().set_cow_enabled(!options_.reference);
}

void Machine::map_address_space() {
  // --- address space layout ---
  // 2004-era MMUs had no per-page no-execute: any readable kernel page is
  // executable, so a corrupted jump into data or stack executes whatever
  // bytes are there (a major Invalid/Illegal Instruction source).
  space_.note_unmapped("null_page", 0, 4096);
  space_.map_region("percpu", kPercpuBase, 4096,
                    {.read = true, .write = true, .execute = true});
  space_.map_region("glue", kGlueBase, 4096,
                    {.read = true, .write = false, .execute = true});
  space_.map_region("text", kTextBase,
                    (static_cast<u32>(image_->code.size()) + 4095) & ~4095u,
                    {.read = true, .write = false, .execute = true});
  space_.map_region("data", kDataBase,
                    (static_cast<u32>(image_->data.size()) + 8191) & ~4095u,
                    {.read = true, .write = true, .execute = true});
  for (u32 t = 0; t < kNumTasks; ++t) {
    space_.note_unmapped("stack_guard" + std::to_string(t),
                         stack_base(arch_, t) - 4096, 4096);
    space_.map_region("stack" + std::to_string(t), stack_base(arch_, t),
                      stack_size(arch_),
                      {.read = true, .write = true, .execute = true});
  }
  space_.map_region("user_buffers", kUserBufBase, kUserBufSize,
                    {.read = true, .write = true, .execute = true});
  space_.map_region("local_bus", kBusRegion, kBusRegionSize, {.bus = true});
}

void Machine::boot() {
  map_address_space();

  // --- load image ---
  space_.vwrite_bytes(kTextBase, image_->code.data(),
                      static_cast<u32>(image_->code.size()));
  space_.vwrite_bytes(kDataBase, image_->data.data(),
                      static_cast<u32>(image_->data.size()));
  write_glue_stubs();

  dispatch_entry_ = image_->function(KernelEntryPoints::kDispatch).addr;
  timer_entry_ = image_->function(KernelEntryPoints::kTimerTick).addr;
  current_addr_ = image_->object("current").addr;

  // --- boot-time task setup (the bootloader's job) ---
  const char* thread_entries[kNumTasks] = {
      nullptr, KernelEntryPoints::kKupdate, KernelEntryPoints::kKjournald,
      KernelEntryPoints::kKsoftirqd};
  for (u32 t = 0; t < kNumTasks; ++t) {
    write_global("task_structs", stack_base(arch_, t), t, "stack_base");
    write_global("task_structs", stack_top(arch_, t), t, "stack_top");
    Addr sp = stack_top(arch_, t);
    if (thread_entries[t] != nullptr) {
      const Addr entry = image_->function(thread_entries[t]).addr;
      sp = helper_backend_->prepare_initial_stack(
          space_, stack_top(arch_, t), entry);
    }
    write_global("task_structs", sp, t, "sp");
  }

  // --- CPU initial state ---
  if (cisca_cpu_ != nullptr) {
    cisca_cpu_->regs().gpr[cisca::kEsp] = stack_top(arch_, 0);
    cisca_cpu_->set_stack_bounds(
        kStackRegion, kStackRegion + kNumTasks * stack_slot(arch_));
  } else {
    riscf_cpu_->regs().gpr[riscf::kSp] = stack_top(arch_, 0);
    riscf_cpu_->regs().gpr[13] = kDataBase;  // small-data base
    expected_sprg2_ = riscf_cpu_->regs().sprg[2];
  }
  cpu_->set_pc(glue_addr(kGlueSyscallReturn));

  next_timer_ = options_.timer_period;

  boot_snapshot_ = snapshot();
}

void Machine::write_glue_stubs() {
  if (arch_ == isa::Arch::kCisca) {
    const u8 stub[2] = {0xCD, 0x83};  // int 0x83
    for (const u32 off : {kGlueSyscallReturn, kGlueIsrReturn}) {
      space_.phys().write_bytes(
          space_.translate(kGlueBase + off, 1, mem::Access::kRead).phys, stub,
          2);
    }
  } else {
    for (const u32 off : {kGlueSyscallReturn, kGlueIsrReturn}) {
      space_.phys().write32(
          space_.translate(kGlueBase + off, 4, mem::Access::kRead).phys,
          0x44000002u, mem::Endian::kBig);  // sc
    }
  }
}

u64 Machine::jitter(u64 lo, u64 hi) { return rng_.range(lo, hi); }

bool Machine::interrupts_enabled() const {
  if (cisca_cpu_ != nullptr) {
    return test_bit(cisca_cpu_->regs().eflags, cisca::kFlagIF);
  }
  return (riscf_cpu_->regs().msr & riscf::kMsrEE) != 0;
}

namespace {

/// Where the field's VALUE lives within its storage slot: at the slot's
/// start on the little-endian machine (storage == width there anyway) and
/// at the slot's end on the big-endian one (word-per-item layout).
u32 value_offset(isa::Arch arch, const kir::FieldLayout& f) {
  if (arch == isa::Arch::kCisca) return 0;
  return f.storage_bytes - static_cast<u32>(f.width);
}

}  // namespace

u32 Machine::read_global(const std::string& object, u32 index,
                         const std::string& field) const {
  const kir::DataObject& obj = image_->object(object);
  const kir::FieldLayout& f =
      field.empty() ? obj.field(0) : obj.field_named(field);
  const Addr addr = obj.addr + index * obj.elem_size + f.offset +
                    value_offset(arch_, f);
  switch (static_cast<u32>(f.width)) {
    case 1: return space_.vread8(addr);
    case 2: return space_.vread16(addr);
    default: return space_.vread32(addr);
  }
}

void Machine::write_global(const std::string& object, u32 value, u32 index,
                           const std::string& field) {
  const kir::DataObject& obj = image_->object(object);
  const kir::FieldLayout& f =
      field.empty() ? obj.field(0) : obj.field_named(field);
  const Addr addr = obj.addr + index * obj.elem_size + f.offset +
                    value_offset(arch_, f);
  switch (static_cast<u32>(f.width)) {
    case 1: space_.vwrite8(addr, static_cast<u8>(value)); break;
    case 2: space_.vwrite16(addr, static_cast<u16>(value)); break;
    default: space_.vwrite32(addr, value); break;
  }
}

Addr Machine::global_field_addr(const std::string& object, u32 index,
                                const std::string& field) const {
  const kir::DataObject& obj = image_->object(object);
  const kir::FieldLayout& f =
      field.empty() ? obj.field(0) : obj.field_named(field);
  return obj.addr + index * obj.elem_size + f.offset;
}

u32 Machine::current_task() const { return space_.vread32(current_addr_); }

void Machine::set_trace_sink(trace::TraceSink* sink) {
  trace_ = sink;
  cpu_->set_trace_sink(sink);
}

void Machine::begin_syscall(Syscall nr, u32 a0, u32 a1, u32 a2) {
  KFI_CHECK(idle(), "begin_syscall while machine busy");
  // Simulated user-mode time since the last kernel entry.
  const u64 mean = options_.user_cycles_mean;
  const u64 user = jitter(mean / 2, mean + mean / 2);
  user_cycles_total_ += user;
  cpu_->add_cycles(user);
  while (next_timer_ <= cpu_->cycles()) {
    ++pending_user_ticks_;
    next_timer_ += options_.timer_period;
  }
  pending_syscall_ = PendingSyscall{static_cast<u32>(nr), a0, a1, a2};
}

bool Machine::sp_out_of_any_stack(Addr sp) const {
  for (u32 t = 0; t < kNumTasks; ++t) {
    if (sp > stack_base(arch_, t) && sp <= stack_top(arch_, t)) return false;
  }
  return true;
}

Event Machine::make_crash_event(const isa::Trap& trap) {
  Event event;
  CrashReport report;
  report.pc = trap.pc;
  report.addr = trap.addr;
  report.has_addr = trap.has_addr;

  // Stage 2 (Figure 3): hardware exception handling, >1000 cycles.  The
  // deep-pipeline P4 pays far more here than the G4 — the paper's own
  // worked examples show an immediate NULL dereference costing 12,864
  // cycles end-to-end on the P4 (Figure 8) versus 1,592 on the G4
  // (Figure 9).
  if (arch_ == isa::Arch::kCisca) {
    cpu_->add_cycles(jitter(2500, 8000));
  } else {
    cpu_->add_cycles(jitter(1000, 1600));
  }

  if (arch_ == isa::Arch::kRiscf) {
    const auto cause = static_cast<riscf::Cause>(trap.cause);
    if (cause == riscf::Cause::kMachineCheck && trap.aux == 1) {
      event.kind = EventKind::kCheckstop;
      report.cause = CrashCause::kMachineCheck;
      report.detail = "checkstop: machine check with MSR.ME cleared";
      event.crash = report;
      return event;
    }
    // The kernel's exception-entry checking wrapper (Section 6): examine
    // the stack pointer before running any handler.
    bool sp_bad = false;
    if (options_.g4_stack_wrapper) {
      cpu_->add_cycles(jitter(40, 90));  // wrapper cost: fast detection
      sp_bad = sp_out_of_any_stack(cpu_->stack_pointer());
    }
    report.cause = classify_riscf(trap, sp_bad);
    if (!sp_bad) {
      // Stage 3: the software exception handler, 150-200 instructions.
      cpu_->add_cycles(jitter(225, 320));
    }
    report.detail = riscf::cause_name(cause);
  } else {
    report.cause = classify_cisca(trap);
    cpu_->add_cycles(jitter(700, 1800));  // the P4 kernel's longer handler
    report.detail = cisca::cause_name(static_cast<cisca::Cause>(trap.cause));
  }
  report.cycles_to_crash = cpu_->cycles();  // absolute; caller re-bases
  event.kind = EventKind::kCrash;
  event.crash = report;
  return event;
}

namespace {

/// Build the architecture's fault for a failed runtime (glue) access.
isa::Trap glue_access_fault(isa::Arch arch, Addr addr, bool is_write, Addr pc) {
  isa::Trap trap;
  trap.pc = pc;
  trap.addr = addr;
  trap.has_addr = true;
  if (arch == isa::Arch::kCisca) {
    trap.cause = static_cast<u32>(cisca::Cause::kPageFault);
  } else {
    trap.cause = static_cast<u32>((addr & 3) != 0
                                      ? riscf::Cause::kAlignment
                                      : riscf::Cause::kDataStorage);
  }
  (void)is_write;
  return trap;
}

}  // namespace

void Machine::setup_syscall_frame(const PendingSyscall& req) {
  current_syscall_nr_ = req.nr;
  cpu_->add_cycles(jitter(150, 260));  // kernel entry cost
  if (cisca_cpu_ != nullptr) {
    auto& regs = cisca_cpu_->regs();
    // int 0x80 vectors through the IDT; a relocated table or a limit that
    // cuts off the used vectors is fatal here.  (Limit flips that only
    // grow the table, or shrink it above the last used vector, are
    // harmless — most IDTR_LIMIT bits are inconsequential.)
    if (regs.idtr_base != 0xC0002800u || regs.idtr_limit < 0x420u) {
      isa::Trap trap;
      trap.cause = static_cast<u32>(cisca::Cause::kGeneralProtection);
      trap.pc = regs.eip;
      trap.aux = regs.idtr_base;
      fatal_pending_ = trap;
      return;
    }
    // Entering the kernel reloads the task's segment state from the TSS
    // (paper footnote 6: FS and GS are stored per context switch), so a
    // flip that landed in these registers is overwritten unless something
    // consumed it first.
    regs.fs = 0x30;
    regs.gs = 0x38;
    if (trace_ != nullptr) {
      trace_->on_glue_reg_set(cisca::kSlotFs);
      trace_->on_glue_reg_set(cisca::kSlotGs);
    }
    Addr sp = stack_top(arch_, 0);
    const u32 words[5] = {req.nr, req.a0, req.a1, req.a2,
                          glue_addr(kGlueSyscallReturn)};
    for (const u32 w : words) {
      sp -= 4;
      space_.vwrite32(sp, w);
      if (trace_ != nullptr) {
        // Frame words come from outside the simulation: always clean.
        trace_->on_glue_mem_set(
            space_.translate(sp, 4, mem::Access::kWrite).phys, 4);
      }
    }
    regs.gpr[cisca::kEsp] = sp;
    regs.eip = dispatch_entry_;
    if (trace_ != nullptr) {
      trace_->on_glue_reg_set(cisca::kEsp);
      trace_->on_glue_reg_set(cisca::kSlotEip);
    }
  } else {
    auto& regs = riscf_cpu_->regs();
    regs.gpr[riscf::kSp] = stack_top(arch_, 0) - 16;
    regs.gpr[3] = req.nr;
    regs.gpr[4] = req.a0;
    regs.gpr[5] = req.a1;
    regs.gpr[6] = req.a2;
    regs.lr = glue_addr(kGlueSyscallReturn);
    if (trace_ != nullptr) {
      trace_->on_glue_reg_set(riscf::kSp);
      for (u16 g = 3; g <= 6; ++g) trace_->on_glue_reg_set(g);
      trace_->on_glue_reg_set(riscf::kSlotLr);
      // SRR0/SRR1 capture live state: their shadow moves with the value.
      trace_->on_glue_reg_copy(riscf::kSlotSrr0, riscf::kSlotPc);
      trace_->on_glue_reg_copy(riscf::kSlotSrr1, riscf::kSlotMsr);
      trace_->on_glue_reg_set(riscf::kSlotPc);
    }
    regs.srr0 = regs.pc;
    regs.srr1 = regs.msr;
    regs.pc = dispatch_entry_;
  }
  if (trace_ != nullptr) {
    trace_->on_priv_transition(trace::PrivEvent::kSyscallEntry);
  }
  glue_stack_.push_back(GlueFrame{GlueKind::kSyscall, /*from_user=*/true});
  syscall_active_ = true;
}

void Machine::enter_isr(bool from_user) {
  cpu_->add_cycles(jitter(150, 260));
  if (cisca_cpu_ != nullptr) {
    auto& regs = cisca_cpu_->regs();
    if (regs.idtr_base != 0xC0002800u || regs.idtr_limit < 0x420u) {
      isa::Trap trap;
      trap.cause = static_cast<u32>(cisca::Cause::kGeneralProtection);
      trap.pc = regs.eip;
      trap.aux = regs.idtr_base;
      fatal_pending_ = trap;
      return;
    }
    Addr sp = from_user ? stack_top(arch_, 0) : regs.gpr[cisca::kEsp];
    // Interrupted context saved in simulated stack memory (so injected
    // stack errors can corrupt it): eflags, eip, eax, ecx, edx.
    const u32 words[6] = {regs.eflags,           regs.eip,
                          regs.gpr[cisca::kEax], regs.gpr[cisca::kEcx],
                          regs.gpr[cisca::kEdx], glue_addr(kGlueIsrReturn)};
    static constexpr trace::RegSlot kSaveSlots[6] = {
        cisca::kSlotEflags, cisca::kSlotEip, cisca::kEax,
        cisca::kEcx,        cisca::kEdx,     trace::kNoSlot};
    for (u32 i = 0; i < 6; ++i) {
      sp -= 4;
      const auto tr = space_.translate(sp, 4, mem::Access::kWrite);
      if (!tr.ok()) {
        fatal_pending_ = glue_access_fault(arch_, sp, true, regs.eip);
        return;
      }
      space_.phys().write32(tr.phys, words[i], mem::Endian::kLittle);
      if (trace_ != nullptr) {
        if (kSaveSlots[i] != trace::kNoSlot) {
          trace_->on_ctx_save(kSaveSlots[i], tr.phys);
        } else {
          trace_->on_glue_mem_set(tr.phys, 4);  // stub return address
        }
      }
    }
    regs.gpr[cisca::kEsp] = sp;
    regs.eip = timer_entry_;
    if (trace_ != nullptr) {
      if (from_user) trace_->on_glue_reg_set(cisca::kEsp);
      trace_->on_glue_reg_set(cisca::kSlotEip);
      trace_->on_priv_transition(trace::PrivEvent::kIsrEntry);
    }
  } else {
    auto& regs = riscf_cpu_->regs();
    if (from_user) {
      // The low-level exception prologue switches stacks through SPRG2
      // (the paper's SPR274).  If it has been corrupted, the processor
      // ends up fetching from wherever it points (Section 5.2).
      if (regs.sprg[2] != expected_sprg2_) {
        regs.pc = regs.sprg[2];
        if (trace_ != nullptr) {
          // The corrupted stack-switch base becomes the fetch address.
          trace_->on_glue_reg_copy(riscf::kSlotPc,
                                   riscf::kSlotSprg0 + 2);
          trace_->on_priv_transition(trace::PrivEvent::kIsrEntry);
        }
        glue_stack_.push_back(GlueFrame{GlueKind::kIsr, from_user});
        return;
      }
      regs.gpr[riscf::kSp] = stack_top(arch_, 0);
      if (trace_ != nullptr) trace_->on_glue_reg_set(riscf::kSp);
    }
    const Addr old_sp = regs.gpr[riscf::kSp];
    const Addr frame = old_sp - 72;
    u32 words[18];
    words[0] = old_sp;  // back chain
    words[1] = regs.msr;
    words[2] = regs.gpr[0];  // r0 is live across prologue/epilogue pairs
    for (u32 i = 0; i < 10; ++i) words[3 + i] = regs.gpr[3 + i];
    words[13] = regs.lr;
    words[14] = regs.cr;
    words[15] = regs.pc;   // interrupted pc (SRR0 image)
    words[16] = regs.ctr;
    words[17] = regs.gpr[2];  // r2 kept for frame symmetry (TOC slot)
    static constexpr trace::RegSlot kFrameSlots[18] = {
        riscf::kSp,       riscf::kSlotMsr, 0,  3, 4, 5, 6, 7, 8, 9, 10, 11,
        12,               riscf::kSlotLr,  riscf::kSlotCr,
        riscf::kSlotPc,   riscf::kSlotCtr, 2};
    for (u32 i = 0; i < 18; ++i) {
      const Addr a = frame + i * 4;
      const auto tr = space_.translate(a, 4, mem::Access::kWrite);
      if (!tr.ok() || (a & 3) != 0) {
        fatal_pending_ = glue_access_fault(arch_, a, true, regs.pc);
        return;
      }
      space_.phys().write32(tr.phys, words[i], mem::Endian::kBig);
      if (trace_ != nullptr) trace_->on_ctx_save(kFrameSlots[i], tr.phys);
    }
    if (trace_ != nullptr) {
      trace_->on_glue_reg_copy(riscf::kSlotSrr0, riscf::kSlotPc);
      trace_->on_glue_reg_copy(riscf::kSlotSrr1, riscf::kSlotMsr);
      // SP stays frame-derived from the old SP: shadow untouched.
      trace_->on_glue_reg_set(riscf::kSlotLr);
      trace_->on_glue_reg_set(riscf::kSlotPc);
      trace_->on_priv_transition(trace::PrivEvent::kIsrEntry);
    }
    regs.srr0 = regs.pc;
    regs.srr1 = regs.msr;
    regs.gpr[riscf::kSp] = frame;
    regs.lr = glue_addr(kGlueIsrReturn);
    regs.pc = timer_entry_;
  }
  glue_stack_.push_back(GlueFrame{GlueKind::kIsr, from_user});
}

bool Machine::isr_return() {
  cpu_->add_cycles(jitter(60, 120));
  if (cisca_cpu_ != nullptr) {
    auto& regs = cisca_cpu_->regs();
    // iret semantics: restore edx, ecx, eax, eip, eflags from the stack.
    Addr sp = regs.gpr[cisca::kEsp];
    u32 words[5];
    static constexpr trace::RegSlot kRestoreSlots[5] = {
        cisca::kEdx, cisca::kEcx, cisca::kEax, cisca::kSlotEip,
        cisca::kSlotEflags};
    for (u32 i = 0; i < 5; ++i) {
      const auto tr = space_.translate(sp + i * 4, 4, mem::Access::kRead);
      if (!tr.ok()) {
        fatal_pending_ = glue_access_fault(arch_, sp + i * 4, false, regs.eip);
        return false;
      }
      words[i] = space_.phys().read32(tr.phys, mem::Endian::kLittle);
      if (trace_ != nullptr) trace_->on_ctx_restore(kRestoreSlots[i], tr.phys);
    }
    // Restored flags with NT set mean a nested-task backlink return: #TS.
    if (test_bit(words[4], cisca::kFlagNT) ||
        test_bit(regs.eflags, cisca::kFlagNT)) {
      isa::Trap trap;
      trap.cause = static_cast<u32>(cisca::Cause::kInvalidTss);
      trap.pc = regs.eip;
      fatal_pending_ = trap;
      return false;
    }
    regs.gpr[cisca::kEdx] = words[0];
    regs.gpr[cisca::kEcx] = words[1];
    regs.gpr[cisca::kEax] = words[2];
    regs.eip = words[3];
    regs.eflags = words[4];
    regs.gpr[cisca::kEsp] = sp + 20;
  } else {
    auto& regs = riscf_cpu_->regs();
    const Addr frame = regs.gpr[riscf::kSp];
    u32 words[18];
    static constexpr trace::RegSlot kFrameSlots[18] = {
        riscf::kSp,       riscf::kSlotMsr, 0,  3, 4, 5, 6, 7, 8, 9, 10, 11,
        12,               riscf::kSlotLr,  riscf::kSlotCr,
        riscf::kSlotPc,   riscf::kSlotCtr, 2};
    for (u32 i = 0; i < 18; ++i) {
      const Addr a = frame + i * 4;
      const auto tr = space_.translate(a, 4, mem::Access::kRead);
      if (!tr.ok() || (a & 3) != 0) {
        fatal_pending_ = glue_access_fault(arch_, a, false, regs.pc);
        return false;
      }
      words[i] = space_.phys().read32(tr.phys, mem::Endian::kBig);
      if (trace_ != nullptr) trace_->on_ctx_restore(kFrameSlots[i], tr.phys);
    }
    regs.msr = words[1];
    regs.gpr[0] = words[2];
    for (u32 i = 0; i < 10; ++i) regs.gpr[3 + i] = words[3 + i];
    regs.lr = words[13];
    regs.cr = words[14];
    regs.pc = words[15];
    regs.ctr = words[16];
    regs.gpr[2] = words[17];
    regs.gpr[riscf::kSp] = words[0];  // back chain restore
  }
  if (trace_ != nullptr) {
    trace_->on_priv_transition(trace::PrivEvent::kIsrReturn);
  }
  glue_stack_.pop_back();
  return true;
}

bool Machine::syscall_return(u32& ret_out) {
  cpu_->add_cycles(jitter(60, 120));
  trace::RegSlot ret_slot;
  trace::RegSlot sp_slot;
  if (cisca_cpu_ != nullptr) {
    auto& regs = cisca_cpu_->regs();
    // Return to user via iret: NT must be clear.
    if (test_bit(regs.eflags, cisca::kFlagNT)) {
      isa::Trap trap;
      trap.cause = static_cast<u32>(cisca::Cause::kInvalidTss);
      trap.pc = regs.eip;
      fatal_pending_ = trap;
      return false;
    }
    ret_out = regs.gpr[cisca::kEax];
    regs.gpr[cisca::kEsp] = stack_top(arch_, 0);
    ret_slot = cisca::kEax;
    sp_slot = cisca::kEsp;
  } else {
    auto& regs = riscf_cpu_->regs();
    ret_out = regs.gpr[3];
    regs.gpr[riscf::kSp] = stack_top(arch_, 0);
    ret_slot = 3;
    sp_slot = riscf::kSp;
  }
  if (result_hook_ != nullptr &&
      result_hook_->on_syscall_result(
          static_cast<Syscall>(current_syscall_nr_), &ret_out)) {
    // The hook forced a different result: write it back into the return
    // register so user code (and the trace sink) sees the forced value.
    if (cisca_cpu_ != nullptr) {
      cisca_cpu_->regs().gpr[cisca::kEax] = ret_out;
    } else {
      riscf_cpu_->regs().gpr[3] = ret_out;
    }
  }
  if (trace_ != nullptr) {
    // A tainted return value is the fail-silence-violation signal: the
    // error escaped the kernel into a caller-visible result.
    trace_->on_syscall_result(ret_slot);
    trace_->on_glue_reg_set(sp_slot);
    trace_->on_priv_transition(trace::PrivEvent::kSyscallReturn);
  }
  glue_stack_.pop_back();
  syscall_active_ = false;
  return true;
}

void Machine::maybe_deliver_timer() {
  if (cpu_->cycles() < next_timer_) return;
  if (!interrupts_enabled()) return;
  // No nested timer interrupts: defer while an ISR frame is live.
  for (const GlueFrame& frame : glue_stack_) {
    if (frame.kind == GlueKind::kIsr) return;
  }
  next_timer_ += options_.timer_period;
  enter_isr(/*from_user=*/false);
}

Machine::RuntimeKey Machine::runtime_key() const {
  return {syscall_active_,    pending_syscall_, pending_user_ticks_,
          next_timer_,        user_cycles_total_, expected_sprg2_,
          current_syscall_nr_, rng_.state()};
}

bool Machine::spin_eligible() {
  // Anything that watches single instructions, or ends a run somewhere
  // other than at a cycle, would notice the skipped periods.
  isa::DebugUnit& debug = cpu_->debug();
  return trace_ == nullptr && !debug.insn_bp_armed() &&
         !debug.data_bp_any() &&
         (harness_interrupt_ == nullptr ||
          harness_interrupt_->step_budget == 0);
}

void Machine::spin_save() {
  SpinProbe& p = spin_;
  p.armed = true;
  p.verifying = false;
  p.blocked = false;
  p.lam = 0;
  p.pc = cpu_->pc();
  p.cycles = cpu_->cycles();
  p.cycle_reads = cpu_->cycle_reads();
  p.cpu = cpu_->snapshot();
  p.runtime = runtime_key();
  p.glue = glue_stack_;
  const mem::PhysicalMemory& pm = space_.phys();
  p.versions.resize(pm.num_pages());
  for (u32 page = 0; page < pm.num_pages(); ++page) {
    p.versions[page] = pm.page_version(page);
  }
}

bool Machine::spin_memory_repeats() {
  SpinProbe& p = spin_;
  if (p.blocked) return false;
  const mem::PhysicalMemory& pm = space_.phys();
  p.moved.clear();
  for (u32 page = 0; page < pm.num_pages(); ++page) {
    if (pm.page_version(page) == p.versions[page]) continue;
    if (p.moved.size() == kSpinMaxPages) {
      p.blocked = true;
      return false;
    }
    p.moved.push_back(page);
  }
  if (p.moved.empty()) return true;  // nothing written: memory repeats
  if (p.verifying) {
    // Every page written since the saved state must be one copied there
    // and hold the same bytes again.
    for (const u32 page : p.moved) {
      const auto it = std::find(p.pages.begin(), p.pages.end(), page);
      if (it == p.pages.end() ||
          std::memcmp(pm.page_data(page),
                      p.bytes.data() + (it - p.pages.begin()) * mem::kPageSize,
                      pm.page_bytes(page)) != 0) {
        p.blocked = true;
        return false;
      }
    }
    return true;
  }
  // The registers repeat but some pages were written.  Save this state
  // with copies of those pages; a period that rewrites only them and
  // leaves them byte-identical proves the repeat.
  spin_save();
  p.verifying = true;
  p.pages = p.moved;
  p.bytes.resize(p.pages.size() * mem::kPageSize);
  for (size_t i = 0; i < p.pages.size(); ++i) {
    std::memcpy(p.bytes.data() + i * mem::kPageSize,
                pm.page_data(p.pages[i]), pm.page_bytes(p.pages[i]));
  }
  return false;
}

bool Machine::spin_skip(u64 stop_cycles) {
  SpinProbe& p = spin_;
  p.armed = false;  // probe afresh once the skipped periods are charged
  const u64 now = cpu_->cycles();
  const u64 period = now - p.cycles;
  // The nearest cycle-driven event: the stop, or the next tick unless an
  // ISR is live.  Whether IF is set right here does not matter: it may be
  // set elsewhere in the period.  A tick already due cannot fire (the
  // period closed without delivering it, so IF is clear throughout).
  u64 bound = stop_cycles;
  const bool isr_live =
      std::any_of(glue_stack_.begin(), glue_stack_.end(),
                  [](const GlueFrame& f) { return f.kind == GlueKind::kIsr; });
  if (!isr_live && next_timer_ > now && (bound == 0 || next_timer_ < bound)) {
    bound = next_timer_;
  }
  if (bound <= now || period == 0) return false;
  const u64 skipped = (bound - now) / period * period;
  if (skipped == 0) return false;
  cpu_->add_cycles(skipped);
  ++spin_stats_.skips;
  spin_stats_.skipped_cycles += skipped;
  return true;
}

bool Machine::spin_probe(u64 stop_cycles) {
  SpinProbe& p = spin_;
  if (!p.eligible) return false;
  if (!p.armed) {
    p.power = 1;
    spin_save();
    return false;
  }
  ++p.lam;
  if (cpu_->pc() == p.pc && cpu_->cycle_reads() == p.cycle_reads &&
      cpu_->registers_equal(p.cpu) && runtime_key() == p.runtime &&
      glue_stack_ == p.glue && spin_memory_repeats()) {
    return spin_skip(stop_cycles);
  }
  if (p.lam >= p.power) {
    p.power *= 2;
    spin_save();
  }
  return false;
}

Event Machine::run(u64 stop_cycles) {
  u64 steps = 0;
  u64 blocks = 0;
  // Flips, begin_syscall, breakpoint arming and restores all happen
  // between calls: nothing saved by an earlier call may be compared.
  spin_.eligible = spin_eligible();
  spin_.armed = false;
  for (;;) {
    if (harness_interrupt_ != nullptr) {
      if (harness_interrupt_->requested.load(std::memory_order_relaxed)) {
        throw StallInterrupt("wall-clock watchdog interrupted the run");
      }
      if (harness_interrupt_->step_budget != 0 &&
          ++steps > harness_interrupt_->step_budget) {
        throw StallInterrupt("per-run step budget exhausted");
      }
    }
    if (fatal_pending_) {
      const isa::Trap trap = *fatal_pending_;
      fatal_pending_.reset();
      return make_crash_event(trap);
    }
    if (!syscall_active_ && glue_stack_.empty()) {
      if (pending_user_ticks_ > 0 && interrupts_enabled()) {
        --pending_user_ticks_;
        enter_isr(/*from_user=*/true);
        continue;
      }
      if (pending_syscall_) {
        const PendingSyscall req = *pending_syscall_;
        pending_syscall_.reset();
        setup_syscall_frame(req);
        continue;
      }
      return Event{};  // kIdle
    }
    if (stop_cycles != 0 && cpu_->cycles() >= stop_cycles) {
      Event event;
      event.kind = EventKind::kCycleStop;
      return event;
    }
    maybe_deliver_timer();
    if (fatal_pending_) continue;

    isa::StepResult sr;
    if (!options_.reference) {
      // A state equal to one saved earlier in this call repeats forever
      // (barring cycle-driven events): skip whole periods, then re-check
      // the stop and the timer at the cycle they were skipped to.
      if (++blocks > kSpinGateBlocks && spin_probe(stop_cycles)) continue;
      // One block dispatch stands for up to kMaxBlockInsns iterations of
      // this loop.  The limits reproduce the per-iteration checks above
      // exactly: the cycle bound is the nearest of stop_cycles and the
      // next eligible timer tick (eligibility cannot change inside a
      // block — interrupt-flag writes and glue transitions all end one),
      // and the instruction bound is what remains of the harness step
      // budget.  The CPU stops the block where the checks would have
      // fired and reports how many loop iterations it stood in for.
      isa::BlockLimits limits;
      u64 bound = stop_cycles;
      if (interrupts_enabled()) {
        bool isr_live = false;
        for (const GlueFrame& frame : glue_stack_) {
          if (frame.kind == GlueKind::kIsr) isr_live = true;
        }
        if (!isr_live && (bound == 0 || next_timer_ < bound)) {
          bound = next_timer_;
        }
      }
      limits.cycle_bound = bound;
      if (harness_interrupt_ != nullptr &&
          harness_interrupt_->step_budget != 0) {
        limits.max_insns = harness_interrupt_->step_budget - steps + 1;
      }
      u64 consumed = 1;
      sr = cpu_->step_block(limits, &consumed);
      steps += consumed - 1;
    } else {
      sr = cpu_->step();
    }
    switch (sr.status) {
      case isa::StepStatus::kInsnBp: {
        Event event;
        event.kind = EventKind::kInsnBp;
        return event;
      }
      case isa::StepStatus::kHalted: {
        // A hlt reached in kernel context (usually re-aligned garbage
        // code): the CPU sleeps until the next interrupt, or forever if
        // interrupts are masked.
        if (interrupts_enabled() && next_timer_ > cpu_->cycles()) {
          cpu_->add_cycles(next_timer_ - cpu_->cycles());
          spin_.armed = false;  // a cycle-dependent charge: not periodic
        } else if (!interrupts_enabled()) {
          cpu_->add_cycles(10'000'000);  // burn budget: effectively hung
        }
        break;
      }
      case isa::StepStatus::kOk:
        if (sr.num_data_hits > 0) {
          Event event;
          event.kind = EventKind::kDataBp;
          event.hit = sr.data_hits[0];
          return event;
        }
        break;
      case isa::StepStatus::kTrap: {
        const isa::Trap& trap = sr.trap;
        const bool is_cisca = cisca_cpu_ != nullptr;
        const u32 sys_cause =
            is_cisca ? static_cast<u32>(cisca::Cause::kSyscallReturn)
                     : static_cast<u32>(riscf::Cause::kSyscall);
        if (trap.cause == sys_cause) {
          // Which stub (or stray trap) was this?
          const Addr trap_site = is_cisca ? trap.pc - 2 : trap.pc - 4;
          if (trap_site == glue_addr(kGlueSyscallReturn) &&
              !glue_stack_.empty() &&
              glue_stack_.back().kind == GlueKind::kSyscall) {
            // riscf: the wrapper also guards the syscall-return exception.
            if (arch_ == isa::Arch::kRiscf && options_.g4_stack_wrapper &&
                sp_out_of_any_stack(cpu_->stack_pointer())) {
              return make_crash_event(trap);
            }
            u32 ret = 0;
            if (!syscall_return(ret)) continue;
            Event event;
            event.kind = EventKind::kSyscallDone;
            event.ret = ret;
            return event;
          }
          if (trap_site == glue_addr(kGlueIsrReturn) && !glue_stack_.empty() &&
              glue_stack_.back().kind == GlueKind::kIsr) {
            if (arch_ == isa::Arch::kRiscf && options_.g4_stack_wrapper &&
                sp_out_of_any_stack(cpu_->stack_pointer())) {
              return make_crash_event(trap);
            }
            isr_return();
            continue;
          }
          // A corrupted unwind can "return" into one of the stubs using a
          // stale saved return address without a live glue frame.  The
          // real stubs end in a return-from-exception: model rfi/iret
          // with whatever (stale) state is present.
          if (trap_site == glue_addr(kGlueSyscallReturn) ||
              trap_site == glue_addr(kGlueIsrReturn)) {
            cpu_->add_cycles(jitter(60, 120));
            if (is_cisca) {
              // iret pops eip/cs/eflags from wherever esp points.
              auto& regs = cisca_cpu_->regs();
              const Addr sp = regs.gpr[cisca::kEsp];
              u32 eip = 0;
              const auto tr = space_.translate(sp, 4, mem::Access::kRead);
              if (!tr.ok()) {
                return make_crash_event(
                    glue_access_fault(arch_, sp, false, trap.pc));
              }
              eip = space_.phys().read32(tr.phys, mem::Endian::kLittle);
              regs.gpr[cisca::kEsp] = sp + 12;
              regs.eip = eip;
              if (trace_ != nullptr) {
                trace_->on_ctx_restore(cisca::kSlotEip, tr.phys);
              }
            } else {
              // rfi: resume at SRR0 with the SRR1 machine state.
              auto& regs = riscf_cpu_->regs();
              regs.pc = regs.srr0 & ~3u;
              regs.msr = regs.srr1;
              if (trace_ != nullptr) {
                trace_->on_glue_reg_copy(riscf::kSlotPc, riscf::kSlotSrr0);
                trace_->on_glue_reg_copy(riscf::kSlotMsr, riscf::kSlotSrr1);
              }
            }
            break;
          }
          // Stray sc / int 0x83: panic hypercall or a nested syscall.
          if (!is_cisca && riscf_cpu_->regs().gpr[0] == kPanicHypercall) {
            isa::Trap panic = trap;
            panic.cause = static_cast<u32>(riscf::Cause::kKernelPanic);
            return make_crash_event(panic);
          }
          // A stray trap instruction reached through corrupted code or a
          // bad jump behaves like an unexpected system call: the kernel
          // dispatches it, finds a garbage number, and returns -ENOSYS.
          cpu_->add_cycles(jitter(300, 500));
          if (is_cisca) {
            cisca_cpu_->regs().gpr[cisca::kEax] = kErrReturn;
            if (trace_ != nullptr) trace_->on_glue_reg_set(cisca::kEax);
          } else {
            riscf_cpu_->regs().gpr[3] = kErrReturn;
            if (trace_ != nullptr) trace_->on_glue_reg_set(3);
          }
          break;
        }
        if (is_cisca &&
            trap.cause == static_cast<u32>(cisca::Cause::kSyscall)) {
          // Stray int 0x80: same nested-syscall treatment.
          cpu_->add_cycles(jitter(300, 500));
          cisca_cpu_->regs().gpr[cisca::kEax] = kErrReturn;
          if (trace_ != nullptr) trace_->on_glue_reg_set(cisca::kEax);
          break;
        }
        return make_crash_event(trap);
      }
    }
  }
}

Event Machine::syscall(Syscall nr, u32 a0, u32 a1, u32 a2, u64 budget_cycles) {
  begin_syscall(nr, a0, a1, a2);
  const u64 stop = cpu_->cycles() + budget_cycles;
  for (;;) {
    Event event = run(stop);
    switch (event.kind) {
      case EventKind::kSyscallDone:
      case EventKind::kCrash:
      case EventKind::kCheckstop:
      case EventKind::kCycleStop:
        return event;
      default:
        continue;  // breakpoint noise without an armed consumer
    }
  }
}

MachineSnapshot Machine::snapshot() {
  KFI_CHECK(glue_stack_.empty() && !syscall_active_,
            "snapshot only supported when idle");
  MachineSnapshot snap;
  snap.memory = space_.phys().snapshot_shared();
  snap.cpu = cpu_->snapshot();
  snap.next_timer = next_timer_;
  snap.user_cycles = user_cycles_total_;
  snap.rng_state = rng_.state();
  return snap;
}

void Machine::restore(const MachineSnapshot& snap) {
  if (options_.reference) {
    space_.phys().restore_full(snap.memory);
  } else {
    space_.phys().restore(snap.memory);
  }
  cpu_->restore(snap.cpu);
  next_timer_ = snap.next_timer;
  user_cycles_total_ = snap.user_cycles;
  rng_.set_state(snap.rng_state);
  glue_stack_.clear();
  pending_syscall_.reset();
  pending_user_ticks_ = 0;
  syscall_active_ = false;
  fatal_pending_.reset();
}

}  // namespace kfi::kernel
