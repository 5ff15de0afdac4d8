#include "fabric/wire.hpp"

#include <cstdio>
#include <cstring>

#include "common/codec.hpp"

namespace kfi::fabric {

namespace {

constexpr u8 kSpecVersion = 2;

using codec::Cursor;
using codec::put8;
using codec::put32;
using codec::put64;
using codec::put_double;
using codec::put_string;

static_assert(kFrameOutcomeSlots ==
                  static_cast<size_t>(inject::OutcomeCategory::kNumOutcomes),
              "StatusFrame outcome slots must cover every OutcomeCategory");

}  // namespace

std::vector<u8> serialize_campaign_spec(const inject::CampaignSpec& spec) {
  std::vector<u8> out;
  put8(out, kSpecVersion);
  put8(out, static_cast<u8>(spec.arch));
  put8(out, static_cast<u8>(spec.kind));
  put32(out, spec.injections);
  put64(out, spec.seed);
  put32(out, spec.workload_scale);
  put_double(out, spec.channel_loss);
  put_double(out, spec.budget_factor);
  const kernel::MachineOptions& m = spec.machine;
  put64(out, m.timer_period);
  put64(out, m.user_cycles_mean);
  put8(out, m.g4_stack_wrapper ? 1 : 0);
  put8(out, m.p4_stack_limit_check ? 1 : 0);
  put8(out, m.spinlock_debug ? 1 : 0);
  put64(out, m.seed);
  put8(out, m.reference ? 1 : 0);
  const inject::FaultModel& f = spec.model;
  put8(out, static_cast<u8>(f.shape));
  put8(out, static_cast<u8>(f.trigger));
  put32(out, f.bits);
  put32(out, f.burst_span);
  put_double(out, f.rate);
  put8(out, static_cast<u8>(f.opclass));
  const errnoinj::ErrnoModel& e = spec.errno_model;
  put32(out, e.syscalls);
  put8(out, static_cast<u8>(e.value));
  put8(out, static_cast<u8>(e.trigger));
  put32(out, e.nth);
  put_double(out, e.rate);
  return out;
}

std::optional<inject::CampaignSpec> deserialize_campaign_spec(
    const std::vector<u8>& in) {
  Cursor c{in, 0};
  if (c.get8() != kSpecVersion) return std::nullopt;
  inject::CampaignSpec spec;
  const u8 arch = c.get8();
  if (arch > static_cast<u8>(isa::Arch::kRiscf)) return std::nullopt;
  spec.arch = static_cast<isa::Arch>(arch);
  const u8 kind = c.get8();
  if (kind > static_cast<u8>(inject::CampaignKind::kErrno)) {
    return std::nullopt;
  }
  spec.kind = static_cast<inject::CampaignKind>(kind);
  spec.injections = c.get32();
  spec.seed = c.get64();
  spec.workload_scale = c.get32();
  spec.channel_loss = c.get_double();
  spec.budget_factor = c.get_double();
  kernel::MachineOptions& m = spec.machine;
  m.timer_period = c.get64();
  m.user_cycles_mean = c.get64();
  m.g4_stack_wrapper = c.get8() != 0;
  m.p4_stack_limit_check = c.get8() != 0;
  m.spinlock_debug = c.get8() != 0;
  m.seed = c.get64();
  m.reference = c.get8() != 0;
  inject::FaultModel& f = spec.model;
  const u8 shape = c.get8();
  if (shape > static_cast<u8>(inject::FaultShape::kOpclass)) {
    return std::nullopt;
  }
  f.shape = static_cast<inject::FaultShape>(shape);
  const u8 trigger = c.get8();
  if (trigger > static_cast<u8>(inject::FaultTrigger::kRate)) {
    return std::nullopt;
  }
  f.trigger = static_cast<inject::FaultTrigger>(trigger);
  f.bits = c.get32();
  f.burst_span = c.get32();
  f.rate = c.get_double();
  const u8 opclass = c.get8();
  if (opclass >= static_cast<u8>(isa::OpClass::kNumClasses)) {
    return std::nullopt;
  }
  f.opclass = static_cast<isa::OpClass>(opclass);
  errnoinj::ErrnoModel& e = spec.errno_model;
  e.syscalls = c.get32();
  const u8 value = c.get8();
  if (value > static_cast<u8>(errnoinj::ErrnoValue::kDrawnNegative)) {
    return std::nullopt;
  }
  e.value = static_cast<errnoinj::ErrnoValue>(value);
  const u8 etrigger = c.get8();
  if (etrigger > static_cast<u8>(errnoinj::ErrnoTrigger::kRate)) {
    return std::nullopt;
  }
  e.trigger = static_cast<errnoinj::ErrnoTrigger>(etrigger);
  e.nth = c.get32();
  e.rate = c.get_double();
  if (!c.done()) return std::nullopt;
  return spec;
}

std::string to_hex(const std::vector<u8>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const u8 b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::string fingerprint_hex(u64 fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::optional<std::vector<u8>> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<u8> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<u8>((hi << 4) | lo));
  }
  return out;
}

std::vector<u8> encode_frame(const StatusFrame& frame) {
  std::vector<u8> payload;
  put8(payload, static_cast<u8>(frame.type));
  put64(payload, frame.plan_fingerprint);
  put32(payload, frame.shard);
  put32(payload, frame.pid);
  put32(payload, frame.done);
  put32(payload, frame.total);
  for (const u32 n : frame.outcomes) put32(payload, n);
  put64(payload, frame.executed);
  put64(payload, frame.quarantined);
  put64(payload, frame.stalls);
  put64(payload, frame.harness_retries);
  put64(payload, frame.backoff_waits);
  put_double(payload, frame.backoff_seconds);
  put64(payload, frame.spin_skips);
  put64(payload, frame.spin_skipped_cycles);
  put_string(payload, frame.message);
  return codec::frame_payload(kFrameMagic, payload);
}

std::optional<StatusFrame> decode_frame_payload(const u8* payload,
                                                size_t len) {
  Cursor p{payload, len};
  StatusFrame frame;
  const u8 type = p.get8();
  if (type < static_cast<u8>(FrameType::kHello) ||
      type > static_cast<u8>(FrameType::kError)) {
    return std::nullopt;
  }
  frame.type = static_cast<FrameType>(type);
  frame.plan_fingerprint = p.get64();
  frame.shard = p.get32();
  frame.pid = p.get32();
  frame.done = p.get32();
  frame.total = p.get32();
  for (u32& n : frame.outcomes) n = p.get32();
  frame.executed = p.get64();
  frame.quarantined = p.get64();
  frame.stalls = p.get64();
  frame.harness_retries = p.get64();
  frame.backoff_waits = p.get64();
  frame.backoff_seconds = p.get_double();
  frame.spin_skips = p.get64();
  frame.spin_skipped_cycles = p.get64();
  frame.message = p.get_string();
  if (!p.done()) return std::nullopt;
  return frame;
}

}  // namespace kfi::fabric
