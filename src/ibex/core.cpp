#include "ibex/core.hpp"

#include <algorithm>
#include <bit>

#include "rv/decode.hpp"
#include "rv/isa.hpp"

namespace titan::ibex {

namespace {

std::int32_t s32(std::uint32_t value) { return static_cast<std::int32_t>(value); }

}  // namespace

IbexCore::IbexCore(const IbexConfig& config, soc::Crossbar& bus,
                   const FirmwareRom* rom)
    : config_(config), bus_(bus), pc_(config.reset_pc) {
  regs_[2] = config.reset_sp;
  if (rom != nullptr) {
    rom_table_ = rom->table().data();
    rom_base_ = rom->base();
    rom_slots_ = static_cast<std::uint32_t>(rom->table().size());
  }
}

std::uint32_t IbexCore::csr(std::uint32_t number) const {
  switch (number) {
    case rv::csr::kMstatus: return mstatus_;
    case rv::csr::kMie: return mie_;
    case rv::csr::kMtvec: return mtvec_;
    case rv::csr::kMscratch: return mscratch_;
    case rv::csr::kMepc: return mepc_;
    case rv::csr::kMcause: return mcause_;
    case rv::csr::kMcycle: return static_cast<std::uint32_t>(cycle_);
    case rv::csr::kMinstret: return static_cast<std::uint32_t>(instret_);
    case rv::csr::kMhartid: return 0;
    default: return 0;
  }
}

void IbexCore::set_csr(std::uint32_t number, std::uint32_t value) {
  switch (number) {
    case rv::csr::kMstatus: mstatus_ = value; break;
    case rv::csr::kMie: mie_ = value; break;
    case rv::csr::kMtvec: mtvec_ = value; break;
    case rv::csr::kMscratch: mscratch_ = value; break;
    case rv::csr::kMepc: mepc_ = value; break;
    case rv::csr::kMcause: mcause_ = value; break;
    default: break;
  }
}

Cycle IbexCore::take_trap() {
  mepc_ = pc_;
  mcause_ = kMcauseExtIrq;
  // MPIE <- MIE, MIE <- 0.
  if ((mstatus_ & kMstatusMie) != 0) {
    mstatus_ |= kMstatusMpie;
  } else {
    mstatus_ &= ~kMstatusMpie;
  }
  mstatus_ &= ~kMstatusMie;
  pc_ = mtvec_ & ~0x3u;
  const Cycle cycles =
      sleeping_ ? config_.wakeup_latency : config_.trap_entry_latency;
  sleeping_ = false;
  cycle_ += cycles;
  return cycles;
}

inline const rv::Inst& IbexCore::fetch() {
  // Rotating the offset right by one sends odd offsets past every slot.
  const std::uint32_t slot = std::rotr(pc_ - rom_base_, 1);
  if (slot < rom_slots_ && rom_table_[slot].len != 0) [[likely]] {
    return rom_table_[slot];
  }
  return fetch_slow();
}

const rv::Inst& IbexCore::fetch_slow() {
  ++off_rom_instructions_;
  // The prefetch buffer hides instruction-fetch latency in steady state; we
  // charge fetch time only through the taken-branch penalty.  The high half
  // is fetched only for uncompressed encodings: a single 4-byte read would
  // be routed by the low address alone and could reach past the end of a
  // mapped region, which the crossbar's per-halfword decode never allows.
  std::uint32_t window = static_cast<std::uint32_t>(bus_.read(pc_, 2).value);
  if ((window & 3) == 3) {
    window |= static_cast<std::uint32_t>(bus_.read(pc_ + 2, 2).value) << 16;
  }
  slow_inst_ = rv::decode(window, rv::Xlen::k32);
  return slow_inst_;
}

IbexStep IbexCore::step() {
  IbexStep info;
  info.retired = false;
  if (halted_) {
    return info;
  }
  if (irq_pending()) {
    info.pc = pc_;
    info.irq_entry = true;
    info.cycles = take_trap();
    return info;
  }
  if (sleeping_) {
    info.cycles = 1;
    cycle_ += 1;
    return info;
  }

  info.pc = pc_;
  info.retired = true;
  Effect effect;
  execute(fetch(), effect);
  ++instret_;
  cycle_ += effect.cycles;
  info.cycles = effect.cycles;
  info.mem_cycles = effect.mem_cycles;
  if (effect.accessed) {
    info.mem_addr = effect.mem_addr;
  }
  return info;
}

Cycle IbexCore::run(Cycle target) {
  // The interrupt line, the enables and the sleep state change only in a
  // step that ends this call, so the trap and sleep checks hold until then.
  const Cycle started = cycle_;
  if (irq_pending()) {
    take_trap();
    return started;
  }
  if (sleeping_) {
    // Asleep with the line raised but masked: one idle cycle per step.
    cycle_ = std::max(target, started + 1);
    return cycle_ - 1;
  }
  for (;;) {
    const Cycle start = cycle_;
    Effect effect;
    execute(fetch(), effect);
    ++instret_;
    cycle_ += effect.cycles;
    if (effect.event || cycle_ >= target) {
      return start;
    }
  }
}

void IbexCore::execute(const rv::Inst& inst, Effect& effect) {
  using rv::Op;
  const std::uint32_t rs1 = regs_[inst.rs1];
  const std::uint32_t rs2 = regs_[inst.rs2];
  std::uint32_t next_pc = pc_ + inst.len;
  std::uint32_t rd_value = 0;
  bool writes_rd = true;

  auto note_access = [&](Addr addr, std::uint32_t latency) {
    effect.mem_addr = addr;
    effect.mem_cycles = latency;
    effect.cycles += latency;
    effect.accessed = true;
    effect.event |= !soc::kRotSram.contains(addr);
  };
  auto mem_read = [&](Addr addr, unsigned size) {
    const soc::BusResponse response = bus_.read(addr, size);
    note_access(addr, response.latency);
    return response.value;
  };
  auto mem_write = [&](Addr addr, unsigned size, std::uint64_t value) {
    note_access(addr, bus_.write(addr, size, value).latency);
  };
  auto ea = [&] { return rs1 + static_cast<std::uint32_t>(inst.imm); };
  auto take_cf = [&](std::uint32_t target) {
    next_pc = target;
    effect.cycles += config_.taken_cf_penalty;
  };

  switch (inst.op) {
    case Op::kLui: rd_value = static_cast<std::uint32_t>(inst.imm); break;
    case Op::kAuipc: rd_value = pc_ + static_cast<std::uint32_t>(inst.imm); break;
    case Op::kJal:
      rd_value = pc_ + inst.len;
      take_cf(pc_ + static_cast<std::uint32_t>(inst.imm));
      break;
    case Op::kJalr:
      rd_value = pc_ + inst.len;
      take_cf((rs1 + static_cast<std::uint32_t>(inst.imm)) & ~1u);
      break;
    case Op::kBeq: writes_rd = false; if (rs1 == rs2) take_cf(pc_ + static_cast<std::uint32_t>(inst.imm)); break;
    case Op::kBne: writes_rd = false; if (rs1 != rs2) take_cf(pc_ + static_cast<std::uint32_t>(inst.imm)); break;
    case Op::kBlt: writes_rd = false; if (s32(rs1) < s32(rs2)) take_cf(pc_ + static_cast<std::uint32_t>(inst.imm)); break;
    case Op::kBge: writes_rd = false; if (s32(rs1) >= s32(rs2)) take_cf(pc_ + static_cast<std::uint32_t>(inst.imm)); break;
    case Op::kBltu: writes_rd = false; if (rs1 < rs2) take_cf(pc_ + static_cast<std::uint32_t>(inst.imm)); break;
    case Op::kBgeu: writes_rd = false; if (rs1 >= rs2) take_cf(pc_ + static_cast<std::uint32_t>(inst.imm)); break;
    case Op::kLb:
      rd_value = static_cast<std::uint32_t>(static_cast<std::int32_t>(
          static_cast<std::int8_t>(mem_read(ea(), 1))));
      break;
    case Op::kLh:
      rd_value = static_cast<std::uint32_t>(static_cast<std::int32_t>(
          static_cast<std::int16_t>(mem_read(ea(), 2))));
      break;
    case Op::kLw:
      rd_value = static_cast<std::uint32_t>(mem_read(ea(), 4));
      break;
    case Op::kLbu: rd_value = static_cast<std::uint32_t>(mem_read(ea(), 1)); break;
    case Op::kLhu: rd_value = static_cast<std::uint32_t>(mem_read(ea(), 2)); break;
    case Op::kSb: writes_rd = false; mem_write(ea(), 1, rs2); break;
    case Op::kSh: writes_rd = false; mem_write(ea(), 2, rs2); break;
    case Op::kSw: writes_rd = false; mem_write(ea(), 4, rs2); break;
    case Op::kAddi: rd_value = rs1 + static_cast<std::uint32_t>(inst.imm); break;
    case Op::kSlti: rd_value = s32(rs1) < inst.imm ? 1 : 0; break;
    case Op::kSltiu: rd_value = rs1 < static_cast<std::uint32_t>(inst.imm) ? 1 : 0; break;
    case Op::kXori: rd_value = rs1 ^ static_cast<std::uint32_t>(inst.imm); break;
    case Op::kOri: rd_value = rs1 | static_cast<std::uint32_t>(inst.imm); break;
    case Op::kAndi: rd_value = rs1 & static_cast<std::uint32_t>(inst.imm); break;
    case Op::kSlli: rd_value = rs1 << (inst.imm & 31); break;
    case Op::kSrli: rd_value = rs1 >> (inst.imm & 31); break;
    case Op::kSrai: rd_value = static_cast<std::uint32_t>(s32(rs1) >> (inst.imm & 31)); break;
    case Op::kAdd: rd_value = rs1 + rs2; break;
    case Op::kSub: rd_value = rs1 - rs2; break;
    case Op::kSll: rd_value = rs1 << (rs2 & 31); break;
    case Op::kSlt: rd_value = s32(rs1) < s32(rs2) ? 1 : 0; break;
    case Op::kSltu: rd_value = rs1 < rs2 ? 1 : 0; break;
    case Op::kXor: rd_value = rs1 ^ rs2; break;
    case Op::kSrl: rd_value = rs1 >> (rs2 & 31); break;
    case Op::kSra: rd_value = static_cast<std::uint32_t>(s32(rs1) >> (rs2 & 31)); break;
    case Op::kOr: rd_value = rs1 | rs2; break;
    case Op::kAnd: rd_value = rs1 & rs2; break;
    case Op::kFence: writes_rd = false; break;
    case Op::kEcall:
    case Op::kEbreak:
      writes_rd = false;
      halted_ = true;
      effect.event = true;
      break;
    case Op::kMret:
      writes_rd = false;
      effect.event = true;
      next_pc = mepc_;
      if ((mstatus_ & kMstatusMpie) != 0) {
        mstatus_ |= kMstatusMie;
      } else {
        mstatus_ &= ~kMstatusMie;
      }
      mstatus_ |= kMstatusMpie;
      effect.cycles += config_.taken_cf_penalty;
      break;
    case Op::kWfi:
      writes_rd = false;
      sleeping_ = true;
      effect.event = true;
      break;
    case Op::kCsrrw: {
      effect.event = true;
      const std::uint32_t old = csr(static_cast<std::uint32_t>(inst.imm));
      set_csr(static_cast<std::uint32_t>(inst.imm), rs1);
      rd_value = old;
      break;
    }
    case Op::kCsrrs: {
      effect.event = true;
      const std::uint32_t old = csr(static_cast<std::uint32_t>(inst.imm));
      if (inst.rs1 != 0) {
        set_csr(static_cast<std::uint32_t>(inst.imm), old | rs1);
      }
      rd_value = old;
      break;
    }
    case Op::kCsrrc: {
      effect.event = true;
      const std::uint32_t old = csr(static_cast<std::uint32_t>(inst.imm));
      if (inst.rs1 != 0) {
        set_csr(static_cast<std::uint32_t>(inst.imm), old & ~rs1);
      }
      rd_value = old;
      break;
    }
    case Op::kCsrrwi: {
      effect.event = true;
      const std::uint32_t old = csr(static_cast<std::uint32_t>(inst.imm));
      set_csr(static_cast<std::uint32_t>(inst.imm), inst.rs1);
      rd_value = old;
      break;
    }
    case Op::kCsrrsi: {
      effect.event = true;
      const std::uint32_t old = csr(static_cast<std::uint32_t>(inst.imm));
      if (inst.rs1 != 0) {
        set_csr(static_cast<std::uint32_t>(inst.imm), old | inst.rs1);
      }
      rd_value = old;
      break;
    }
    case Op::kCsrrci: {
      effect.event = true;
      const std::uint32_t old = csr(static_cast<std::uint32_t>(inst.imm));
      if (inst.rs1 != 0) {
        set_csr(static_cast<std::uint32_t>(inst.imm), old & ~static_cast<std::uint32_t>(inst.rs1));
      }
      rd_value = old;
      break;
    }
    case Op::kMul:
      rd_value = rs1 * rs2;
      effect.cycles += config_.mul_cycles - 1;
      break;
    case Op::kMulh:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(s32(rs1)) * s32(rs2)) >> 32);
      effect.cycles += config_.mul_cycles - 1;
      break;
    case Op::kMulhsu:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(s32(rs1)) * static_cast<std::uint64_t>(rs2)) >> 32);
      effect.cycles += config_.mul_cycles - 1;
      break;
    case Op::kMulhu:
      rd_value = static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(rs1) * rs2) >> 32);
      effect.cycles += config_.mul_cycles - 1;
      break;
    case Op::kDiv:
      rd_value = rs2 == 0 ? 0xFFFFFFFFu
                 : (rs1 == 0x80000000u && rs2 == 0xFFFFFFFFu)
                     ? 0x80000000u
                     : static_cast<std::uint32_t>(s32(rs1) / s32(rs2));
      effect.cycles += config_.div_cycles - 1;
      break;
    case Op::kDivu:
      rd_value = rs2 == 0 ? 0xFFFFFFFFu : rs1 / rs2;
      effect.cycles += config_.div_cycles - 1;
      break;
    case Op::kRem:
      rd_value = rs2 == 0 ? rs1
                 : (rs1 == 0x80000000u && rs2 == 0xFFFFFFFFu)
                     ? 0
                     : static_cast<std::uint32_t>(s32(rs1) % s32(rs2));
      effect.cycles += config_.div_cycles - 1;
      break;
    case Op::kRemu:
      rd_value = rs2 == 0 ? rs1 : rs1 % rs2;
      effect.cycles += config_.div_cycles - 1;
      break;
    default:
      // Illegal instruction or RV64-only op: halt with no architectural
      // effects (the firmware images never contain these).
      writes_rd = false;
      halted_ = true;
      effect.event = true;
      break;
  }

  if (writes_rd && inst.rd != 0) {
    regs_[inst.rd] = rd_value;
  }
  pc_ = next_pc;
}

}  // namespace titan::ibex
