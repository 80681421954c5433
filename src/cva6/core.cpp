#include "cva6/core.hpp"

#include <stdexcept>

#include "rv/decode.hpp"

namespace titan::cva6 {

namespace {

std::int64_t s64(std::uint64_t value) { return static_cast<std::int64_t>(value); }

std::uint64_t sext32(std::uint32_t value) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(value)));
}

[[noreturn, gnu::cold, gnu::noinline]] void budget_exhausted() {
  throw std::runtime_error("Cva6Core: instruction budget exhausted");
}

}  // namespace

Cva6Core::Cva6Core(const Cva6Config& config, sim::Memory& memory)
    : config_(config), memory_(memory), pc_(config.reset_pc),
      latency_{1, config.load_cycles, config.store_cycles, config.mul_cycles,
               config.div_cycles} {
  if (config_.rob_depth == 0) {
    throw std::invalid_argument("Cva6Core: rob_depth must be >= 1");
  }
  regs_[2] = config.reset_sp;
  rob_ = std::make_unique<RobEntry[]>(config_.rob_depth);
}

void Cva6Core::issue_one() {
  if (halted_) {
    return;
  }
  if (instret_ >= config_.max_instructions) [[unlikely]] {
    budget_exhausted();
  }

  // One instruction-lane page probe yields the whole fetch window; the
  // decode cache skips rv::decode whenever the window's encoding matches.
  const std::uint32_t window = fetch_window(pc_);
  const sim::DecodeCache::Entry& decoded =
      decode_cache_enabled_ ? decode_cache_.decode(pc_, window)
                            : decode_uncached(window);
  const rv::Inst& inst = decoded.inst;

  // Construct the entry in place in its ring slot (issue order == slot
  // order; the caller guarantees a free slot).
  RobEntry& rob_entry = rob_at(rob_size_);
  ScoreboardEntry& entry = rob_entry.entry;
  entry.pc = pc_;
  entry.inst = inst;
  entry.next_pc = pc_ + inst.len;
  entry.kind = decoded.kind;

  execute(decoded, entry);
  ++instret_;

  std::uint32_t latency =
      latency_[static_cast<std::size_t>(decoded.latency)];
  if (entry.kind != rv::CfKind::kNone && entry.target != entry.next_pc) {
    latency += config_.taken_cf_penalty;
  }

  // In-order single-issue without result pipelining: an instruction holds
  // the execute stage for its full latency (CVA6's in-order back-end stalls
  // on use, and its divider is iterative), so issue serialises by latency.
  issue_ready_ = std::max(issue_ready_, cycle_);
  rob_entry.ready = issue_ready_ + latency - 1;
  issue_ready_ += latency;
  if (rv::cfi_relevant(entry.kind)) {
    ++rob_cfi_count_;
  }
  ++rob_size_;
}

void Cva6Core::execute(const sim::DecodeCache::Entry& decoded,
                       ScoreboardEntry& entry) {
  using rv::Op;
  const rv::Inst& inst = decoded.inst;
  const std::uint64_t rs1 = regs_[inst.rs1];
  const std::uint64_t rs2 = regs_[inst.rs2];
  const std::uint64_t imm = static_cast<std::uint64_t>(inst.imm);
  std::uint64_t next_pc = entry.next_pc;
  std::uint64_t rd_value = 0;
  bool writes_rd = true;

  const std::uint64_t ea = rs1 + imm;

  // PMP check for data accesses (access fault on denial, paper Sec. VI).
  const bool is_load = decoded.latency == sim::LatencyClass::kLoad;
  const bool is_store = decoded.latency == sim::LatencyClass::kStore;
  if (pmp_ != nullptr && (is_load || is_store)) {
    const auto kind = is_load ? soc::PmpAccess::kRead : soc::PmpAccess::kWrite;
    if (!pmp_->check(ea, kind)) [[unlikely]] {
      deny_access(entry);
      return;
    }
  }

  switch (inst.op) {
    case Op::kLui: rd_value = imm; break;
    case Op::kAuipc: rd_value = entry.pc + imm; break;
    case Op::kJal:
      rd_value = entry.next_pc;
      next_pc = entry.pc + imm;
      break;
    case Op::kJalr:
      rd_value = entry.next_pc;
      next_pc = ea & ~std::uint64_t{1};
      break;
    case Op::kBeq: writes_rd = false; if (rs1 == rs2) next_pc = entry.pc + imm; break;
    case Op::kBne: writes_rd = false; if (rs1 != rs2) next_pc = entry.pc + imm; break;
    case Op::kBlt: writes_rd = false; if (s64(rs1) < s64(rs2)) next_pc = entry.pc + imm; break;
    case Op::kBge: writes_rd = false; if (s64(rs1) >= s64(rs2)) next_pc = entry.pc + imm; break;
    case Op::kBltu: writes_rd = false; if (rs1 < rs2) next_pc = entry.pc + imm; break;
    case Op::kBgeu: writes_rd = false; if (rs1 >= rs2) next_pc = entry.pc + imm; break;
    case Op::kLb: rd_value = static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int8_t>(memory_.read8(ea)))); break;
    case Op::kLh: rd_value = static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int16_t>(memory_.read16(ea)))); break;
    case Op::kLw: rd_value = sext32(memory_.read32(ea)); break;
    case Op::kLbu: rd_value = memory_.read8(ea); break;
    case Op::kLhu: rd_value = memory_.read16(ea); break;
    case Op::kLwu: rd_value = memory_.read32(ea); break;
    case Op::kLd: rd_value = memory_.read64(ea); break;
    case Op::kSb: writes_rd = false; memory_.write8(ea, static_cast<std::uint8_t>(rs2)); break;
    case Op::kSh: writes_rd = false; memory_.write16(ea, static_cast<std::uint16_t>(rs2)); break;
    case Op::kSw: writes_rd = false; memory_.write32(ea, static_cast<std::uint32_t>(rs2)); break;
    case Op::kSd: writes_rd = false; memory_.write64(ea, rs2); break;
    case Op::kAddi: rd_value = rs1 + imm; break;
    case Op::kSlti: rd_value = s64(rs1) < inst.imm ? 1 : 0; break;
    case Op::kSltiu: rd_value = rs1 < imm ? 1 : 0; break;
    case Op::kXori: rd_value = rs1 ^ imm; break;
    case Op::kOri: rd_value = rs1 | imm; break;
    case Op::kAndi: rd_value = rs1 & imm; break;
    case Op::kSlli: rd_value = rs1 << (imm & 63); break;
    case Op::kSrli: rd_value = rs1 >> (imm & 63); break;
    case Op::kSrai: rd_value = static_cast<std::uint64_t>(s64(rs1) >> (imm & 63)); break;
    case Op::kAdd: rd_value = rs1 + rs2; break;
    case Op::kSub: rd_value = rs1 - rs2; break;
    case Op::kSll: rd_value = rs1 << (rs2 & 63); break;
    case Op::kSlt: rd_value = s64(rs1) < s64(rs2) ? 1 : 0; break;
    case Op::kSltu: rd_value = rs1 < rs2 ? 1 : 0; break;
    case Op::kXor: rd_value = rs1 ^ rs2; break;
    case Op::kSrl: rd_value = rs1 >> (rs2 & 63); break;
    case Op::kSra: rd_value = static_cast<std::uint64_t>(s64(rs1) >> (rs2 & 63)); break;
    case Op::kOr: rd_value = rs1 | rs2; break;
    case Op::kAnd: rd_value = rs1 & rs2; break;
    case Op::kAddiw: rd_value = sext32(static_cast<std::uint32_t>(rs1 + imm)); break;
    case Op::kSlliw: rd_value = sext32(static_cast<std::uint32_t>(rs1) << (imm & 31)); break;
    case Op::kSrliw: rd_value = sext32(static_cast<std::uint32_t>(rs1) >> (imm & 31)); break;
    case Op::kSraiw: rd_value = sext32(static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::uint32_t>(rs1)) >> (imm & 31))); break;
    case Op::kAddw: rd_value = sext32(static_cast<std::uint32_t>(rs1 + rs2)); break;
    case Op::kSubw: rd_value = sext32(static_cast<std::uint32_t>(rs1 - rs2)); break;
    case Op::kSllw: rd_value = sext32(static_cast<std::uint32_t>(rs1) << (rs2 & 31)); break;
    case Op::kSrlw: rd_value = sext32(static_cast<std::uint32_t>(rs1) >> (rs2 & 31)); break;
    case Op::kSraw: rd_value = sext32(static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::uint32_t>(rs1)) >> (rs2 & 31))); break;
    case Op::kFence: writes_rd = false; break;
    case Op::kEcall:
      writes_rd = false;
      halted_ = true;
      exit_code_ = regs_[10];
      break;
    case Op::kEbreak:
      writes_rd = false;
      halted_ = true;
      exit_code_ = 0xDEAD;
      break;
    case Op::kMul: rd_value = rs1 * rs2; break;
    case Op::kMulh: rd_value = static_cast<std::uint64_t>((static_cast<__int128>(s64(rs1)) * s64(rs2)) >> 64); break;
    case Op::kMulhsu: rd_value = static_cast<std::uint64_t>((static_cast<__int128>(s64(rs1)) * static_cast<unsigned __int128>(rs2)) >> 64); break;
    case Op::kMulhu: rd_value = static_cast<std::uint64_t>((static_cast<unsigned __int128>(rs1) * rs2) >> 64); break;
    case Op::kDiv:
      rd_value = rs2 == 0 ? ~std::uint64_t{0}
                 : (s64(rs1) == INT64_MIN && s64(rs2) == -1)
                     ? rs1
                     : static_cast<std::uint64_t>(s64(rs1) / s64(rs2));
      break;
    case Op::kDivu: rd_value = rs2 == 0 ? ~std::uint64_t{0} : rs1 / rs2; break;
    case Op::kRem:
      rd_value = rs2 == 0 ? rs1
                 : (s64(rs1) == INT64_MIN && s64(rs2) == -1)
                     ? 0
                     : static_cast<std::uint64_t>(s64(rs1) % s64(rs2));
      break;
    case Op::kRemu: rd_value = rs2 == 0 ? rs1 : rs1 % rs2; break;
    case Op::kMulw: rd_value = sext32(static_cast<std::uint32_t>(rs1) * static_cast<std::uint32_t>(rs2)); break;
    case Op::kDivw: {
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      rd_value = b == 0 ? ~std::uint64_t{0}
                 : (a == INT32_MIN && b == -1) ? sext32(static_cast<std::uint32_t>(a))
                                               : sext32(static_cast<std::uint32_t>(a / b));
      break;
    }
    case Op::kDivuw: {
      const auto a = static_cast<std::uint32_t>(rs1);
      const auto b = static_cast<std::uint32_t>(rs2);
      rd_value = b == 0 ? ~std::uint64_t{0} : sext32(a / b);
      break;
    }
    case Op::kRemw: {
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      rd_value = b == 0 ? sext32(static_cast<std::uint32_t>(a))
                 : (a == INT32_MIN && b == -1) ? 0
                                               : sext32(static_cast<std::uint32_t>(a % b));
      break;
    }
    case Op::kRemuw: {
      const auto a = static_cast<std::uint32_t>(rs1);
      const auto b = static_cast<std::uint32_t>(rs2);
      rd_value = b == 0 ? sext32(a) : sext32(a % b);
      break;
    }
    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
      // The host workloads only read hart id / cycle counters; return 0.
      rd_value = 0;
      break;
    case Op::kMret: case Op::kWfi:
      writes_rd = false;
      break;
    case Op::kIllegal:
      writes_rd = false;
      halted_ = true;
      exit_code_ = 0xBAD;
      break;
  }

  if (writes_rd && inst.rd != 0) {
    regs_[inst.rd] = rd_value;
  }
  entry.target = next_pc;
  pc_ = next_pc;
}

void Cva6Core::deny_access(ScoreboardEntry& entry) {
  access_fault_ = true;
  halted_ = true;
  exit_code_ = 0xACC;
  entry.target = entry.next_pc;
}

std::uint32_t Cva6Core::fetch_refill(std::uint64_t pc) {
  std::uint32_t window;
  if (fetch_cache_.refill(memory_, pc, &window)) [[likely]] {
    return window;
  }
  // Page straddle, unmapped page, or seed-mode memory: the full probe also
  // handles strict-mode accounting.
  return memory_.fetch32(pc);
}

const sim::DecodeCache::Entry& Cva6Core::decode_uncached(std::uint32_t window) {
  uncached_.fill(window, rv::Xlen::k64);
  return uncached_;
}

std::span<const ScoreboardEntry> Cva6Core::commit_candidates() {
  candidates_.clear();
  for (std::size_t index = 0; index < rob_size_; ++index) {
    const RobEntry& rob_entry = rob_at(index);
    if (rob_entry.ready > cycle_ || candidates_.size() >= config_.commit_width) {
      break;
    }
    candidates_.push_back(rob_entry.entry);
  }
  return candidates_;
}

void Cva6Core::retire(unsigned count) {
  if (count < candidates_.size()) {
    ++stall_cycles_;
  }
  for (unsigned i = 0; i < count; ++i) {
    const RobEntry& front = rob_at(0);
    if (trace_enabled_) [[unlikely]] {
      record_commit(front.entry);
    }
    if (rv::cfi_relevant(front.entry.kind)) {
      --rob_cfi_count_;
    }
    rob_pop_front();
  }
}

void Cva6Core::record_commit(const ScoreboardEntry& entry) {
  trace_.push_back({.cycle = cycle_,
                    .pc = entry.pc,
                    .encoding = entry.inst.expanded,
                    .kind = entry.kind,
                    .next_pc = entry.next_pc,
                    .target = entry.target});
}

void Cva6Core::tick() {
  // Refill the ROB (front-end runs ahead of commit).
  while (rob_size_ < config_.rob_depth && !halted_) {
    issue_one();
  }
  ++cycle_;
}

Cva6Core::FastForwardResult Cva6Core::run_until_event(Cycle limit) {
  FastForwardResult result;
  if (rob_cfi_count_ > 0) {
    return result;  // A CFI entry may already be a commit candidate.
  }
  while (cycle_ < limit) {
    if (halted_ && rob_size_ == 0) {
      break;  // program_done(): the caller's run loop exits here too.
    }
    // Retire the ready prefix (in order, up to commit_width) — every entry
    // is non-CFI by the loop invariant, so the external arbiter would have
    // allowed all of them and recorded no stall.
    unsigned retired = 0;
    while (retired < config_.commit_width && rob_size_ != 0 &&
           rob_at(0).ready <= cycle_) {
      if (trace_enabled_) [[unlikely]] {
        record_commit(rob_at(0).entry);
      }
      rob_pop_front();
      ++retired;
    }
    result.port0_scans += (retired + 1) / 2;
    result.port1_scans += retired / 2;
    if (retired == 0 && rob_size_ != 0 &&
        (halted_ || rob_size_ >= config_.rob_depth)) {
      // Nothing retires and nothing can issue until the head entry's latency
      // expires: every intermediate cycle is observably empty, so jump the
      // clock straight to the head's ready cycle (or the limit).
      const Cycle next = std::min(rob_at(0).ready, limit);
      result.cycles += next - cycle_;
      cycle_ = next;
      continue;
    }
    // Refill the ROB exactly as tick() would.  A CFI-relevant instruction
    // issued here only becomes a commit candidate next cycle, so this cycle
    // still completes under the fast path.
    while (rob_size_ < config_.rob_depth && !halted_) {
      issue_one();
    }
    ++cycle_;
    ++result.cycles;
    if (rob_cfi_count_ > 0) {
      break;  // Next cycle needs per-cycle CFI arbitration.
    }
  }
  return result;
}

sim::Cycle Cva6Core::run_baseline() {
  while (!program_done()) {
    const auto ready = commit_candidates();
    retire(static_cast<unsigned>(ready.size()));
    tick();
  }
  return cycle_;
}

void Cva6Core::raise_cfi_fault() {
  cfi_fault_ = true;
  halted_ = true;
  exit_code_ = 0xCF1;
}

namespace {

// Decoded entries are serialized verbatim (not re-decoded from the raw
// encoding): with the decode cache disabled nothing guarantees the captured
// Inst came from rv::decode of a normalised key, so re-deriving it could
// diverge for hand-built entries.  The snapshot fingerprint covers the bytes.
void save_entry(sim::SnapshotWriter& writer, const ScoreboardEntry& entry) {
  writer.u64(entry.pc);
  writer.u8(static_cast<std::uint8_t>(entry.inst.op));
  writer.u8(entry.inst.rd);
  writer.u8(entry.inst.rs1);
  writer.u8(entry.inst.rs2);
  writer.u64(static_cast<std::uint64_t>(entry.inst.imm));
  writer.u32(entry.inst.raw);
  writer.u32(entry.inst.expanded);
  writer.u8(entry.inst.len);
  writer.u64(entry.next_pc);
  writer.u64(entry.target);
  writer.u8(static_cast<std::uint8_t>(entry.kind));
}

ScoreboardEntry load_entry(sim::SnapshotReader& reader) {
  ScoreboardEntry entry;
  entry.pc = reader.u64();
  entry.inst.op = static_cast<rv::Op>(reader.u8());
  entry.inst.rd = reader.u8();
  entry.inst.rs1 = reader.u8();
  entry.inst.rs2 = reader.u8();
  entry.inst.imm = static_cast<std::int64_t>(reader.u64());
  entry.inst.raw = reader.u32();
  entry.inst.expanded = reader.u32();
  entry.inst.len = reader.u8();
  entry.next_pc = reader.u64();
  entry.target = reader.u64();
  entry.kind = static_cast<rv::CfKind>(reader.u8());
  return entry;
}

void save_record(sim::SnapshotWriter& writer, const CommitRecord& record) {
  writer.u64(record.cycle);
  writer.u64(record.pc);
  writer.u32(record.encoding);
  writer.u8(static_cast<std::uint8_t>(record.kind));
  writer.u64(record.next_pc);
  writer.u64(record.target);
}

CommitRecord load_record(sim::SnapshotReader& reader) {
  CommitRecord record;
  record.cycle = reader.u64();
  record.pc = reader.u64();
  record.encoding = reader.u32();
  record.kind = static_cast<rv::CfKind>(reader.u8());
  record.next_pc = reader.u64();
  record.target = reader.u64();
  return record;
}

}  // namespace

void Cva6Core::save_state(sim::SnapshotWriter& writer) const {
  for (const std::uint64_t reg : regs_) {
    writer.u64(reg);
  }
  writer.u64(pc_);
  writer.boolean(halted_);
  writer.boolean(cfi_fault_);
  writer.boolean(access_fault_);
  writer.u64(exit_code_);
  writer.u64(cycle_);
  writer.u64(issue_ready_);
  writer.u64(instret_);
  writer.u64(rob_size_);
  for (std::size_t index = 0; index < rob_size_; ++index) {
    const RobEntry& rob_entry = rob_[(rob_head_ + index) % config_.rob_depth];
    save_entry(writer, rob_entry.entry);
    writer.u64(rob_entry.ready);
  }
  writer.u64(stall_cycles_);
  writer.boolean(trace_enabled_);
  writer.u64(trace_.size());
  for (const CommitRecord& record : trace_) {
    save_record(writer, record);
  }
  decode_cache_.save_state(writer);
  writer.boolean(decode_cache_enabled_);
}

void Cva6Core::load_state(sim::SnapshotReader& reader) {
  for (std::uint64_t& reg : regs_) {
    reg = reader.u64();
  }
  pc_ = reader.u64();
  halted_ = reader.boolean();
  cfi_fault_ = reader.boolean();
  access_fault_ = reader.boolean();
  exit_code_ = reader.u64();
  cycle_ = reader.u64();
  issue_ready_ = reader.u64();
  instret_ = reader.u64();
  const std::uint64_t rob_count = reader.u64();
  if (rob_count > config_.rob_depth) {
    throw sim::SnapshotError("cva6: snapshot ROB exceeds configured depth");
  }
  rob_head_ = 0;
  rob_size_ = static_cast<std::size_t>(rob_count);
  rob_cfi_count_ = 0;
  for (std::size_t index = 0; index < rob_size_; ++index) {
    rob_[index].entry = load_entry(reader);
    rob_[index].ready = reader.u64();
    if (rob_[index].entry.cfi_relevant()) {
      ++rob_cfi_count_;
    }
  }
  // Dead at any cycle boundary: commit_candidates() rebuilds it from the ROB
  // before the next retire looks at it.
  candidates_.clear();
  stall_cycles_ = reader.u64();
  trace_enabled_ = reader.boolean();
  trace_.clear();
  const std::uint64_t trace_count = reader.u64();
  for (std::uint64_t i = 0; i < trace_count; ++i) {
    trace_.push_back(load_record(reader));
  }
  decode_cache_.load_state(reader);
  decode_cache_enabled_ = reader.boolean();
  fetch_cache_.invalidate();
}

}  // namespace titan::cva6
