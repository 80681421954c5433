#include "firmware/table1.hpp"

#include <iomanip>
#include <stdexcept>
#include <vector>

#include "rv/encode.hpp"
#include "soc/mailbox.hpp"
#include "soc/memmap.hpp"
#include "titancfi/commit_log.hpp"

namespace titan::fw {

namespace {

struct Bench {
  soc::Mailbox mailbox;
  sim::Memory soc_memory;
  std::unique_ptr<cfi::RotSubsystem> rot;
  FwVariant fw_variant;

  explicit Bench(RotVariant variant) {
    FirmwareConfig config;
    config.variant =
        variant == RotVariant::kIrq ? FwVariant::kIrq : FwVariant::kPolling;
    fw_variant = config.variant;
    const auto fabric = variant == RotVariant::kOptimized
                            ? cfi::RotFabric::kOptimized
                            : cfi::RotFabric::kBaseline;
    rot = std::make_unique<cfi::RotSubsystem>(
        shared_rom(config), fabric, mailbox,
        soc_memory);
    // Run init until the firmware reaches its idle loop.
    for (int guard = 0; guard < 10000; ++guard) {
      if (idle()) {
        return;
      }
      rot->step();
    }
    throw std::runtime_error("Table1: firmware never reached idle");
  }

  [[nodiscard]] bool idle() {
    if (fw_variant == FwVariant::kIrq) {
      return rot->core().sleeping();
    }
    return rot->section_of(rot->core().pc()) == "main";
  }

  /// Send one commit log and process it; optionally collect the breakdown.
  void run_op(const cfi::CommitLog& log, CostBreakdown* breakdown) {
    const auto beats = log.pack();
    for (unsigned i = 0; i < beats.size(); ++i) {
      mailbox.set_data(i, beats[i]);
    }
    mailbox.ring_doorbell();

    bool seen_policy = false;
    for (int guard = 0; guard < 1'000'000; ++guard) {
      // Stop once the op is fully processed and the firmware is idle again.
      if (mailbox.completion_pending() && idle()) {
        break;
      }
      const ibex::IbexStep step = rot->step();
      if (step.irq_entry) {
        if (breakdown != nullptr) {
          breakdown->irq_logic.cycles += step.cycles;
        }
        continue;
      }
      if (!step.retired) {
        continue;
      }
      const std::string section = rot->section_of(step.pc);
      if (section == "main" || section == "init") {
        continue;  // Idle/poll loop: not part of the per-op cost (Sec. V-B).
      }
      seen_policy |= section == "cfi";
      if (breakdown == nullptr) {
        continue;
      }
      const bool is_irq = section == "irq" || section == "irq_exit";
      CostBucket* bucket = nullptr;
      if (step.mem_addr.has_value()) {
        const bool rot_private = soc::is_rot_private(*step.mem_addr);
        bucket = is_irq ? (rot_private ? &breakdown->irq_mem_rot
                                       : &breakdown->irq_mem_soc)
                        : (rot_private ? &breakdown->cfi_mem_rot
                                       : &breakdown->cfi_mem_soc);
      } else {
        bucket = is_irq ? &breakdown->irq_logic : &breakdown->cfi_logic;
      }
      bucket->instructions += 1;
      bucket->cycles += step.cycles;
    }
    if (!seen_policy && breakdown != nullptr) {
      throw std::runtime_error("Table1: policy never executed");
    }
    mailbox.clear_completion();
    mailbox.set_data(0, 0);
  }
};

cfi::CommitLog make_call(std::uint64_t pc) {
  cfi::CommitLog log;
  log.pc = pc;
  log.encoding = rv::enc_j(0x6F, 1, 0x100);  // jal ra, +0x100
  log.next = pc + 4;
  log.target = pc + 0x100;
  return log;
}

cfi::CommitLog make_return(std::uint64_t pc, std::uint64_t target) {
  cfi::CommitLog log;
  log.pc = pc;
  log.encoding = 0x00008067;  // jalr x0, 0(ra)
  log.next = pc + 4;
  log.target = target;
  return log;
}

}  // namespace

CostBucket CostBreakdown::irq_total() const {
  CostBucket bucket;
  bucket += irq_logic;
  bucket += irq_mem_rot;
  bucket += irq_mem_soc;
  return bucket;
}

CostBucket CostBreakdown::cfi_total() const {
  CostBucket bucket;
  bucket += cfi_logic;
  bucket += cfi_mem_rot;
  bucket += cfi_mem_soc;
  return bucket;
}

CostBucket CostBreakdown::total() const {
  CostBucket bucket = irq_total();
  bucket += cfi_total();
  return bucket;
}

CostBreakdown measure_policy_cost(RotVariant variant, OpCase op_case,
                                  unsigned ss_capacity) {
  (void)ss_capacity;
  Bench bench(variant);

  // Warm-up: a couple of call/return pairs keep the shadow stack shallow and
  // the measurement in steady state (no spill/fill traffic).
  const std::uint64_t base = 0x8000'0000;
  bench.run_op(make_call(base), nullptr);
  bench.run_op(make_return(base + 0x100 + 0x40, base + 4), nullptr);

  CostBreakdown breakdown;
  if (op_case == OpCase::kCall) {
    bench.run_op(make_call(base + 0x20), &breakdown);
  } else {
    bench.run_op(make_call(base + 0x20), nullptr);
    bench.run_op(make_return(base + 0x120 + 0x40, base + 0x24), &breakdown);
  }
  return breakdown;
}

void print_table1(std::ostream& os) {
  const auto row = [&os](const char* label, const CostBucket& irq,
                         const CostBucket& cfi) {
    const CostBucket total{irq.instructions + cfi.instructions,
                           irq.cycles + cfi.cycles};
    os << "    " << std::left << std::setw(10) << label << std::right
       << std::setw(6) << irq.instructions << std::setw(6) << cfi.instructions
       << std::setw(6) << total.instructions << "  |" << std::setw(6)
       << irq.cycles << std::setw(6) << cfi.cycles << std::setw(6)
       << total.cycles << "\n";
  };

  os << "TABLE I — Cycles required to implement the return address protection"
        " policy in OpenTitan\n";
  os << "  (columns: instructions IRQ/CFI/TOT | cycles IRQ/CFI/TOT)\n";
  for (const auto& [variant, variant_name] :
       std::vector<std::pair<RotVariant, const char*>>{
           {RotVariant::kIrq, "IRQ"},
           {RotVariant::kPolling, "Polling"},
           {RotVariant::kOptimized, "Optimized"}}) {
    os << "  " << variant_name << ":\n";
    for (const auto& [op, op_name] : std::vector<std::pair<OpCase, const char*>>{
             {OpCase::kCall, "CALL"}, {OpCase::kReturn, "RET."}}) {
      const CostBreakdown breakdown = measure_policy_cost(variant, op);
      os << "   " << op_name << "\n";
      row("Logic", breakdown.irq_logic, breakdown.cfi_logic);
      row("Mem. RoT", breakdown.irq_mem_rot, breakdown.cfi_mem_rot);
      row("Mem. SoC", breakdown.irq_mem_soc, breakdown.cfi_mem_soc);
      row("TOT", breakdown.irq_total(), breakdown.cfi_total());
    }
  }
}

}  // namespace titan::fw
