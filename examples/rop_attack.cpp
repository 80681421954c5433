// ROP-attack demonstration: the scenario that motivates the paper.
//
// The program is drawn from the attack corpus (src/attacks): a generated
// victim whose stack-buffer overflow overwrites its saved return address
// with a chain of pop-ret gadgets.  Architecturally the program is perfectly
// legal — run without CFI, the attacker's chain executes and the process
// exits with the attacker's exit code.  With TitanCFI (the registry's
// "attacks/rop_L4" scenario), the RoT's shadow stack detects the mismatch at
// the exact hijacked return and raises the CFI fault before the attack can
// do further damage — and the corpus scoring reports exactly how long the
// detection took.
#include <iostream>

#include "api/api.hpp"
#include "cva6/core.hpp"
#include "rv/disasm.hpp"
#include "rv/decode.hpp"
#include "api/enforce.hpp"

int main() {
  const titan::api::Scenario* scenario_ptr =
      titan::api::ScenarioRegistry::global().find("attacks/rop_L4");
  if (scenario_ptr == nullptr) {
    std::cerr << "rop_attack: registry has no 'attacks/rop_L4' scenario\n";
    return 1;
  }
  const titan::api::Scenario& scenario = *scenario_ptr;
  const titan::rv::Image& victim = scenario.workload_image();

  // --- Run 1: no CFI — the hijack succeeds silently. -------------------------
  titan::sim::Memory memory;
  memory.load(victim.base, victim.bytes);
  titan::cva6::Cva6Config host_config;
  host_config.reset_pc = victim.base;
  titan::cva6::Cva6Core bare(host_config, memory);
  bare.run_baseline();
  std::cout << "Without TitanCFI:\n"
            << "  program exits with code " << bare.exit_code()
            << " — the ATTACKER's exit code (66). Control flow was hijacked"
               " and nothing noticed.\n\n";

  // --- Run 2: TitanCFI enabled. ------------------------------------------------
  const titan::api::RunReport result = titan::api::run_scenario(scenario);

  std::cout << "With TitanCFI:\n"
            << "  CFI fault raised:   " << (result.cfi_fault ? "YES" : "no")
            << "\n"
            << "  violations:         " << result.violations << "\n";
  if (result.cfi_fault) {
    const auto inst =
        titan::rv::decode(result.fault_log.encoding, titan::rv::Xlen::k64);
    std::cout << "  faulting instruction: '" << titan::rv::disasm(inst)
              << "' at pc 0x" << std::hex << result.fault_log.pc << "\n"
              << "  hijacked target:      0x" << result.fault_log.target
              << std::dec
              << " (the attacker gadget — the shadow stack expected the"
                 " caller's return site instead)\n";
  }
  std::cout << "\nThe RoT firmware compared the popped shadow-stack entry "
               "with the actual return target extracted from the commit log "
               "and reported the mismatch through the CFI mailbox (paper "
               "Sec. IV-C, V-B).\n";

  // --- Corpus scoring ---------------------------------------------------------
  const titan::attacks::AttackStats& attack = result.attack;
  std::cout << "\nAttack-corpus scoring (" << scenario.attack()->serialize()
            << "):\n"
            << "  detected:            " << (attack.detected ? "YES" : "no")
            << "\n"
            << "  detection latency:   " << attack.detection_latency
            << " host cycles from hijacked-return retirement to CFI fault\n"
            << "  first fault ordinal: " << attack.first_fault_ordinal
            << " (position in the committed control-flow log stream)\n"
            << "  false negatives:     " << attack.false_negatives << "\n";

  return result.cfi_fault && attack.detected && attack.false_negatives == 0
             ? 0
             : 1;
}
