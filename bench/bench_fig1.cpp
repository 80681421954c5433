// Regenerates paper Fig. 1 as a structural dump: the architecture of
// TitanCFI, emitted from the *live object graph* of a constructed SoC (not a
// hard-coded drawing) — region maps, queue geometry, firmware section
// layout, and the doorbell/completion wiring are all read back from the
// instantiated components.
//
// The liveness proof at the end runs the registry's "fig1_liveness" scenario
// grid (firmware variant x RoT fabric x drain burst) through the typed sweep
// surface — each point is an independent co-simulation:
//   bench_fig1 [--threads=N] [--json=PATH] [--engine=lockstep|event]
//   bench_fig1 --write_checkpoints=PATH   # capture warm-up bundle, exit
//   bench_fig1 --warm_start=PATH          # fork every point from the bundle
// The --json document is byte-identical at any thread count, under either
// engine, and warm or cold.
#include <iomanip>
#include <iostream>

#include "api/api.hpp"
#include "api/enforce.hpp"

int main(int argc, char** argv) {
  const titan::sim::SweepCli cli = titan::sim::parse_sweep_cli(argc, argv);
  if (!cli.error.empty()) {
    std::cerr << "bench_fig1: " << cli.error << "\n";
    return 2;
  }

  // A representative scenario (grid point 0) instantiated for the
  // structural dump: everything printed below is read back from this object
  // graph, through the Scenario API's one construction path.
  titan::api::ScenarioSet grid =
      titan::api::ScenarioRegistry::global().query("fig1_liveness", "fig1");
  if (grid.empty()) {
    std::cerr << "bench_fig1: registry has no fig1_liveness scenarios\n";
    return 1;
  }
  // --engine=lockstep runs the grid under the per-cycle witness scheduler;
  // the report identity (and therefore every row and fingerprint) is
  // engine-independent, which is what lets CI diff a lock-step document
  // against an event-driven one as an equivalence gate.
  if (cli.engine == "lockstep") {
    grid = grid.with_engine(titan::api::Engine::kLockStep);
  }
  // --write_checkpoints captures the grid's warm-up prefixes and exits;
  // --warm_start forks every point from a previously written bundle.  Either
  // way the report identity is unchanged (warm start is an execution
  // strategy), so a warm document byte-diffs clean against a cold one.
  const int checkpoint_rc =
      titan::api::handle_checkpoint_cli(grid, cli, "bench_fig1");
  if (checkpoint_rc >= 0) {
    return checkpoint_rc;
  }
  const auto soc = grid[0].make_soc();
  const titan::rv::Image firmware = grid[0].firmware_image();

  std::cout << "FIG. 1 — Architecture of TitanCFI (structural dump of the "
               "instantiated SoC)\n\n";

  std::cout
      << "  CVA6 (RV64IMC, in-order, dual commit ports)\n"
      << "    commit port 0 ──> CFI Filter0 ─┐\n"
      << "    commit port 1 ──> CFI Filter1 ─┤ (calls / returns / indirect "
         "jumps)\n"
      << "                                   v\n"
      << "    CFI Queue: depth " << soc->queue_controller().queue().depth()
      << ", " << titan::cfi::CommitLog::kBits
      << "-bit commit logs {pc, encoding, next, target}\n"
      << "    Queue Controller: stalls commit on full queue / dual-CF cycle\n"
      << "    CFI Log Writer FSM: pop -> " << titan::cfi::CommitLog::kBeats
      << " x 64-bit AXI beats -> doorbell -> wait -> verdict\n\n";

  std::cout << "  Host AXI crossbar '" << soc->axi().name()
            << "' (hop latency " << soc->axi().hop_latency() << " cycles):\n";
  for (const auto& mapping : soc->axi().mappings()) {
    std::cout << "    0x" << std::hex << std::setw(9) << std::setfill('0')
              << mapping.region.base << std::dec << std::setfill(' ')
              << "  +" << std::setw(8) << mapping.region.size << "  "
              << mapping.label << " (device latency "
              << mapping.device_latency << ")\n";
  }

  std::cout << "\n  CFI Mailbox: " << titan::soc::Mailbox::kDataRegs
            << " x 64-bit data regs, doorbell @+0x" << std::hex
            << titan::soc::Mailbox::kDoorbellOffset << ", completion @+0x"
            << titan::soc::Mailbox::kCompletionOffset << std::dec << "\n"
            << "    doorbell-cfi  ──> RoT PLIC (source "
            << titan::cfi::kCfiDoorbellIrq << ") ──> Ibex ext-irq\n"
            << "    completion-cfi ─> wired directly to the CFI Log Writer "
               "(not the host PLIC)\n";

  std::cout << "\n  OpenTitan RoT TL-UL fabric '" << soc->rot().fabric().name()
            << "' (hop latency " << soc->rot().fabric().hop_latency()
            << " cycles):\n";
  for (const auto& mapping : soc->rot().fabric().mappings()) {
    std::cout << "    0x" << std::hex << std::setw(9) << std::setfill('0')
              << mapping.region.base << std::dec << std::setfill(' ')
              << "  +" << std::setw(8) << mapping.region.size << "  "
              << mapping.label << " (device latency "
              << mapping.device_latency << ")\n";
  }

  std::cout << "\n  Ibex (RV32IMC) firmware image: base 0x" << std::hex
            << firmware.base << std::dec << ", " << firmware.bytes.size()
            << " bytes; sections:\n";
  for (const auto& [name, addr] : firmware.marks) {
    std::cout << "    0x" << std::hex << addr << std::dec << "  " << name
              << "\n";
  }

  // Prove the wiring is live, not cosmetic: run the full scenario grid and
  // show traffic.  The typed sweep surface spreads the points across threads
  // with index-ordered aggregation.
  const titan::api::SweepPlan<titan::api::RunReport> plan =
      titan::api::scenario_sweep_plan(grid);
  titan::api::SweepOutcome<titan::api::RunReport> outcome;
  const int exit_code = titan::api::run_sweep(plan, cli, &outcome);
  if (exit_code != 0) {
    return exit_code;
  }

  std::cout << "\n  Liveness grid (fib(8) through the full stack; "
            << grid.size() << " points, "
            << outcome.threads << " thread(s), " << std::fixed
            << std::setprecision(2) << outcome.seconds << "s):\n";
  std::cout << "    " << std::left << std::setw(28) << "scenario" << std::right
            << std::setw(8) << "logs" << std::setw(10) << "doorbells"
            << std::setw(9) << "cycles" << std::setw(6) << "viol" << "\n";
  std::uint64_t violations = 0;
  for (const titan::api::RunReport& report : outcome.rows) {
    std::cout << "    " << std::left << std::setw(28) << report.scenario
              << std::right << std::setw(8) << report.cf_logs << std::setw(10)
              << report.doorbells << std::setw(9) << report.cycles
              << std::setw(6) << report.violations << "\n";
    violations += report.violations;
  }
  return violations == 0 ? 0 : 1;
}
