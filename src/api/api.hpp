// Umbrella header for the Scenario API — the public surface benches,
// examples, and external integrators program against:
//
//   * ScenarioBuilder / Scenario  — skew-proof SoC+firmware construction;
//   * ScenarioRegistry / ScenarioSet — named scenarios and declarative grids;
//   * run_scenario() / RunReport  — one unified result type + JSON schema;
//   * OverheadGrid                — typed trace-driven table sweeps;
//   * run_sweep()                 — the one thread-pooled sweep surface;
//   * ReportSchema                — the versioned RunReport JSON schema;
//   * wire Request/Response       — the versioned scenario-serving envelope.
//
// See README.md "Scenario API" for the quickstart walkthrough.
#pragma once

#include "api/checkpoint.hpp"     // IWYU pragma: export
#include "api/overhead.hpp"       // IWYU pragma: export
#include "api/registry.hpp"       // IWYU pragma: export
#include "api/report_schema.hpp"  // IWYU pragma: export
#include "api/run.hpp"            // IWYU pragma: export
#include "api/scenario.hpp"       // IWYU pragma: export
#include "api/sweep.hpp"          // IWYU pragma: export
#include "api/wire.hpp"           // IWYU pragma: export
