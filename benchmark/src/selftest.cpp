// gkr_bench_selftest — shows the benchmark's checks cannot pass vacuously.
//
// One small cell is built and run, untraced and traced. The unmodified runs
// must pass every check; then each planted fault — a wrong oracle output, a
// corrupted record field, a traced/untraced record mismatch, a budget
// overrun and a lost success verdict — is fed through the same checks and
// Tally the benchmark uses, and must be counted as a failed run. Exit status
// 0 means every fault was caught and the clean runs passed.
#include <cstdio>
#include <string>
#include <vector>

#include "cells.h"
#include "checks.h"

namespace gkr::bench {
namespace {

int g_errors = 0;

// Feed one run's violations through a fresh Tally; it must count
// `expect_failed` failed runs out of one.
void expect(const std::string& what, const std::vector<std::string>& violations,
            long expect_failed) {
  Tally tally;
  tally.add(what, violations);
  const bool ok = tally.attempted == 1 && tally.failed == expect_failed;
  std::printf("%-44s %s (%s)\n", what.c_str(), ok ? "ok" : "WRONG",
              tally.failed == 1 ? "reported as a failed run" : "passed the checks");
  for (const std::string& e : tally.first_errors) std::printf("    %s\n", e.c_str());
  if (!ok) ++g_errors;
}

int run() {
  // Budgeted adversary on purpose: the budget check must have something to check.
  const CellSpec spec{Variant::Crs, "ring:8", 64, "rewind_sniper", 0.004, false};
  const std::uint64_t seed = cell_seed(1, 0);
  SetupTimes times;

  std::unique_ptr<BuiltCell> cell = build_cell(spec, seed, obs::ObsLevel::Off, nullptr, times);
  const OracleResult oracle = run_oracle(*cell->w.spec, cell->w.inputs);
  const SimulationResult r = cell->sim->run();
  const std::string line = record_line(to_record(*cell, r));

  obs::Tracer tracer;
  std::unique_ptr<BuiltCell> traced_cell =
      build_cell(spec, seed, obs::ObsLevel::Full, &tracer, times);
  const SimulationResult traced = traced_cell->sim->run();
  const std::string traced_line = record_line(to_record(*traced_cell, traced));

  expect("clean: reference vs oracle", check_reference(oracle, *cell->w.proto, cell->w.reference), 0);
  expect("clean: run checks", check_run(r, cell->adversary()), 0);
  expect("clean: traced vs untraced record", check_same_record(line, traced_line), 0);
  if (r.counters.corruptions == 0) {
    std::printf("the self-test cell saw no corruptions; the budget check would be idle\n");
    ++g_errors;
  }

  OracleResult wrong_oracle = oracle;
  wrong_oracle.outputs[0] ^= 1;
  expect("planted: wrong oracle output",
         check_reference(wrong_oracle, *cell->w.proto, cell->w.reference), 1);

  SimulationResult bad_field = r;
  bad_field.counters.transmissions_by_phase[static_cast<std::size_t>(Phase::Simulation)] += 1;
  expect("planted: corrupted record field", check_run(bad_field, cell->adversary()), 1);

  SimulationResult mismatched = traced;
  mismatched.hash_collisions += 1;
  expect("planted: traced/untraced mismatch",
         check_same_record(line, record_line(to_record(*traced_cell, mismatched))), 1);

  SimulationResult overrun = r;
  overrun.counters.corruptions += 1'000'000;
  expect("planted: corruptions over the budget", check_run(overrun, cell->adversary()), 1);

  SimulationResult lost = r;
  lost.success = false;
  expect("planted: run that missed the reference", check_run(lost, cell->adversary()), 1);

  std::printf("%s\n", g_errors == 0 ? "self-test passed" : "self-test FAILED");
  return g_errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gkr::bench

int main() { return gkr::bench::run(); }
