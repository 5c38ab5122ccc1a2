// Layer probes: each times one layer's public function in a loop, on inputs
// shaped like the workload's own (τ, seed-stream words, lanes, topology,
// transcript length, μ), and reports the median over repeats.
#pragma once

#include <string>
#include <vector>

#include "cells.h"
#include "obs/trace.h"
#include "sim/run_record.h"

namespace gkr::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Append every probe metric for `workload`. `probe` is the workload's probe
// cell, built; `records` are the workload's own run records (for the sink
// probe). Each probe is wrapped in a span on `tracer` (may be null).
void run_probes(const WorkloadSpec& workload, const BuiltCell& probe,
                const std::vector<sim::RunRecord>& records, std::uint64_t seed,
                obs::Tracer* tracer, std::vector<Metric>& out);

}  // namespace gkr::bench
