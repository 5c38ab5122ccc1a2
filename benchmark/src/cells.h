// The benchmark's workloads and the cells they are made of.
//
// A cell is one coded run: (variant, topology, gossip_sum length, noise, μ,
// adaptive controller on/off). A workload is a fixed list of cells; one
// "round" of a workload builds and runs every cell once. Cell randomness is
// derive_seed(--seed, cell index, 0), split into the same topology /
// workload / noise streams the sweep harness uses, so the same seed gives
// the same inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/coding_scheme.h"
#include "obs/trace.h"
#include "sim/param_grid.h"
#include "sim/run_record.h"
#include "sim/workload.h"

namespace gkr::bench {

struct CellSpec {
  Variant variant = Variant::Crs;
  std::string topology;  // "family:n[:degree]"
  int gossip_rounds = 8;
  std::string noise;  // sim::noise_factory atom
  double mu = 0.0;
  bool adaptive = false;
};

struct WorkloadSpec {
  std::string name;
  std::vector<CellSpec> cells;
  // The cell whose shape (τ, |Π|, K, m, topology) the layer probes take.
  int probe_cell = 0;
};

// exchange_mesh, party_scale and rewind_churn, in that order.
const std::vector<WorkloadSpec>& all_workloads();
const WorkloadSpec* find_workload(const std::string& name);

// Wall time of each set-up step of one cell, seconds.
struct SetupTimes {
  double topology_s = 0.0;   // TopologyFactory::build
  double reference_s = 0.0;  // sim::make_workload: chunking + run_noiseless
  double noise_s = 0.0;      // NoiseFactory::build
  double scheme_s = 0.0;     // CodedSimulation constructor

  double total() const { return topology_s + reference_s + noise_s + scheme_s; }
};

// A built cell, ready to run. Not movable: the simulation holds references
// into the workload and the adversary.
struct BuiltCell {
  const CellSpec* spec = nullptr;
  std::uint64_t run_seed = 0;
  sim::Workload w;
  sim::BuiltNoise noise;
  NoNoise quiet;
  std::unique_ptr<CodedSimulation> sim;

  BuiltCell() = default;
  BuiltCell(const BuiltCell&) = delete;
  BuiltCell& operator=(const BuiltCell&) = delete;

  ChannelAdversary& adversary() {
    return noise.adversary ? *noise.adversary : static_cast<ChannelAdversary&>(quiet);
  }
};

std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t cell_index);

// Build one cell at the given observability level, timing each step into
// `times` and recording a span per step into `tracer` (may be null).
std::unique_ptr<BuiltCell> build_cell(const CellSpec& spec, std::uint64_t run_seed,
                                      obs::ObsLevel level, obs::Tracer* tracer,
                                      SetupTimes& times);

// The topology of a cell, built alone (for the probes).
std::shared_ptr<Topology> build_topology(const std::string& topology, std::uint64_t seed);

// Flatten a finished run into the sweep harness's record type.
sim::RunRecord to_record(const BuiltCell& cell, const SimulationResult& r);

// The record's JSONL line without wall-clock fields: the deterministic form
// two runs of one cell are compared by.
std::string record_line(const sim::RunRecord& rec);

}  // namespace gkr::bench
