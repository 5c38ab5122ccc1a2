#include "cells.h"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "sim/result_sink.h"
#include "util/digest.h"
#include "util/rng.h"

namespace gkr::bench {

namespace {

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;

  // The no-CRS variants: the only workload that runs the randomness exchange
  // and the δ-biased seed fill. μ = 1e-5 keeps AlgB's expander cell clear of
  // its 8-iteration floor (1 of 20 runs fails at 2e-5).
  WorkloadSpec mesh{"exchange_mesh", {}, 0};
  for (Variant v : {Variant::ExchangeOblivious, Variant::ExchangeNonOblivious}) {
    for (const char* topo : {"ring:16", "expander:64:4"}) {
      for (const char* noise : {"stochastic", "markov_burst"}) {
        mesh.cells.push_back(CellSpec{v, topo, 8, noise, 1e-5, false});
      }
    }
  }
  mesh.probe_cell = 2;  // AlgA expander:64:4 stochastic
  out.push_back(mesh);

  // Thousands of parties under the CRS variant: the sparse engine, the
  // active-set executors and the adversary carry the time. The sniper cell
  // never walks the idle wire; the stochastic cell walks all 2m cells of
  // every rewind round, so noise and engine gains show apart.
  WorkloadSpec scale{"party_scale", {}, 0};
  scale.cells.push_back(CellSpec{Variant::Crs, "rr:4096:4", 8, "rewind_sniper", 1e-6, false});
  scale.cells.push_back(CellSpec{Variant::Crs, "rr:2048:4", 8, "stochastic", 2e-7, false});
  out.push_back(scale);

  // Long transcripts under the budget-hoarding sniper: nearly every
  // iteration truncates and re-appends, so replay rebuilds, the rewind wave
  // and the controller carry the time.
  WorkloadSpec churn{"rewind_churn", {}, 0};
  for (Variant v : {Variant::Crs, Variant::CrsHidden}) {
    for (const char* topo : {"clique:8", "ring:8"}) {
      for (bool adaptive : {false, true}) {
        churn.cells.push_back(CellSpec{v, topo, 720, "rewind_sniper", 0.004, adaptive});
      }
    }
  }
  out.push_back(churn);
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> workloads = make_workloads();
  return workloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t cell_index) {
  return derive_seed(base_seed, cell_index, 0);
}

std::shared_ptr<Topology> build_topology(const std::string& topology, std::uint64_t seed) {
  std::vector<std::string> parts;
  std::stringstream ss(topology);
  for (std::string part; std::getline(ss, part, ':');) parts.push_back(part);
  if (parts.size() < 2) throw std::invalid_argument("bad topology spec: " + topology);
  const int a = std::stoi(parts[1]);
  const int b = parts.size() >= 3 ? std::stoi(parts[2]) : 0;
  return sim::topology_factory(parts[0], a, b).build(seed);
}

std::unique_ptr<BuiltCell> build_cell(const CellSpec& spec, std::uint64_t run_seed,
                                      obs::ObsLevel level, obs::Tracer* tracer,
                                      SetupTimes& times) {
  auto cell = std::make_unique<BuiltCell>();
  cell->spec = &spec;
  cell->run_seed = run_seed;
  const Rng root(run_seed);

  auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<Topology> topo;
  {
    obs::Span span(tracer, "topology_build", "bench");
    topo = build_topology(spec.topology, root.fork("topology").next_u64());
  }
  times.topology_s += seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  {
    obs::Span span(tracer, "workload_build", "bench");
    auto proto = std::make_shared<GossipSumProtocol>(*topo, spec.gossip_rounds);
    cell->w = sim::make_workload(topo, std::move(proto), spec.variant,
                                 root.fork("workload").next_u64());
  }
  times.reference_s += seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  {
    obs::Span span(tracer, "noise_build", "bench");
    Rng noise_rng = root.fork("noise");
    cell->noise = sim::noise_factory(spec.noise).build(cell->w, spec.mu, noise_rng);
  }
  times.noise_s += seconds_since(t0);

  cell->w.cfg.adaptive = spec.adaptive;
  cell->w.cfg.observability = level;
  cell->w.cfg.tracer = tracer;
  t0 = std::chrono::steady_clock::now();
  {
    obs::Span span(tracer, "scheme_build", "bench");
    cell->sim = std::make_unique<CodedSimulation>(*cell->w.proto, cell->w.inputs,
                                                  cell->w.reference, cell->w.cfg,
                                                  cell->adversary());
  }
  times.scheme_s += seconds_since(t0);
  return cell;
}

sim::RunRecord to_record(const BuiltCell& cell, const SimulationResult& r) {
  const CellSpec& spec = *cell.spec;
  const Topology& topo = *cell.w.topo;
  sim::RunRecord rec;
  rec.run_seed = cell.run_seed;
  rec.variant = variant_name(spec.variant);
  rec.topology = spec.topology;
  rec.protocol = "gossip:" + std::to_string(spec.gossip_rounds);
  rec.noise = spec.noise;
  rec.mu = spec.mu;
  rec.adaptive = spec.adaptive;
  rec.n = topo.num_nodes();
  rec.m = topo.num_links();
  rec.iterations = r.iterations;
  rec.success = r.success;
  rec.cc_coded = r.cc_coded;
  rec.cc_user = r.cc_user;
  rec.cc_chunked = r.cc_chunked;
  rec.blowup_vs_user = r.blowup_vs_user;
  rec.blowup_vs_chunked = r.blowup_vs_chunked;
  rec.corruptions = r.counters.corruptions;
  rec.substitutions = r.counters.substitutions;
  rec.deletions = r.counters.deletions;
  rec.insertions = r.counters.insertions;
  rec.noise_fraction = r.noise_fraction;
  rec.transmissions_by_phase = r.counters.transmissions_by_phase;
  rec.corruptions_by_phase = r.counters.corruptions_by_phase;
  rec.hash_collisions = r.hash_collisions;
  rec.mp_truncations = r.mp_truncations;
  rec.rewind_truncations = r.rewind_truncations;
  rec.rewinds_sent = r.rewinds_sent;
  rec.exchange_failures = r.exchange_failures;
  rec.replayer_rebuilds = r.replayer_rebuilds;
  rec.replayed_chunks = r.replayed_chunks;
  rec.ctrl_epochs = r.ctrl_epochs;
  rec.ctrl_switches = r.ctrl_switches;
  rec.ctrl_exchange_repeats = r.ctrl_exchange_repeats;
  rec.ctrl_final_tier = r.ctrl_final_tier;
  for (const EpochRecord& e : r.ctrl_schedule) {
    rec.ctrl_rate_q.push_back(e.rate_q10);
    rec.ctrl_tau.push_back(e.params.tau);
  }
  rec.approx_bytes = r.approx_bytes;
  rec.bytes_per_edge = static_cast<double>(r.approx_bytes) / rec.m;
  rec.rounds = r.counters.rounds;
  return rec;
}

std::string record_line(const sim::RunRecord& rec) {
  std::ostringstream out;
  sim::JsonlSink sink(out);
  sink.begin(sim::SweepMeta{});
  sink.consume(rec);
  return out.str();
}

}  // namespace gkr::bench
