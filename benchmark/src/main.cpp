// gkr_bench — the repository's benchmark: runs and checks one workload.
//
//   gkr_bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0: the uninstrumented pass (ObsLevel::Off, one thread). After one
//   warm-up round it repeats whole rounds of the workload until S seconds
//   have passed, and reports the end-to-end metrics as medians over rounds.
// --trace 1: the same untraced pass for a share of S, then a pass at
//   ObsLevel::Counters (phase timers), one round at ObsLevel::Full with a
//   tracer, and the layer probes. It reports the per-layer metrics and
//   writes DIR/NAME.json, a Chrome trace-event file Perfetto loads.
//
// Every run is checked (checks.h); the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
// when no run failed (and, traced, the phase timers cover ≥ 95% of run time).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.h"
#include "checks.h"
#include "probes.h"
#include "util/jsonfmt.h"

namespace gkr::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void add_timings(obs::RunTimings& into, const obs::RunTimings& t) {
  for (std::size_t p = 0; p < t.phase_ns.size(); ++p) into.phase_ns[p] += t.phase_ns[p];
  into.evaluate_ns += t.evaluate_ns;
  into.ctrl_ns += t.ctrl_ns;
  into.total_ns += t.total_ns;
}

// One round: every cell of the workload built and run once.
struct Round {
  double run_s = 0.0;  // Σ CodedSimulation::run wall time
  SetupTimes setup;
  long runs = 0;
  long engine_rounds = 0;
  obs::RunTimings timings;  // summed over the round's runs
};

// Runs rounds of one workload and checks every run. The first round fixes
// each cell's oracle result and record; later rounds must reproduce them.
class Runner {
 public:
  Runner(const WorkloadSpec& workload, std::uint64_t seed) : wl_(workload), seed_(seed) {}

  Round round(obs::ObsLevel level, obs::Tracer* tracer) {
    Round out;
    for (std::size_t i = 0; i < wl_.cells.size(); ++i) {
      const CellSpec& spec = wl_.cells[i];
      std::unique_ptr<BuiltCell> cell =
          build_cell(spec, cell_seed(seed_, i), level, tracer, out.setup);
      if (oracle_.size() <= i) oracle_.push_back(run_oracle(*cell->w.spec, cell->w.inputs));
      std::vector<std::string> bad = check_reference(oracle_[i], *cell->w.proto, cell->w.reference);

      SimulationResult r;
      const auto t0 = Clock::now();
      {
        obs::Span span(tracer, "run", "bench");
        r = cell->sim->run();
      }
      out.run_s += seconds_since(t0);

      for (std::string& v : check_run(r, cell->adversary())) bad.push_back(std::move(v));
      out.runs += 1;
      out.engine_rounds += r.counters.rounds;
      add_timings(out.timings, r.timings);

      sim::RunRecord rec = to_record(*cell, r);
      std::string line;
      {
        obs::Span span(tracer, "sink_write", "bench");
        line = record_line(rec);
      }
      if (lines_.size() <= i) {
        lines_.push_back(line);
        records_.push_back(std::move(rec));
        r.trace.clear();
        results_.push_back(std::move(r));
      } else {
        for (std::string& v : check_same_record(lines_[i], line)) bad.push_back(std::move(v));
      }
      tally_.add(wl_.name + " cell " + std::to_string(i), bad);
    }
    return out;
  }

  const Tally& tally() const { return tally_; }
  const std::vector<sim::RunRecord>& records() const { return records_; }
  const std::vector<SimulationResult>& results() const { return results_; }

 private:
  const WorkloadSpec& wl_;
  std::uint64_t seed_;
  Tally tally_;
  std::vector<OracleResult> oracle_;
  std::vector<std::string> lines_;
  std::vector<sim::RunRecord> records_;
  std::vector<SimulationResult> results_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Untraced rounds until `until_s` seconds after `start` (at least `min_rounds`).
std::vector<Round> untraced_rounds(Runner& runner, Clock::time_point start, double until_s,
                                   int min_rounds) {
  std::vector<Round> rounds;
  while (static_cast<int>(rounds.size()) < min_rounds || seconds_since(start) < until_s) {
    rounds.push_back(runner.round(obs::ObsLevel::Off, nullptr));
  }
  return rounds;
}

template <class F>
double median_over(const std::vector<Round>& rounds, F&& f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return median(v);
}

std::vector<Metric> end_to_end(Runner& runner, Clock::time_point start, double seconds) {
  const std::vector<Round> rounds = untraced_rounds(runner, start, seconds, 3);
  long cc_coded = 0;
  long cc_chunked = 0;
  for (const SimulationResult& r : runner.results()) {
    cc_coded += r.cc_coded;
    cc_chunked += r.cc_chunked;
  }
  return {
      {"runs_per_s", median_over(rounds, [](const Round& r) { return r.runs / r.run_s; }), "1/s"},
      {"rounds_per_s",
       median_over(rounds, [](const Round& r) { return r.engine_rounds / r.run_s; }), "1/s"},
      {"setup_s", median_over(rounds, [](const Round& r) { return r.setup.total(); }), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"blowup", static_cast<double>(cc_coded) / static_cast<double>(cc_chunked), "x"},
  };
}

std::vector<Metric> per_layer(Runner& runner, const WorkloadSpec& wl, std::uint64_t seed,
                              Clock::time_point start, double seconds,
                              const std::string& trace_path) {
  std::vector<Metric> out;
  const std::vector<Round> untraced = untraced_rounds(runner, start, 0.3 * seconds, 1);

  // Phase timers at ObsLevel::Counters.
  Round counters;
  do {
    const Round r = runner.round(obs::ObsLevel::Counters, nullptr);
    counters.runs += r.runs;
    add_timings(counters.timings, r.timings);
  } while (seconds_since(start) < 0.6 * seconds);
  const double per_run_ms = 1e-6 / static_cast<double>(counters.runs);
  auto phase_ms = [&](Phase p) {
    return static_cast<double>(counters.timings.phase_ns[static_cast<std::size_t>(p)]) * per_run_ms;
  };
  out.push_back({"core.mp_ms", phase_ms(Phase::MeetingPoints), "ms/run"});
  out.push_back({"ecc.exchange_ms", phase_ms(Phase::RandomnessExchange), "ms/run"});
  out.push_back({"core.flag_ms", phase_ms(Phase::FlagPassing), "ms/run"});
  out.push_back({"core.sim_ms", phase_ms(Phase::Simulation), "ms/run"});
  out.push_back({"core.rewind_ms", phase_ms(Phase::Rewind), "ms/run"});
  out.push_back({"proto.evaluate_ms", static_cast<double>(counters.timings.evaluate_ns) * per_run_ms,
                 "ms/run"});
  out.push_back({"core.ctrl_ms", static_cast<double>(counters.timings.ctrl_ns) * per_run_ms,
                 "ms/run"});
  out.push_back({"obs.coverage", counters.timings.coverage(), "frac"});

  // One round at ObsLevel::Full into the tracer, then the probes.
  obs::Tracer tracer;
  const Round full = runner.round(obs::ObsLevel::Full, &tracer);
  const double untraced_run_s = median_over(untraced, [](const Round& r) { return r.run_s; });
  out.push_back({"obs.overhead", full.run_s / untraced_run_s, "x"});

  const auto setup_ms = [&](double SetupTimes::*part) {
    return 1e3 * median_over(untraced, [part](const Round& r) { return r.setup.*part; });
  };
  out.push_back({"net.topology_build_ms", setup_ms(&SetupTimes::topology_s), "ms"});
  out.push_back({"proto.reference_ms", setup_ms(&SetupTimes::reference_s), "ms"});
  out.push_back({"noise.build_ms", setup_ms(&SetupTimes::noise_s), "ms"});
  out.push_back({"core.scheme_build_ms", setup_ms(&SetupTimes::scheme_s), "ms"});

  // Exact work counts over one round.
  SimulationResult sum;
  long links = 0;
  for (const SimulationResult& r : runner.results()) {
    sum.counters.rounds += r.counters.rounds;
    sum.counters.transmissions += r.counters.transmissions;
    sum.counters.corruptions += r.counters.corruptions;
    sum.hash_collisions += r.hash_collisions;
    sum.mp_truncations += r.mp_truncations;
    sum.rewinds_sent += r.rewinds_sent;
    sum.ctrl_switches += r.ctrl_switches;
    sum.replayer_rebuilds += r.replayer_rebuilds;
    sum.replayed_chunks += r.replayed_chunks;
    sum.ecc_symbol_erasures += r.ecc_symbol_erasures;
    sum.approx_bytes += r.approx_bytes;
  }
  for (const sim::RunRecord& rec : runner.records()) links += rec.m;
  const auto count = [](long v) { return static_cast<double>(v); };
  out.push_back({"net.rounds", count(sum.counters.rounds), "count"});
  out.push_back({"net.transmissions", count(sum.counters.transmissions), "count"});
  out.push_back({"noise.corruptions", count(sum.counters.corruptions), "count"});
  out.push_back({"core.hash_collisions", count(sum.hash_collisions), "count"});
  out.push_back({"core.mp_truncations", count(sum.mp_truncations), "count"});
  out.push_back({"core.rewinds_sent", count(sum.rewinds_sent), "count"});
  out.push_back({"core.ctrl_switches", count(sum.ctrl_switches), "count"});
  out.push_back({"proto.rebuilds", count(sum.replayer_rebuilds), "count"});
  out.push_back({"proto.replayed_chunks", count(sum.replayed_chunks), "count"});
  out.push_back({"proto.chunks_per_rebuild",
                 sum.replayer_rebuilds == 0 ? 0.0
                                            : count(sum.replayed_chunks) / count(sum.replayer_rebuilds),
                 "ratio"});
  out.push_back({"ecc.symbol_erasures", count(sum.ecc_symbol_erasures), "count"});
  out.push_back({"core.state_bytes_per_link", count(sum.approx_bytes) / count(links), "B"});

  {
    SetupTimes ignored;
    const std::size_t pc = static_cast<std::size_t>(wl.probe_cell);
    const std::unique_ptr<BuiltCell> probe =
        build_cell(wl.cells[pc], cell_seed(seed, pc), obs::ObsLevel::Off, nullptr, ignored);
    run_probes(wl, *probe, runner.records(), seed, &tracer, out);
  }

  std::ofstream trace_out(trace_path);
  tracer.write_chrome_json(trace_out);
  if (!trace_out) throw std::runtime_error("cannot write trace file " + trace_path);
  std::fprintf(stderr, "gkr_bench: wrote %s (%zu spans, %zu dropped)\n", trace_path.c_str(),
               tracer.recorded(), tracer.dropped());
  return out;
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "gkr_bench: %s\nusage: gkr_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\nworkloads:",
               msg.c_str());
  for (const WorkloadSpec& w : all_workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int trace = 0;
  std::string trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else if (flag == "--trace-dir") {
        trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const WorkloadSpec* wl = find_workload(workload_name);
  if (wl == nullptr) usage("unknown workload '" + workload_name + "'");
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) usage("need --seconds S > 0 and --trace 0|1");

  const Clock::time_point start = Clock::now();
  Runner runner(*wl, seed);
  runner.round(obs::ObsLevel::Off, nullptr);  // warm-up; fixes oracle results and records
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = end_to_end(runner, start, seconds);
  } else {
    std::filesystem::create_directories(trace_dir);
    metrics = per_layer(runner, *wl, seed, start, seconds, trace_dir + "/" + wl->name + ".json");
  }

  const Tally& tally = runner.tally();
  bool correct = tally.failed == 0;
  for (const Metric& m : metrics) {
    // The phase timers must account for the run's wall time, as F11 gates.
    if (m.name == "obs.coverage" && m.value < 0.95) {
      std::fprintf(stderr, "gkr_bench: phase timers cover only %.4f of run time (< 0.95)\n",
                   m.value);
      correct = false;
    }
  }
  for (const std::string& e : tally.first_errors) std::fprintf(stderr, "gkr_bench: FAILED %s\n", e.c_str());
  std::printf("workload %s seed %llu trace %d: %ld runs attempted, %ld failed, %.1f s\n",
              wl->name.c_str(), static_cast<unsigned long long>(seed), trace, tally.attempted,
              tally.failed, seconds_since(start));
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            format_double_shortest(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gkr::bench

int main(int argc, char** argv) {
  try {
    return gkr::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gkr_bench: %s\n", e.what());
    return 1;
  }
}
