#include "probes.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/adaptive_controller.h"
#include "core/meeting_points.h"
#include "ecc/ecc_plane.h"
#include "ecc/secded.h"
#include "hash/inner_product_hash.h"
#include "hash/seed_source.h"
#include "net/round_engine.h"
#include "noise/stochastic.h"
#include "proto/replay.h"
#include "sim/result_sink.h"
#include "util/rng.h"

namespace gkr::bench {

namespace {

constexpr int kRepeats = 15;
constexpr double kRepeatNs = 2e6;  // each repeat runs ~2 ms of operations
constexpr int kMasterBytes = 16;   // the exchange ships one 128-bit master per link

// Results of probed calls are folded here so the calls cannot be elided.
volatile std::uint64_t g_sink = 0;

double elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
}

// Median nanoseconds per call of `op` over kRepeats repeats, each sized from
// one timed warm-up call to last about kRepeatNs.
template <class Op>
double median_ns(Op&& op) {
  auto t0 = std::chrono::steady_clock::now();
  op();
  const double one = std::max(elapsed_ns(t0), 1.0);
  const long calls = std::clamp(static_cast<long>(kRepeatNs / one), 1L, 10'000'000L);
  std::vector<double> per_call;
  for (int r = 0; r < kRepeats; ++r) {
    t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < calls; ++i) op();
    per_call.push_back(elapsed_ns(t0) / static_cast<double>(calls));
  }
  std::nth_element(per_call.begin(), per_call.begin() + kRepeats / 2, per_call.end());
  return per_call[kRepeats / 2];
}

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& w : out) w = rng.next_u64();
  return out;
}

// The workload cell whose noise the stochastic-channel probe mirrors: the
// probe cell if it is stochastic, else the first stochastic cell, else the
// probe cell (its topology and μ under a stochastic channel).
const CellSpec& stochastic_cell(const WorkloadSpec& workload) {
  const CellSpec& probe = workload.cells[static_cast<std::size_t>(workload.probe_cell)];
  if (probe.noise == "stochastic") return probe;
  for (const CellSpec& c : workload.cells) {
    if (c.noise == "stochastic") return c;
  }
  return probe;
}

}  // namespace

void run_probes(const WorkloadSpec& workload, const BuiltCell& probe,
                const std::vector<sim::RunRecord>& records, std::uint64_t seed,
                obs::Tracer* tracer, std::vector<Metric>& out) {
  const sim::Workload& w = probe.w;
  const Topology& topo = *w.topo;
  const int tau = w.cfg.tau;
  const std::size_t stream_words = 2 * static_cast<std::size_t>(tau);
  const int chunks = w.proto->num_real_chunks();
  const int m = topo.num_links();
  const std::size_t dlinks = static_cast<std::size_t>(topo.num_dlinks());
  Rng rng(seed ^ 0x9b0beULL);

  // hash: seed-stream fills of 2τ words, as one meeting-points slot reads.
  {
    obs::Span span(tracer, "probe.hash.fill", "probe");
    std::vector<std::uint64_t> buf(stream_words);
    const BiasedSeedSource biased(rng.next_u64(), rng.next_u64());
    const UniformSeedSource uniform(rng.next_u64());
    std::uint64_t key = 0;
    const double biased_ns = median_ns([&] {
      ++key;
      biased.fill_words(key % static_cast<std::uint64_t>(m), key >> 1, key & 1, buf.data(),
                        stream_words);
      g_sink = g_sink ^ buf[0];
    });
    const double uniform_ns = median_ns([&] {
      ++key;
      uniform.fill_words(key % static_cast<std::uint64_t>(m), key >> 1, key & 1, buf.data(),
                         stream_words);
      g_sink = g_sink ^ buf[0];
    });
    out.push_back({"hash.biased_fill_ns_per_word", biased_ns / stream_words, "ns"});
    out.push_back({"hash.uniform_fill_ns_per_word", uniform_ns / stream_words, "ns"});
  }
  {
    obs::Span span(tracer, "probe.hash.ip_hash", "probe");
    const std::vector<std::uint64_t> seed_words = random_words(stream_words, rng);
    std::uint64_t x = rng.next_u64();
    out.push_back({"hash.ip_hash_ns", median_ns([&] {
                     x += 0x9e3779b97f4a7c15ULL;
                     g_sink = g_sink ^ ip_hash128(x, ~x, seed_words.data(), tau);
                   }),
                   "ns"});
  }

  // core: one meeting-points prepare on a transcript of the workload's |Π|.
  {
    obs::Span span(tracer, "probe.core.mp_prepare", "probe");
    LinkTranscript tr;
    for (int c = 0; c < chunks; ++c) tr.append_chunk(w.reference.records[0][static_cast<std::size_t>(c)]);
    const std::vector<std::uint64_t> k_words = random_words(stream_words, rng);
    const std::vector<std::uint64_t> prefix_words = random_words(stream_words, rng);
    const MpSeeds seeds{k_words.data(), prefix_words.data()};
    out.push_back({"core.mp_prepare_ns", median_ns([&] {
                     MeetingPointsState state;
                     g_sink = g_sink ^ state.prepare(tr, seeds, tau).h1;
                   }),
                   "ns"});
  }

  // ecc: the randomness-exchange codec over m lanes at the probe cell's
  // codeword length: exchange_target_bits, or Θ(|Π|·K/m) per §5 when auto.
  // On an exchange variant the probe's codeword must span exactly the
  // prologue the cell's own timetable reserves, or the probe has drifted
  // from the scheme's sizing.
  {
    obs::Span span(tracer, "probe.ecc.plane", "probe");
    const long target = w.cfg.exchange_target_bits != 0
                            ? w.cfg.exchange_target_bits
                            : static_cast<long>(chunks) * w.cfg.K / m;
    const ConcatenatedCode code(kMasterBytes, 0.5, static_cast<std::size_t>(target));
    EccPlane plane(code, m);
    if (w.cfg.uses_exchange() && plane.rounds() != probe.sim->prologue_rounds()) {
      throw std::runtime_error("ecc probe codeword is " + std::to_string(plane.rounds()) +
                               " bits, the scheme's exchange prologue " +
                               std::to_string(probe.sim->prologue_rounds()) + " rounds");
    }
    std::vector<std::uint8_t> messages(static_cast<std::size_t>(m) * kMasterBytes);
    for (std::uint8_t& b : messages) b = static_cast<std::uint8_t>(rng.next_u64());
    const double encode_ns = median_ns([&] { plane.encode(messages); });
    plane.rx_reset();
    for (int lane = 0; lane < m; ++lane) {
      for (long r = 0; r < plane.rounds(); ++r) {
        plane.rx_set(lane, r, plane.tx_bit(lane, r) != 0 ? kWireOne : kWireZero);
      }
    }
    std::vector<std::uint8_t> decoded(messages.size());
    std::vector<std::uint8_t> ok(static_cast<std::size_t>(m));
    const double decode_ns = median_ns([&] {
      g_sink = g_sink ^ static_cast<std::uint64_t>(plane.decode_all(decoded, ok).rs_failures);
    });
    out.push_back({"ecc.encode_us", encode_ns / 1e3, "us"});
    out.push_back({"ecc.decode_us", decode_ns / 1e3, "us"});
  }

  // net: engine rounds on the probe cell's topology, noiseless.
  {
    obs::Span span(tracer, "probe.net.step", "probe");
    NoNoise quiet;
    RoundEngine engine(topo, quiet);
    RoundContext ctx;
    const std::vector<std::uint32_t> no_words;
    const PackedSymVec idle(dlinks);
    PackedSymVec received(dlinks);
    const double idle_ns = median_ns([&] {
      ++ctx.round;
      engine.step_sparse(ctx, no_words, idle, received);
    });
    PackedSymVec full(dlinks);
    for (std::size_t dl = 0; dl < dlinks; ++dl) full.set(dl, bit_to_sym((dl * 7 + 3) % 5 < 2));
    const double full_ns = median_ns([&] {
      ++ctx.round;
      engine.step(ctx, full, received);
    });
    g_sink = g_sink ^ static_cast<std::uint64_t>(engine.counters().transmissions);
    out.push_back({"net.step_idle_ns", idle_ns, "ns/round"});
    out.push_back({"net.step_full_ns_per_cell", full_ns / static_cast<double>(dlinks), "ns"});
  }

  // noise: one stochastic round over an idle wire, as in every rewind round.
  {
    obs::Span span(tracer, "probe.noise.stochastic", "probe");
    const CellSpec& cell = stochastic_cell(workload);
    const std::size_t cells =
        static_cast<std::size_t>(build_topology(cell.topology, seed)->num_dlinks());
    StochasticChannel channel(rng.fork("stochastic"), cell.mu / 2, cell.mu / 2, cell.mu / 10);
    const PackedSymVec sent(cells);
    PackedSymVec wire(cells);
    RoundContext ctx;
    const double round_ns = median_ns([&] {
      ++ctx.round;
      channel.deliver_round(ctx, sent, wire);
    });
    out.push_back({"noise.stochastic_ns_per_cell", round_ns / static_cast<double>(cells), "ns"});
  }

  // proto: party 0's replay automaton rebuilt after a one-chunk truncation
  // of one incident link, at the default checkpoint cadence.
  {
    obs::Span span(tracer, "probe.proto.rebuild", "probe");
    PartyReplayer replayer(*w.proto, 0, w.inputs[0]);
    replayer.enable_checkpoints(SchemeConfig{}.replay_checkpoint_interval);
    const RecordsChunkSource src(w.reference.records);
    const std::vector<int> full(static_cast<std::size_t>(m), chunks);
    std::vector<int> cut = full;
    cut[static_cast<std::size_t>(topo.links_of(0)[0])] = chunks - 1;
    replayer.rebuild(src, full);
    const long rebuilds0 = replayer.rebuild_count();
    const long chunks0 = replayer.replayed_chunks();
    bool truncated = false;
    const double rebuild_ns = median_ns([&] {
      truncated = !truncated;
      replayer.rebuild(src, truncated ? cut : full);
    });
    const double chunks_per_rebuild =
        static_cast<double>(replayer.replayed_chunks() - chunks0) /
        static_cast<double>(std::max(1L, replayer.rebuild_count() - rebuilds0));
    g_sink = g_sink ^ replayer.output();
    out.push_back({"proto.rebuild_ns_per_chunk", rebuild_ns / std::max(1.0, chunks_per_rebuild),
                   "ns"});
  }

  // core: one adaptive-controller epoch decision.
  {
    obs::Span span(tracer, "probe.core.ctrl_observe", "probe");
    AdaptiveController::Tuning tuning;
    tuning.base_tau = tau;
    tuning.base_checkpoint_interval = SchemeConfig{}.replay_checkpoint_interval;
    AdaptiveController ctrl(tuning);
    long epoch = 0;
    out.push_back({"core.ctrl_observe_ns", median_ns([&] {
                     // Fresh controller every 4096 epochs bounds its schedule log.
                     if (++epoch % 4096 == 0) ctrl = AdaptiveController(tuning);
                     ChannelObservation delta;
                     delta.transmissions = 4096 + epoch % 61;
                     delta.substitutions = epoch % 5;
                     delta.deletions = epoch % 3;
                     ctrl.observe_epoch(delta);
                     g_sink = g_sink ^ static_cast<std::uint64_t>(ctrl.tier());
                   }),
                   "ns"});
  }

  // sim: one JSONL record of the workload's own runs.
  {
    obs::Span span(tracer, "probe.sim.jsonl", "probe");
    std::ostringstream sink_out;
    sim::JsonlSink sink(sink_out);
    sink.begin(sim::SweepMeta{});
    std::size_t i = 0;
    const double ns = median_ns([&] {
      if (++i % 1024 == 0) sink_out.str("");
      sink.consume(records[i % records.size()]);
    });
    out.push_back({"sim.jsonl_us_per_record", ns / 1e3, "us"});
  }
}

}  // namespace gkr::bench
