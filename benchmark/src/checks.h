// Correctness checks made apart from the coding scheme.
//
// Each coded run is checked against:
//   * an independent oracle: a plain round-by-round execution of the user
//     protocol through ProtocolSpec::slots_for_round and PartyLogic, which
//     bypasses chunking, run_noiseless, replay and the scheme. Its party
//     outputs and user-slot bits must equal the noiseless reference the
//     scheme is judged against;
//   * the run's own verdict: success, i.e. transcripts and outputs equal
//     that reference;
//   * the accounting identity Σ transmissions_by_phase = cc_coded;
//   * for budgeted adversaries, corruptions ≤ AdaptiveBudget::allowance at
//     the run's transmissions;
//   * record equality: a repeat of the same cell — traced or not —
//     reproduces the first run's record line for line.
// A run with any violation counts as failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/coding_scheme.h"
#include "proto/chunking.h"
#include "proto/noiseless.h"

namespace gkr::bench {

struct OracleResult {
  std::vector<std::uint64_t> outputs;  // per party
  std::vector<bool> user_bits;         // per global user slot, protocol order
};

// Execute the user protocol directly, all sends of a round computed from the
// state at the end of the previous round.
OracleResult run_oracle(const ProtocolSpec& spec, const std::vector<std::uint64_t>& inputs);

// Reference ≡ oracle: party outputs, and every user-slot symbol of the
// reference records.
std::vector<std::string> check_reference(const OracleResult& oracle,
                                         const ChunkedProtocol& proto,
                                         const NoiselessResult& reference);

// The run's verdict, its accounting identity and, when `adversary` is a
// budgeted attacker, its budget bound.
std::vector<std::string> check_run(const SimulationResult& r, const ChannelAdversary& adversary);

// A repeat of one cell must reproduce the first run's record exactly.
std::vector<std::string> check_same_record(const std::string& expected, const std::string& got);

// Attempted / failed runs, with the first few violations kept for the log.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> first_errors;

  // Count one run; it failed if `violations` is non-empty.
  void add(const std::string& what, const std::vector<std::string>& violations);
};

}  // namespace gkr::bench
