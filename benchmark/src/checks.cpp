#include "checks.h"

#include <memory>

#include "noise/adaptive.h"

namespace gkr::bench {

OracleResult run_oracle(const ProtocolSpec& spec, const std::vector<std::uint64_t>& inputs) {
  const Topology& topo = spec.topology();
  std::vector<std::unique_ptr<PartyLogic>> parties;
  for (PartyId u = 0; u < topo.num_nodes(); ++u) {
    parties.push_back(spec.make_logic(u, inputs[static_cast<std::size_t>(u)]));
  }

  OracleResult out;
  std::vector<bool> bits;
  for (int round = 0; round < spec.num_rounds(); ++round) {
    const std::vector<Slot> slots = spec.slots_for_round(round);
    const int first_id = static_cast<int>(out.user_bits.size());
    bits.assign(slots.size(), false);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const PartyId sender = topo.dlink_sender(2 * slots[i].link + slots[i].dir);
      bits[i] = parties[static_cast<std::size_t>(sender)]->compute_send(
          first_id + static_cast<int>(i), slots[i]);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const int dlink = 2 * slots[i].link + slots[i].dir;
      const int id = first_id + static_cast<int>(i);
      parties[static_cast<std::size_t>(topo.dlink_sender(dlink))]->note_sent(id, slots[i], bits[i]);
      parties[static_cast<std::size_t>(topo.dlink_receiver(dlink))]->note_received(id, slots[i],
                                                                                    bits[i]);
      out.user_bits.push_back(bits[i]);
    }
  }
  for (const auto& p : parties) out.outputs.push_back(p->output());
  return out;
}

std::vector<std::string> check_reference(const OracleResult& oracle,
                                         const ChunkedProtocol& proto,
                                         const NoiselessResult& reference) {
  std::vector<std::string> bad;
  if (oracle.outputs != reference.outputs) bad.push_back("reference outputs differ from the oracle");
  if (static_cast<long>(oracle.user_bits.size()) != reference.cc_user) {
    bad.push_back("reference cc_user differs from the oracle's user-slot count");
    return bad;
  }
  long mismatched = 0;
  for (int c = 0; c < proto.num_real_chunks(); ++c) {
    const Chunk& chunk = proto.chunk(c);
    for (std::size_t i = 0; i < chunk.slots.size(); ++i) {
      const ChunkSlot& cs = chunk.slots[i];
      if (cs.kind != SlotKind::User) continue;
      const Sym recorded = reference.records[static_cast<std::size_t>(cs.link)]
                                            [static_cast<std::size_t>(c)]
                                            [static_cast<std::size_t>(chunk.link_pos[i])];
      if (recorded != bit_to_sym(oracle.user_bits[static_cast<std::size_t>(cs.user_slot)])) {
        ++mismatched;
      }
    }
  }
  if (mismatched > 0) {
    bad.push_back(std::to_string(mismatched) + " reference user symbols differ from the oracle");
  }
  return bad;
}

std::vector<std::string> check_run(const SimulationResult& r, const ChannelAdversary& adversary) {
  std::vector<std::string> bad;
  if (!r.success || !r.outputs_match || !r.transcripts_match) {
    bad.push_back("run did not reproduce the reference (success=" + std::to_string(r.success) +
                  ", outputs_match=" + std::to_string(r.outputs_match) +
                  ", transcripts_match=" + std::to_string(r.transcripts_match) + ")");
  }
  long by_phase = 0;
  for (long t : r.counters.transmissions_by_phase) by_phase += t;
  if (by_phase != r.cc_coded || r.counters.transmissions != r.cc_coded) {
    bad.push_back("accounting: sum of transmissions_by_phase " + std::to_string(by_phase) +
                  ", engine transmissions " + std::to_string(r.counters.transmissions) +
                  ", cc_coded " + std::to_string(r.cc_coded));
  }
  if (const auto* budgeted = dynamic_cast<const BudgetedAttacker*>(&adversary)) {
    const std::int64_t allowance = budgeted->budget()->allowance(r.counters);
    if (r.counters.corruptions > allowance) {
      bad.push_back("budget: " + std::to_string(r.counters.corruptions) +
                    " corruptions exceed the allowance " + std::to_string(allowance));
    }
  }
  return bad;
}

std::vector<std::string> check_same_record(const std::string& expected, const std::string& got) {
  if (expected == got) return {};
  return {"record differs from the first run of this cell: expected " + expected + " got " + got};
}

void Tally::add(const std::string& what, const std::vector<std::string>& violations) {
  ++attempted;
  if (violations.empty()) return;
  ++failed;
  for (const std::string& v : violations) {
    if (first_errors.size() < 8) first_errors.push_back(what + ": " + v);
  }
}

}  // namespace gkr::bench
