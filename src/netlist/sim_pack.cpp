#include "netlist/sim_pack.h"

#include <algorithm>
#include <stdexcept>

namespace mfm::netlist {

PackSim::PackSim(const CompiledCircuit& cc)
    : cc_(&cc), words_(cc.size(), 0), state_(cc.flop_count(), 0) {
  eval();
}

PackSim::PackSim(const Circuit& c)
    : owned_(std::make_unique<CompiledCircuit>(c)),
      cc_(owned_.get()),
      words_(c.size(), 0),
      state_(c.flops().size(), 0) {
  eval();
}

void PackSim::set(NetId input_net, std::uint64_t lanes) {
  if (input_net >= cc_->size() ||
      cc_->kind(input_net) != GateKind::Input)
    throw std::invalid_argument(
        "PackSim::set: net " + std::to_string(input_net) +
        " is not a primary input");
  words_[input_net] = lanes;
}

void PackSim::set_lane(NetId input_net, int lane, bool v) {
  if (input_net >= cc_->size() ||
      cc_->kind(input_net) != GateKind::Input)
    throw std::invalid_argument(
        "PackSim::set_lane: net " + std::to_string(input_net) +
        " is not a primary input");
  if (lane < 0 || lane >= kLanes)
    throw std::invalid_argument("PackSim::set_lane: lane " +
                                std::to_string(lane) + " out of range");
  const std::uint64_t bit = 1ull << lane;
  words_[input_net] = (words_[input_net] & ~bit) | (v ? bit : 0);
}

void PackSim::set_bus(const Bus& bus, int lane, u128 value) {
  if (bus.size() > 128)
    throw std::invalid_argument(
        "PackSim::set_bus: bus wider than 128 bits (" +
        std::to_string(bus.size()) + ")");
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_lane(bus[i], lane, bit_of(value, static_cast<int>(i)));
}

void PackSim::set_port(const std::string& name, int lane, u128 value) {
  set_bus(cc_->circuit().in_port(name), lane, value);
}

void PackSim::set_state(NetId dff, std::uint64_t word) {
  if (dff >= cc_->size() || cc_->kind(dff) != GateKind::Dff)
    throw std::invalid_argument("PackSim::set_state: net " +
                                std::to_string(dff) + " is not a flop");
  state_[cc_->flop_ordinal(dff)] = word;
}

void PackSim::eval() {
  const Circuit& c = cc_->circuit();
  const std::vector<GateKind>& kinds = cc_->kinds();
  for (NetId i = 0; i < kinds.size(); ++i) {
    const GateKind k = kinds[i];
    if (k == GateKind::Dff) {
      words_[i] = state_[cc_->flop_ordinal(i)];
    } else if (k != GateKind::Input) {  // inputs are externally driven
      const Gate& g = c.gate(i);
      const int nin = cc_->fanin_count_of(i);
      const std::uint64_t a = nin > 0 ? words_[g.in[0]] : 0;
      const std::uint64_t b = nin > 1 ? words_[g.in[1]] : 0;
      const std::uint64_t cw = nin > 2 ? words_[g.in[2]] : 0;
      const std::uint64_t d = nin > 3 ? words_[g.in[3]] : 0;
      words_[i] = eval_gate_word(k, a, b, cw, d);
    }
  }
}

void PackSim::reset() {
  std::fill(words_.begin(), words_.end(), 0);
  std::fill(state_.begin(), state_.end(), 0);
  eval();
}

void PackSim::clock() {
  const Circuit& c = cc_->circuit();
  for (std::size_t i = 0; i < c.flops().size(); ++i)
    state_[i] = words_[c.gate(c.flops()[i]).in[0]];
}

u128 PackSim::read_bus(const Bus& bus, int lane) const {
  if (bus.size() > 128)
    throw std::invalid_argument(
        "PackSim::read_bus: bus wider than 128 bits (" +
        std::to_string(bus.size()) + ")");
  if (lane < 0 || lane >= kLanes)
    throw std::invalid_argument("PackSim::read_bus: lane " +
                                std::to_string(lane) + " out of range");
  u128 v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if ((words_[bus[i]] >> lane) & 1) v |= static_cast<u128>(1) << i;
  return v;
}

u128 PackSim::read_port(const std::string& name, int lane) const {
  return read_bus(cc_->circuit().out_port(name), lane);
}

}  // namespace mfm::netlist
