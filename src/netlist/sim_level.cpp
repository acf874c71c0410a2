#include "netlist/sim_level.h"

#include <stdexcept>

namespace mfm::netlist {

LevelSim::LevelSim(const CompiledCircuit& cc)
    : cc_(&cc), values_(cc.size(), 0), state_(cc.flop_count(), 0) {
  eval();
}

LevelSim::LevelSim(const Circuit& c)
    : owned_(std::make_unique<CompiledCircuit>(c)),
      cc_(owned_.get()),
      values_(c.size(), 0),
      state_(c.flops().size(), 0) {
  eval();
}

void LevelSim::set(NetId input_net, bool v) {
  if (input_net >= cc_->size() ||
      cc_->kind(input_net) != GateKind::Input)
    throw std::invalid_argument(
        "LevelSim::set: net " + std::to_string(input_net) +
        " is not a primary input");
  values_[input_net] = v ? 1 : 0;
}

void LevelSim::set_bus(const Bus& bus, u128 value) {
  if (bus.size() > 128)
    throw std::invalid_argument(
        "LevelSim::set_bus: bus wider than 128 bits (" +
        std::to_string(bus.size()) + ")");
  for (std::size_t i = 0; i < bus.size(); ++i)
    set(bus[i], bit_of(value, static_cast<int>(i)));
}

void LevelSim::set_port(const std::string& name, u128 value) {
  set_bus(cc_->circuit().in_port(name), value);
}

void LevelSim::eval() {
  const auto& gates = cc_->circuit().gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    switch (g.kind) {
      case GateKind::Input:
        break;  // externally driven
      case GateKind::Dff:
        values_[i] = state_[cc_->flop_ordinal(static_cast<NetId>(i))];
        break;
      default: {
        const bool a = g.in[0] != kNoNet && values_[g.in[0]] != 0;
        const bool b = g.in[1] != kNoNet && values_[g.in[1]] != 0;
        const bool cc = g.in[2] != kNoNet && values_[g.in[2]] != 0;
        const bool dd = g.in[3] != kNoNet && values_[g.in[3]] != 0;
        values_[i] = eval_gate(g.kind, a, b, cc, dd) ? 1 : 0;
        break;
      }
    }
  }
}

void LevelSim::clock() {
  const Circuit& c = cc_->circuit();
  for (std::size_t i = 0; i < c.flops().size(); ++i) {
    const Gate& g = c.gate(c.flops()[i]);
    state_[i] = values_[g.in[0]];
  }
}

u128 LevelSim::read_bus(const Bus& bus) const {
  if (bus.size() > 128)
    throw std::invalid_argument(
        "LevelSim::read_bus: bus wider than 128 bits (" +
        std::to_string(bus.size()) + ")");
  u128 v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if (values_[bus[i]]) v |= static_cast<u128>(1) << i;
  return v;
}

u128 LevelSim::read_port(const std::string& name) const {
  return read_bus(cc_->circuit().out_port(name));
}

}  // namespace mfm::netlist
