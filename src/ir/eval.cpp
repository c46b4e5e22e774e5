#include "ir/eval.hpp"

#include <cassert>
#include <cstdlib>

namespace lera::ir {

namespace {

/// Reduces \p x to \p width bits, interpreting the result as a
/// two's-complement signed value (matching fixed-point DSP hardware).
std::int64_t wrap(std::int64_t x, int width) {
  assert(width > 0 && width <= 63);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::uint64_t u = static_cast<std::uint64_t>(x) & mask;
  const std::uint64_t sign = std::uint64_t{1} << (width - 1);
  if (u & sign) {
    u |= ~mask;
  }
  return static_cast<std::int64_t>(u);
}

}  // namespace

std::int64_t apply_opcode(Opcode opcode, const std::vector<std::int64_t>& in,
                          int width) {
  switch (opcode) {
    case Opcode::kAdd: return wrap(in[0] + in[1], width);
    case Opcode::kSub: return wrap(in[0] - in[1], width);
    case Opcode::kMul: return wrap(in[0] * in[1], width);
    case Opcode::kMac: return wrap(in[0] * in[1] + in[2], width);
    case Opcode::kDiv: return in[1] == 0 ? 0 : wrap(in[0] / in[1], width);
    case Opcode::kShl: return wrap(in[0] << (in[1] & 15), width);
    case Opcode::kShr: return wrap(in[0] >> (in[1] & 15), width);
    case Opcode::kAnd: return wrap(in[0] & in[1], width);
    case Opcode::kOr: return wrap(in[0] | in[1], width);
    case Opcode::kXor: return wrap(in[0] ^ in[1], width);
    case Opcode::kNeg: return wrap(-in[0], width);
    case Opcode::kAbs: return wrap(std::abs(in[0]), width);
    case Opcode::kMin: return std::min(in[0], in[1]);
    case Opcode::kMax: return std::max(in[0], in[1]);
    default: return 0;
  }
}

std::vector<std::int64_t> evaluate(const BasicBlock& bb,
                                   const std::vector<std::int64_t>& inputs) {
  std::vector<std::int64_t> env(bb.num_values(), 0);
  std::vector<std::int64_t> in;  // Operand buffer, reused by every op.
  std::size_t next_input = 0;
  for (const Operation& op : bb.ops()) {
    switch (op.opcode) {
      case Opcode::kInput: {
        assert(next_input < inputs.size() && "not enough input samples");
        const Value& v = bb.value(op.result);
        env[static_cast<std::size_t>(op.result)] =
            wrap(inputs[next_input++], v.width);
        break;
      }
      case Opcode::kConst: {
        const Value& v = bb.value(op.result);
        env[static_cast<std::size_t>(op.result)] = wrap(v.literal, v.width);
        break;
      }
      case Opcode::kOutput:
        break;
      default: {
        in.clear();
        for (ValueId operand : op.operands) {
          in.push_back(env[static_cast<std::size_t>(operand)]);
        }
        env[static_cast<std::size_t>(op.result)] =
            apply_opcode(op.opcode, in, bb.value(op.result).width);
        break;
      }
    }
  }
  return env;
}

std::vector<std::vector<std::int64_t>> evaluate_trace(
    const BasicBlock& bb,
    const std::vector<std::vector<std::int64_t>>& input_samples) {
  std::vector<std::vector<std::int64_t>> trace;
  trace.reserve(input_samples.size());
  for (const auto& sample : input_samples) {
    trace.push_back(evaluate(bb, sample));
  }
  return trace;
}

}  // namespace lera::ir
