#include "pipeline/explore.hpp"

namespace lera::pipeline {

RegisterFileSizing size_register_file(const alloc::AllocationProblem& base,
                                      double tolerance) {
  RegisterFileSizing out;
  alloc::AllocationProblem p = base;
  p.num_registers = p.max_density();
  const alloc::AllocationResult full = alloc::allocate(p);
  if (!full.feasible) return out;
  out.asymptote = full.energy(p);
  out.registers = p.num_registers;
  out.energy = out.asymptote;

  // Energy is monotone in R (more registers never hurt): binary search
  // for the knee.
  int lo = 0;
  int hi = p.max_density();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    p.num_registers = mid;
    const alloc::AllocationResult r = alloc::allocate(p);
    if (r.feasible &&
        r.energy(p) <= out.asymptote * (1.0 + tolerance) + 1e-12) {
      hi = mid;
      out.registers = mid;
      out.energy = r.energy(p);
    } else {
      lo = mid + 1;
    }
  }
  return out;
}

}  // namespace lera::pipeline
