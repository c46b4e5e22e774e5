#pragma once

#include "alloc/allocator.hpp"

/// \file explore.hpp
/// Register-file sizing: the design-space question next to schedule
/// exploration (engine::Engine::explore), answered from the energy/R
/// curve of one block's optimal allocations.

namespace lera::pipeline {

struct RegisterFileSizing {
  int registers = 0;      ///< Chosen register-file size.
  double energy = 0;      ///< Storage energy at that size.
  double asymptote = 0;   ///< Energy with registers = peak density.
};

/// Sizes the register file: the smallest R whose optimal allocation is
/// within \p tolerance (fractional) of the all-registers asymptote.
/// Registers are area; this finds the knee of the energy/R curve.
RegisterFileSizing size_register_file(const alloc::AllocationProblem& base,
                                      double tolerance = 0.05);

}  // namespace lera::pipeline
