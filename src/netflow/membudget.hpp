#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "netflow/select.hpp"
#include "netflow/solution.hpp"

/// \file membudget.hpp
/// Byte-budget accounting for the solve stack.
///
/// A MemoryBudget is a copyable handle to a shared byte ledger: callers
/// charge bytes before a large allocation, release them when the memory
/// is returned, and the ledger tracks the cap, the bytes in use and the
/// high-water mark. Budgets chain exactly like CancelToken: a child
/// budget charges itself *and* every ancestor atomically, so one
/// engine-wide cap fans out to per-session and per-solve caps without
/// bookkeeping — a request-level charge shows up in the engine-level
/// high-water mark. A default-constructed budget is inert: charges
/// always succeed and nothing is tracked, which keeps the unbudgeted
/// path free.
///
/// A cap of 0 means "track, never refuse" — useful for observability
/// (peak bytes in LERA_PERF / HEALTH) without enforcement.
///
/// The companion estimators predict a solve's footprint in O(1) from an
/// InstanceShape (select.hpp), using the same sizeof() arithmetic as the
/// real Residual / SolverWorkspace containers, so admission control can
/// refuse an instance *before* any allocation happens.

namespace lera::netflow {

namespace detail {

/// Thread-local allocation failpoint seam. The solvers' coarse
/// allocation sites (Residual::assign, scratch prepare(), CSR builds)
/// announce their upcoming allocation here; a test-installed hook (see
/// OomFailpoint in fault_injection.hpp) can throw std::bad_alloc to
/// simulate allocation failure at an exact, seeded site. With no hook
/// installed the cost is one thread-local null check.
struct AllocTickHook {
  void (*fn)(void* ctx, std::int64_t bytes) = nullptr;
  void* ctx = nullptr;
};

extern thread_local AllocTickHook t_alloc_tick_hook;

inline void alloc_tick(std::int64_t bytes) {
  const AllocTickHook& h = t_alloc_tick_hook;
  if (h.fn != nullptr) h.fn(h.ctx, bytes);
}

}  // namespace detail

/// Copyable, thread-safe byte-budget handle. See the file comment for
/// the chaining and cap semantics.
class MemoryBudget {
 public:
  MemoryBudget() = default;

  /// Fresh root budget. \p cap_bytes <= 0 means track-only (never
  /// refuses a charge).
  static MemoryBudget make(std::int64_t cap_bytes = 0) {
    MemoryBudget b;
    b.state_ = std::make_shared<State>();
    b.state_->cap = cap_bytes > 0 ? cap_bytes : 0;
    return b;
  }

  /// Budget whose charges also count against this budget (and all its
  /// ancestors). child() on an inert budget returns a fresh root.
  MemoryBudget child(std::int64_t cap_bytes = 0) const {
    MemoryBudget b = make(cap_bytes);
    b.state_->parent = state_;
    return b;
  }

  /// False for the inert default budget.
  bool valid() const { return state_ != nullptr; }

  /// Tries to charge \p bytes against this budget and every ancestor,
  /// all-or-nothing: if any level would exceed its cap the whole charge
  /// is rolled back, that level's denial counter ticks, and false is
  /// returned. Charging an inert budget (or <= 0 bytes) succeeds and
  /// tracks nothing. Thread-safe.
  bool try_charge(std::int64_t bytes) {
    if (state_ == nullptr || bytes <= 0) return true;
    State* s = state_.get();
    while (s != nullptr) {
      const std::int64_t now =
          s->used.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
      if (s->cap > 0 && now > s->cap) {
        s->used.fetch_sub(bytes, std::memory_order_acq_rel);
        s->denials.fetch_add(1, std::memory_order_relaxed);
        // Roll back the levels already charged below the refusing one.
        for (State* undo = state_.get(); undo != s; undo = undo->parent.get()) {
          undo->used.fetch_sub(bytes, std::memory_order_acq_rel);
        }
        return false;
      }
      raise_peak(*s, now);
      s = s->parent.get();
    }
    return true;
  }

  /// Returns \p bytes previously charged with try_charge. Must pair
  /// with a successful charge of the same size.
  void release(std::int64_t bytes) {
    if (state_ == nullptr || bytes <= 0) return;
    for (State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      s->used.fetch_sub(bytes, std::memory_order_acq_rel);
    }
  }

  /// Bytes currently charged at this level (0 for inert budgets).
  std::int64_t used() const {
    return state_ ? state_->used.load(std::memory_order_acquire) : 0;
  }

  /// High-water mark of used() at this level.
  std::int64_t peak() const {
    return state_ ? state_->peak.load(std::memory_order_acquire) : 0;
  }

  /// This level's cap (0 = track-only).
  std::int64_t cap() const { return state_ ? state_->cap : 0; }

  /// Charges refused at this level.
  std::int64_t denials() const {
    return state_ ? state_->denials.load(std::memory_order_relaxed) : 0;
  }

  /// The tightest remaining headroom across this level and every
  /// ancestor; INT64_MAX when nothing in the chain enforces a cap.
  std::int64_t remaining() const {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->cap > 0) {
        const std::int64_t room =
            s->cap - s->used.load(std::memory_order_acquire);
        best = std::min(best, room > 0 ? room : 0);
      }
    }
    return best;
  }

  /// True when a charge of \p bytes would be refused somewhere in the
  /// chain (advisory — a concurrent charge can still race it).
  bool would_deny(std::int64_t bytes) const {
    return valid() && bytes > 0 && bytes > remaining();
  }

 private:
  struct State {
    std::int64_t cap = 0;  ///< 0 = track-only.
    std::atomic<std::int64_t> used{0};
    std::atomic<std::int64_t> peak{0};
    std::atomic<std::int64_t> denials{0};
    std::shared_ptr<State> parent;
  };

  static void raise_peak(State& s, std::int64_t candidate) {
    std::int64_t cur = s.peak.load(std::memory_order_relaxed);
    while (candidate > cur &&
           !s.peak.compare_exchange_weak(cur, candidate,
                                         std::memory_order_acq_rel)) {
    }
  }

  std::shared_ptr<State> state_;
};

/// RAII charge: acquires bytes from a budget on construction, releases
/// them on destruction. A failed acquisition (ok() == false) releases
/// nothing. Move-only.
class BudgetCharge {
 public:
  BudgetCharge() = default;
  BudgetCharge(MemoryBudget budget, std::int64_t bytes)
      : budget_(std::move(budget)),
        bytes_(bytes),
        ok_(budget_.try_charge(bytes)) {}

  BudgetCharge(BudgetCharge&& o) noexcept
      : budget_(std::move(o.budget_)), bytes_(o.bytes_), ok_(o.ok_) {
    o.ok_ = false;
    o.bytes_ = 0;
  }
  BudgetCharge& operator=(BudgetCharge&& o) noexcept {
    if (this != &o) {
      reset();
      budget_ = std::move(o.budget_);
      bytes_ = o.bytes_;
      ok_ = o.ok_;
      o.ok_ = false;
      o.bytes_ = 0;
    }
    return *this;
  }
  BudgetCharge(const BudgetCharge&) = delete;
  BudgetCharge& operator=(const BudgetCharge&) = delete;

  ~BudgetCharge() { reset(); }

  /// True when the charge was accepted (inert budgets always accept).
  bool ok() const { return ok_; }
  std::int64_t bytes() const { return ok_ ? bytes_ : 0; }

  /// Releases the charge early.
  void reset() {
    if (ok_) budget_.release(bytes_);
    ok_ = false;
    bytes_ = 0;
  }

 private:
  MemoryBudget budget_;
  std::int64_t bytes_ = 0;
  bool ok_ = false;
};

/// O(1) upper-bound estimate of the bytes one run of \p kind needs for
/// an instance of \p shape: residual network + CSR adjacency + that
/// backend's scratch, computed from the same sizeof() arithmetic the
/// real containers use. kAuto estimates the backend select_solver would
/// pick.
std::int64_t estimate_solver_bytes(const InstanceShape& shape,
                                   SolverKind kind);

/// Footprint bound for a robust solve of \p shape: the maximum of
/// estimate_solver_bytes over every backend, cycle canceling included,
/// so any chain fits. This is what admission control compares against a
/// per-solve cap.
std::int64_t estimate_footprint(const InstanceShape& shape);

}  // namespace lera::netflow
