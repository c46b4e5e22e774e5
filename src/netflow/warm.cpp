#include "netflow/warm.hpp"

#include <algorithm>

#include "netflow/internal_solvers.hpp"
#include "netflow/residual.hpp"
#include "netflow/workspace.hpp"

namespace lera::netflow {

namespace {

/// Label-corrects potentials over the residual edges of (\p g, \p flow):
/// forward where flow < upper (cost c), backward where flow > 0
/// (cost -c). Returns false if a negative residual cycle exists, i.e.
/// \p flow is not optimal.
bool residual_potentials(const Graph& g, const std::vector<Flow>& flow,
                         std::vector<Cost>& pi) {
  const NodeId n = g.num_nodes();
  pi.assign(static_cast<std::size_t>(n), 0);
  for (NodeId round = 0; round <= n; ++round) {
    bool changed = false;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const Arc& arc = g.arc(a);
      const Flow f = flow[static_cast<std::size_t>(a)];
      const auto tail = static_cast<std::size_t>(arc.tail);
      const auto head = static_cast<std::size_t>(arc.head);
      if (f < arc.upper && pi[tail] + arc.cost < pi[head]) {
        if (round == n) return false;
        pi[head] = pi[tail] + arc.cost;
        changed = true;
      }
      if (f > 0 && pi[head] - arc.cost < pi[tail]) {
        if (round == n) return false;
        pi[tail] = pi[head] - arc.cost;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return true;
}

}  // namespace

bool WarmStartCache::matches(const Graph& g) const {
  if (!valid_ || g.has_lower_bounds()) return false;
  if (static_cast<std::size_t>(g.num_nodes()) != supplies_.size()) return false;
  if (static_cast<std::size_t>(g.num_arcs()) != tails_.size()) return false;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.supply(v) != supplies_[static_cast<std::size_t>(v)]) return false;
  }
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    if (arc.tail != tails_[static_cast<std::size_t>(a)] ||
        arc.head != heads_[static_cast<std::size_t>(a)]) {
      return false;
    }
  }
  return true;
}

std::string to_string(WarmStoreOutcome outcome) {
  switch (outcome) {
    case WarmStoreOutcome::kStored: return "stored";
    case WarmStoreOutcome::kLowerBounds: return "lower-bounds";
    case WarmStoreOutcome::kSizeMismatch: return "size-mismatch";
    case WarmStoreOutcome::kNotOptimal: return "not-optimal";
  }
  return "unknown";
}

WarmStoreOutcome WarmStartCache::store(const Graph& g,
                                       const std::vector<Flow>& flow) {
  if (g.has_lower_bounds()) return WarmStoreOutcome::kLowerBounds;
  if (flow.size() != static_cast<std::size_t>(g.num_arcs())) {
    return WarmStoreOutcome::kSizeMismatch;
  }
  // Label-correct into a scratch vector so a rejected store leaves any
  // previously recorded entry (including its potentials) untouched.
  std::vector<Cost> pi;
  if (!residual_potentials(g, flow, pi)) {
    return WarmStoreOutcome::kNotOptimal;  // Keep the previous entry.
  }
  pi_ = std::move(pi);
  key_to(g);
  flow_ = flow;
  valid_ = true;
  return WarmStoreOutcome::kStored;
}

void WarmStartCache::key_to(const Graph& g) {
  tails_.resize(static_cast<std::size_t>(g.num_arcs()));
  heads_.resize(static_cast<std::size_t>(g.num_arcs()));
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    tails_[static_cast<std::size_t>(a)] = g.arc(a).tail;
    heads_[static_cast<std::size_t>(a)] = g.arc(a).head;
  }
  supplies_.resize(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    supplies_[static_cast<std::size_t>(v)] = g.supply(v);
  }
}

std::size_t WarmCorrespondence::mapped_arcs() const {
  std::size_t n = 0;
  for (const int a : arc_from) n += a >= 0 ? 1 : 0;
  return n;
}

WarmStartCache WarmStartCache::remapped(const Graph& g,
                                        const WarmCorrespondence& map) const {
  WarmStartCache out;
  if (!valid_ || g.has_lower_bounds() ||
      map.arc_from.size() != static_cast<std::size_t>(g.num_arcs()) ||
      map.node_from.size() != static_cast<std::size_t>(g.num_nodes())) {
    return out;
  }
  // Removed arcs are simply not carried over (their endpoints pick up
  // excess/deficit the drain repairs); added arcs and nodes start at 0.
  out.flow_.assign(map.arc_from.size(), 0);
  for (std::size_t a = 0; a < map.arc_from.size(); ++a) {
    const int from = map.arc_from[a];
    if (from >= 0 && static_cast<std::size_t>(from) < flow_.size()) {
      out.flow_[a] = flow_[static_cast<std::size_t>(from)];
    }
  }
  out.pi_.assign(map.node_from.size(), 0);
  for (std::size_t v = 0; v < map.node_from.size(); ++v) {
    const int from = map.node_from[v];
    if (from >= 0 && static_cast<std::size_t>(from) < pi_.size()) {
      out.pi_[v] = pi_[static_cast<std::size_t>(from)];
    }
  }
  out.key_to(g);
  out.valid_ = true;
  return out;
}

void WarmStartCache::clear() {
  valid_ = false;
  tails_.clear();
  heads_.clear();
  supplies_.clear();
  flow_.clear();
  pi_.clear();
}

FlowSolution resolve_warm(const Graph& g, const WarmStartCache& cache,
                          SolveGuard* guard, SolverWorkspace* ws) {
  assert(cache.matches(g));
  if (g.total_supply() != 0) return {};

  SolverWorkspace local;
  SolverWorkspace& w = ws != nullptr ? *ws : local;
  ++w.counters.solves;

  Residual& res = w.residual;
  res.assign(g);
  const NodeId n = g.num_nodes();
  const auto un = static_cast<std::size_t>(n);
  SspScratch& s = w.ssp;
  s.prepare(n);

  // Impose the cached flow clamped to the new capacities. Where capacity
  // shrank the clamp strands excess at tails / deficit at heads; the SSP
  // drain below moves it. Conservation bookkeeping starts from the
  // node supplies exactly as a cold solve would.
  s.excess.assign(un, 0);
  for (NodeId v = 0; v < n; ++v) {
    s.excess[static_cast<std::size_t>(v)] = g.supply(v);
  }
  const std::vector<Flow>& prior = cache.flow();
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    const Flow f = std::min(prior[static_cast<std::size_t>(a)], arc.upper);
    if (f <= 0) continue;
    res.push(2 * a, f);
    s.excess[static_cast<std::size_t>(arc.tail)] -= f;
    s.excess[static_cast<std::size_t>(arc.head)] += f;
  }

  // The cached potentials proved the prior flow optimal under the old
  // costs; under the new ones a few residual edges may have slipped to
  // negative reduced cost (and capacity growth may have re-opened a
  // saturated negative edge). Saturating exactly those restores the
  // invariant — their twins carry the positive reduced cost — at the
  // price of extra excess the drain pays off with short Dijkstra runs.
  // (Repricing the potentials first instead was measured useless here:
  // with negative-cost arcs in play, even small perturbations put a
  // negative cycle in the prior flow's residual graph, so the
  // label-correcting passes never converge.)
  s.pi = cache.potentials();
  if (guard != nullptr && !guard->tick()) {
    return internal::budget_exceeded(SolverKind::kSuccessiveShortestPaths);
  }
  for (int e = 0; e < res.num_edges(); ++e) {
    const auto& edge = res.edge(e);
    if (edge.cap <= 0) continue;
    const NodeId u = res.tail(e);
    const Cost rc = edge.cost + s.pi[static_cast<std::size_t>(u)] -
                    s.pi[static_cast<std::size_t>(edge.head)];
    if (rc >= 0) continue;
    const Flow cap = edge.cap;
    res.push(e, cap);
    s.excess[static_cast<std::size_t>(u)] -= cap;
    s.excess[static_cast<std::size_t>(edge.head)] += cap;
  }

  // The saturation repair scatters many small excesses whose deficits
  // cluster inside one Dijkstra radius, so draining several per round
  // amortizes the search. Cold solves keep the canonical nearest-first
  // order (max_sinks_per_round = 1); warm results may land on a
  // different equal-cost optimum, which certification tolerates.
  constexpr int kWarmSinksPerRound = 16;
  const SolveStatus status =
      internal::ssp_drain(res, guard, w, kWarmSinksPerRound);
  if (status == SolveStatus::kBudgetExceeded) {
    return internal::budget_exceeded(SolverKind::kSuccessiveShortestPaths);
  }
  if (status != SolveStatus::kOptimal) return {};

  FlowSolution sol;
  sol.status = SolveStatus::kOptimal;
  sol.arc_flow = res.arc_flows();
  sol.cost = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    sol.cost += g.arc(a).cost * sol.arc_flow[static_cast<std::size_t>(a)];
  }
  return sol;
}

}  // namespace lera::netflow
