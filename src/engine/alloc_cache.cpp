#include "engine/alloc_cache.hpp"

#include <utility>

#include "audit/audit.hpp"

namespace lera::engine {

namespace {

struct FpHash {
  std::size_t operator()(const alloc::Fingerprint& f) const {
    return static_cast<std::size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Rough but monotone byte estimate of one entry's retained storage;
/// what the byte cap and the MemoryBudget are charged with.
std::int64_t estimate_result_bytes(const alloc::AllocationResult& r) {
  std::int64_t bytes = static_cast<std::int64_t>(sizeof(r));
  bytes += static_cast<std::int64_t>(r.message.capacity());
  bytes += static_cast<std::int64_t>(r.assignment.size() * sizeof(int));
  const netflow::SolveDiagnostics& d = r.solve_diagnostics;
  bytes += static_cast<std::int64_t>(d.attempts.capacity() *
                                     sizeof(netflow::SolveAttempt));
  for (const netflow::SolveAttempt& a : d.attempts) {
    bytes += static_cast<std::int64_t>(a.note.capacity());
  }
  bytes += static_cast<std::int64_t>(d.message.capacity() +
                                     d.auto_features.capacity());
  bytes += static_cast<std::int64_t>(r.audit.findings.capacity() * 64);
  return bytes;
}

}  // namespace

struct AllocCache::Entry {
  alloc::Fingerprint key;
  /// Per canonical segment position: register index or
  /// Assignment::kMemory. The assignment in any declaration order is
  /// canon_loc composed with that instance's seg_order.
  std::vector<int> canon_loc;
  /// The finished result, assignment stripped (rebuilt per serve).
  alloc::AllocationResult result;
  std::int64_t bytes = 0;
};

struct AllocCache::Shard {
  std::mutex mutex;
  std::list<Entry> lru;  ///< Front = most recently used.
  std::unordered_map<alloc::Fingerprint, std::list<Entry>::iterator, FpHash>
      index;
};

AllocCache::AllocCache(const AllocCacheOptions& options,
                       netflow::MemoryBudget budget)
    : options_(options), budget_(std::move(budget)) {
  num_shards_ = options_.max_entries >= 8 ? 8 : 1;
  entries_per_shard_ =
      options_.max_entries == 0
          ? 0
          : std::max<std::size_t>(1, options_.max_entries / num_shards_);
  shards_ = std::vector<Shard>(num_shards_);
}

AllocCache::~AllocCache() { clear(); }

AllocCache::Shard& AllocCache::shard_of(const alloc::Fingerprint& key) {
  return shards_[static_cast<std::size_t>(key.hi) % num_shards_];
}

void AllocCache::evict_locked(Shard& shard) {
  if (shard.lru.empty()) return;
  const Entry& tail = shard.lru.back();
  budget_.release(tail.bytes);
  bytes_.fetch_add(-tail.bytes, std::memory_order_relaxed);
  entry_count_.fetch_add(-1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  shard.index.erase(tail.key);
  shard.lru.pop_back();
}

bool AllocCache::cacheable(const alloc::AllocationResult& r) {
  return r.feasible && !r.degraded && !r.timed_out && !r.cancelled &&
         !r.memory_exceeded &&
         r.solve_diagnostics.certification ==
             netflow::CertificationVerdict::kPassed &&
         r.audit.clean();
}

std::optional<alloc::AllocationResult> AllocCache::lookup(
    const alloc::AllocationProblem& p, const alloc::FingerprintResult& fp) {
  if (!enabled()) return std::nullopt;
  Shard& shard = shard_of(fp.canonical);

  alloc::AllocationResult candidate;
  std::vector<int> canon_loc;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(fp.canonical);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    Entry& e = *it->second;
    if (e.canon_loc.size() != p.segments.size() ||
        e.canon_loc.size() != fp.seg_order.size()) {
      // A 128-bit collision with a different shape: never serve it.
      shard.lru.splice(shard.lru.end(), shard.lru, it->second);
      evict_locked(shard);
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    candidate = e.result;
    canon_loc = e.canon_loc;
  }

  // Remap the canonical-order assignment onto this instance's
  // declaration order (identity for exact repeats). Done outside the
  // lock — hits must not serialise on each other's audits.
  alloc::Assignment assignment(p.segments.size());
  for (std::size_t c = 0; c < canon_loc.size(); ++c) {
    const int loc = canon_loc[c];
    const auto seg = static_cast<std::size_t>(fp.seg_order[c]);
    if (loc >= 0) {
      assignment.assign_register(seg, loc);
    } else {
      assignment.assign_memory(seg);
    }
  }
  candidate.assignment = std::move(assignment);

  // Paranoia sampling: every audit_rate-th hit is re-derived from first
  // principles before being served. A finding means the entry (or the
  // fingerprint remap) lied: evict and recount as a miss, never serve.
  const std::int64_t hit_no = hits_.fetch_add(1, std::memory_order_relaxed);
  if (options_.audit_rate > 0 &&
      hit_no % static_cast<std::int64_t>(options_.audit_rate) == 0) {
    audit_samples_.fetch_add(1, std::memory_order_relaxed);
    audit::AuditOptions audit_opts;
    audit_opts.level = audit::AuditLevel::kFullCost;
    audit_opts.check_optimality = false;  // Keep the hit path O(instance).
    const audit::AuditReport report =
        audit::audit_result(p, candidate, audit_opts);
    if (!report.clean()) {
      audit_evictions_.fetch_add(1, std::memory_order_relaxed);
      hits_.fetch_add(-1, std::memory_order_relaxed);
      misses_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.index.find(fp.canonical);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.end(), shard.lru, it->second);
        evict_locked(shard);
      }
      return std::nullopt;
    }
  }
  return candidate;
}

void AllocCache::insert(const alloc::FingerprintResult& fp,
                        const alloc::AllocationResult& r) {
  if (!enabled() || !cacheable(r)) return;
  if (r.assignment.size() != fp.seg_order.size()) return;

  Entry e;
  e.key = fp.canonical;
  e.canon_loc.resize(fp.seg_order.size());
  for (std::size_t c = 0; c < fp.seg_order.size(); ++c) {
    e.canon_loc[c] =
        r.assignment.location(static_cast<std::size_t>(fp.seg_order[c]));
  }
  e.result = r;
  e.result.assignment = alloc::Assignment();  // Rebuilt per serve.
  e.bytes = estimate_result_bytes(e.result) +
            static_cast<std::int64_t>(e.canon_loc.size() * sizeof(int)) +
            static_cast<std::int64_t>(sizeof(Entry));

  Shard& shard = shard_of(fp.canonical);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.index.find(fp.canonical) != shard.index.end()) {
    return;  // First write wins.
  }
  while (shard.lru.size() >= entries_per_shard_) evict_locked(shard);
  if (options_.max_bytes > 0) {
    while (bytes_.load(std::memory_order_relaxed) + e.bytes >
               options_.max_bytes &&
           !shard.lru.empty()) {
      evict_locked(shard);
    }
    if (bytes_.load(std::memory_order_relaxed) + e.bytes >
        options_.max_bytes) {
      return;  // Other shards hold the budget; skip, don't overrun.
    }
  }
  while (!budget_.try_charge(e.bytes)) {
    if (shard.lru.empty()) return;  // Budget refuses even an empty shard.
    evict_locked(shard);
  }
  bytes_.fetch_add(e.bytes, std::memory_order_relaxed);
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.push_front(std::move(e));
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
}

AllocCacheStats AllocCache::stats() const {
  AllocCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.audit_samples = audit_samples_.load(std::memory_order_relaxed);
  s.audit_evictions = audit_evictions_.load(std::memory_order_relaxed);
  s.bytes_in_use = bytes_.load(std::memory_order_relaxed);
  s.entries = entry_count_.load(std::memory_order_relaxed);
  return s;
}

void AllocCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& e : shard.lru) budget_.release(e.bytes);
    bytes_.fetch_add(
        -static_cast<std::int64_t>([&] {
          std::int64_t total = 0;
          for (const Entry& e : shard.lru) total += e.bytes;
          return total;
        }()),
        std::memory_order_relaxed);
    entry_count_.fetch_add(-static_cast<std::int64_t>(shard.lru.size()),
                           std::memory_order_relaxed);
    shard.index.clear();
    shard.lru.clear();
  }
}

}  // namespace lera::engine