#include "alloc/fingerprint.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace lera::alloc {

namespace {

/// 128-bit absorb-mix hasher: two lanes of multiply-xor with cross-lane
/// rotation, finalised with an avalanche mix. Not cryptographic — it
/// only has to keep distinct semantic mutations from colliding, which
/// the 200-seed sweep in test_fingerprint checks.
struct Mix128 {
  std::uint64_t hi = 0x9e3779b97f4a7c15ULL;
  std::uint64_t lo = 0xc2b2ae3d27d4eb4fULL;

  static std::uint64_t rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }

  void absorb(std::uint64_t x) {
    lo = (lo ^ x) * 0xff51afd7ed558ccdULL;
    hi = (hi ^ rotl(lo, 29)) * 0xc4ceb9fe1a85ec53ULL;
    lo ^= rotl(hi, 41);
  }

  void absorb_i64(std::int64_t x) {
    absorb(static_cast<std::uint64_t>(x));
  }

  void absorb_double(double d) {
    if (d == 0.0) d = 0.0;  // Collapse -0.0 onto +0.0.
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    absorb(bits);
  }

  Fingerprint final128() {
    // One extra avalanche round so short inputs still diffuse.
    absorb(0x2545f4914f6cdd1dULL);
    absorb(0x9e3779b97f4a7c15ULL);
    return Fingerprint{hi, lo};
  }
};

/// Bit pattern of a double for exact (not tolerant) key comparison.
std::uint64_t double_bits(double d) {
  if (d == 0.0) d = 0.0;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Canonical sort key of one variable: lifetime shape, then activity
/// signature, with the declaration index as the final tiebreak (applied
/// by the sort itself, not stored here).
struct VarKey {
  int write_time = 0;
  int last_read = 0;
  bool live_out = false;
  int width = 0;
  std::vector<int> read_times;
  std::uint64_t initial_bits = 0;
  /// Sorted multiset of the variable's pairwise activity bit patterns —
  /// permutation-invariant by construction.
  std::vector<std::uint64_t> activity_row;

  bool operator<(const VarKey& o) const {
    if (write_time != o.write_time) return write_time < o.write_time;
    if (last_read != o.last_read) return last_read < o.last_read;
    if (read_times != o.read_times) return read_times < o.read_times;
    if (live_out != o.live_out) return live_out < o.live_out;
    if (width != o.width) return width < o.width;
    if (initial_bits != o.initial_bits) return initial_bits < o.initial_bits;
    return activity_row < o.activity_row;
  }
  bool operator==(const VarKey& o) const {
    return write_time == o.write_time && last_read == o.last_read &&
           read_times == o.read_times && live_out == o.live_out &&
           width == o.width && initial_bits == o.initial_bits &&
           activity_row == o.activity_row;
  }
};

void absorb_params(Mix128& h, const energy::EnergyParams& params) {
  h.absorb_double(params.mem_read);
  h.absorb_double(params.mem_write);
  h.absorb_double(params.reg_read);
  h.absorb_double(params.reg_write);
  h.absorb_double(params.reg_full_swing);
  h.absorb_double(params.mem_full_swing);
  h.absorb_double(params.v_nominal);
  h.absorb_double(params.v_mem);
  h.absorb_double(params.v_reg);
  h.absorb_i64(static_cast<std::int64_t>(params.register_model));
}

/// Hashes the problem in the variable/segment order given by
/// \p var_at (canonical position -> declaration index) and \p seg_at.
/// \p var_pos is the inverse of var_at.
void absorb_problem(Mix128& h, const AllocationProblem& p,
                    const std::vector<int>& var_at,
                    const std::vector<int>& var_pos,
                    const std::vector<int>& seg_at) {
  h.absorb(0x4c455241u);  // "LERA", format version guard.
  h.absorb(3);
  h.absorb_i64(p.num_steps);
  h.absorb_i64(p.num_registers);
  h.absorb_i64(p.access.period);
  h.absorb_i64(p.access.phase);
  absorb_params(h, p.params);

  h.absorb_i64(static_cast<std::int64_t>(p.lifetimes.size()));
  for (const int v : var_at) {
    const lifetime::Lifetime& lt = p.lifetimes[static_cast<std::size_t>(v)];
    h.absorb_i64(lt.width);
    h.absorb_i64(lt.write_time);
    h.absorb_i64(lt.live_out ? 1 : 0);
    h.absorb_i64(static_cast<std::int64_t>(lt.read_times.size()));
    for (const int t : lt.read_times) h.absorb_i64(t);
  }

  if (p.activity.size() == p.lifetimes.size()) {
    const std::size_t n = p.lifetimes.size();
    if (p.activity.is_uniform()) {
      // Every pair is still the constructor default (the overwhelmingly
      // common case: .lt files without activity lines). The whole
      // matrix is (n, default, initial) — absorbing the summary instead
      // of O(n^2) entries is what keeps fingerprinting linear-time. The
      // leading discriminant keeps the short stream from aliasing a
      // prefix of the long form.
      h.absorb(0x756e6966u);  // "unif"
      h.absorb_double(p.activity.uniform_h());
      h.absorb_double(p.activity.uniform_initial());
    } else {
      h.absorb(0x66756c6cu);  // "full"
      for (const int v : var_at) {
        h.absorb_double(p.activity.initial(static_cast<std::size_t>(v)));
      }
      for (std::size_t c1 = 0; c1 < n; ++c1) {
        for (std::size_t c2 = c1 + 1; c2 < n; ++c2) {
          h.absorb_double(p.activity.hamming(
              static_cast<std::size_t>(var_at[c1]),
              static_cast<std::size_t>(var_at[c2])));
        }
      }
    }
  }

  h.absorb_i64(static_cast<std::int64_t>(p.segments.size()));
  for (const int s : seg_at) {
    const lifetime::Segment& seg = p.segments[static_cast<std::size_t>(s)];
    h.absorb_i64(var_pos[static_cast<std::size_t>(seg.var)]);
    h.absorb_i64(seg.index);
    h.absorb_i64(seg.start);
    h.absorb_i64(seg.end);
    h.absorb_i64(static_cast<std::int64_t>(seg.start_kind));
    h.absorb_i64(static_cast<std::int64_t>(seg.end_kind));
    h.absorb_i64(seg.forced_register ? 1 : 0);
    h.absorb_i64(seg.forbidden_register ? 1 : 0);
  }
}

}  // namespace

std::string Fingerprint::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = digits[(hi >> (4 * i)) & 0xf];
    out[static_cast<std::size_t>(31 - i)] = digits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

FingerprintResult fingerprint_problem(const AllocationProblem& p) {
  FingerprintResult out;
  const std::size_t nvars = p.lifetimes.size();
  const std::size_t nsegs = p.segments.size();

  // Canonical variable order: sort by lifetime/activity key, declaration
  // index as tiebreak.
  std::vector<VarKey> keys(nvars);
  // A uniform activity matrix contributes nothing to the canonical
  // order (every row is identical), so the O(n^2) per-var sorted rows
  // are only built for genuinely non-uniform matrices.
  const bool has_activity =
      p.activity.size() == nvars && !p.activity.is_uniform();
  for (std::size_t v = 0; v < nvars; ++v) {
    const lifetime::Lifetime& lt = p.lifetimes[v];
    VarKey& k = keys[v];
    k.write_time = lt.write_time;
    k.last_read = lt.read_times.empty() ? lt.write_time : lt.last_read();
    k.live_out = lt.live_out;
    k.width = lt.width;
    k.read_times = lt.read_times;
    if (has_activity) {
      k.initial_bits = double_bits(p.activity.initial(v));
      k.activity_row.reserve(nvars - 1);
      for (std::size_t u = 0; u < nvars; ++u) {
        if (u == v) continue;
        k.activity_row.push_back(double_bits(p.activity.hamming(v, u)));
      }
      std::sort(k.activity_row.begin(), k.activity_row.end());
    }
  }
  out.var_order.resize(nvars);
  std::iota(out.var_order.begin(), out.var_order.end(), 0);
  std::stable_sort(out.var_order.begin(), out.var_order.end(),
                   [&keys](int a, int b) {
                     const VarKey& ka = keys[static_cast<std::size_t>(a)];
                     const VarKey& kb = keys[static_cast<std::size_t>(b)];
                     if (ka < kb) return true;
                     if (kb < ka) return false;
                     return a < b;  // Declaration-index tiebreak.
                   });
  std::vector<int> var_pos(nvars, 0);
  for (std::size_t c = 0; c < nvars; ++c) {
    var_pos[static_cast<std::size_t>(out.var_order[c])] = static_cast<int>(c);
  }

  // Canonical segment order: by (canonical var position, index).
  // Segments are stored sorted by (var, index), so a variable's segments
  // are contiguous and keep their relative order.
  out.seg_order.resize(nsegs);
  std::iota(out.seg_order.begin(), out.seg_order.end(), 0);
  std::stable_sort(out.seg_order.begin(), out.seg_order.end(),
                   [&p, &var_pos](int a, int b) {
                     const lifetime::Segment& sa =
                         p.segments[static_cast<std::size_t>(a)];
                     const lifetime::Segment& sb =
                         p.segments[static_cast<std::size_t>(b)];
                     const int pa = var_pos[static_cast<std::size_t>(sa.var)];
                     const int pb = var_pos[static_cast<std::size_t>(sb.var)];
                     if (pa != pb) return pa < pb;
                     return sa.index < sb.index;
                   });

  Mix128 canon;
  absorb_problem(canon, p, out.var_order, var_pos, out.seg_order);
  out.canonical = canon.final128();
  return out;
}

}  // namespace lera::alloc
