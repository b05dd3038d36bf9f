#include "linear/linearization.hpp"

#include <algorithm>
#include <atomic>

#include "rt/error.hpp"
#include "rt/sharded_lru.hpp"
#include "trace/trace.hpp"

namespace mxn::linear {

using rt::UsageError;

std::vector<Segment> normalize(std::vector<Segment> segs) {
  segs.erase(std::remove_if(segs.begin(), segs.end(),
                            [](const Segment& s) { return s.empty(); }),
             segs.end());
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) { return a.lo < b.lo; });
  std::vector<Segment> out;
  for (const auto& s : segs) {
    if (!out.empty() && s.lo <= out.back().hi)
      out.back().hi = std::max(out.back().hi, s.hi);
    else
      out.push_back(s);
  }
  return out;
}

std::vector<Segment> intersect(const std::vector<Segment>& a,
                               const std::vector<Segment>& b) {
  std::vector<Segment> out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Index lo = std::max(a[i].lo, b[j].lo);
    const Index hi = std::min(a[i].hi, b[j].hi);
    if (lo < hi) out.push_back({lo, hi});
    if (a[i].hi < b[j].hi)
      ++i;
    else
      ++j;
  }
  return out;
}

Index total_length(const std::vector<Segment>& segs) {
  Index t = 0;
  for (const auto& s : segs) t += s.length();
  return t;
}

Linearization Linearization::row_major(int ndim, const Point& extents) {
  std::array<int, dad::kMaxNdim> order{};
  for (int i = 0; i < ndim; ++i) order[i] = i;
  return axis_order(ndim, extents, order);
}

Linearization Linearization::column_major(int ndim, const Point& extents) {
  std::array<int, dad::kMaxNdim> order{};
  for (int i = 0; i < ndim; ++i) order[i] = ndim - 1 - i;
  return axis_order(ndim, extents, order);
}

Linearization Linearization::axis_order(int ndim, const Point& extents,
                                        std::array<int, dad::kMaxNdim> order) {
  if (ndim < 1 || ndim > dad::kMaxNdim) throw UsageError("bad ndim");
  std::array<bool, dad::kMaxNdim> seen{};
  for (int i = 0; i < ndim; ++i) {
    if (order[i] < 0 || order[i] >= ndim || seen[order[i]])
      throw UsageError("axis order must be a permutation of 0..ndim-1");
    seen[order[i]] = true;
  }
  Linearization lin;
  lin.ndim_ = ndim;
  lin.extents_ = extents;
  lin.order_ = order;
  lin.total_ = 1;
  for (int a = 0; a < ndim; ++a) {
    if (extents[a] <= 0) throw UsageError("extents must be positive");
    lin.total_ *= extents[a];
  }
  return lin;
}

bool Linearization::is_row_major() const {
  for (int i = 0; i < ndim_; ++i)
    if (order_[i] != i) return false;
  return true;
}

std::vector<ProvenancedSegment> footprint_with_provenance(
    const dad::Descriptor& desc, int rank, const Linearization& lin) {
  if (desc.ndim() != lin.ndim())
    throw UsageError("linearization/descriptor dimensionality mismatch");
  const int f = lin.fastest_axis();
  std::vector<ProvenancedSegment> out;
  const auto& patches = desc.patches_of(rank);
  for (std::size_t pi = 0; pi < patches.size(); ++pi) {
    const Patch& p = patches[pi];
    const Index base = desc.patch_base(rank, pi);
    // Storage stride between consecutive indices along axis f inside this
    // row-major patch: product of extents of the axes after f.
    Index stride = 1;
    for (int a = f + 1; a < p.ndim; ++a) stride *= p.extent(a);
    // Enumerate runs along axis f: iterate the patch with axis f pinned.
    Patch starts = p;
    starts.hi[f] = starts.lo[f] + 1;
    starts.for_each_point([&](const Point& s) {
      ProvenancedSegment ps;
      ps.seg.lo = lin.offset_of(s);
      ps.seg.hi = ps.seg.lo + p.extent(f);
      ps.storage_offset = base + p.offset_of(s);
      ps.storage_stride = stride;
      out.push_back(ps);
    });
  }
  std::sort(out.begin(), out.end(),
            [](const ProvenancedSegment& a, const ProvenancedSegment& b) {
              return a.seg.lo < b.seg.lo;
            });
  return out;
}

std::vector<Segment> footprint(const dad::Descriptor& desc, int rank,
                               const Linearization& lin) {
  auto prov = footprint_with_provenance(desc, rank, lin);
  std::vector<Segment> segs;
  segs.reserve(prov.size());
  for (const auto& ps : prov) segs.push_back(ps.seg);
  return normalize(std::move(segs));
}

std::size_t Linearization::structural_hash() const {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(ndim_));
  for (int a = 0; a < ndim_; ++a) {
    mix(static_cast<std::uint64_t>(extents_[a]));
    mix(static_cast<std::uint64_t>(order_[a]));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Footprint memoization
// ---------------------------------------------------------------------------

namespace {

/// Cache key: descriptor + linearization structural hashes plus a cheap
/// shape fingerprint guarding against hash collisions between differently
/// shaped descriptors (the hashes themselves are 64-bit FNV-1a over the
/// full canonical serializations).
struct FpKey {
  std::size_t desc_hash = 0;
  std::size_t lin_hash = 0;
  int rank = -1;  // -1 keys the whole-descriptor ownership map
  int nranks = 0;
  int ndim = 0;
  bool is_explicit = false;
  dad::Point extents{};

  friend bool operator==(const FpKey&, const FpKey&) = default;
};

struct FpKeyHash {
  std::size_t operator()(const FpKey& k) const {
    std::size_t h = k.desc_hash;
    h = h * 1099511628211ull + k.lin_hash;
    h = h * 1099511628211ull + static_cast<std::size_t>(k.rank + 1);
    return h;
  }
};

FpKey make_key(const dad::Descriptor& desc, int rank,
               const Linearization& lin) {
  FpKey k;
  k.desc_hash = desc.structural_hash();
  k.lin_hash = lin.structural_hash();
  k.rank = rank;
  k.nranks = desc.nranks();
  k.ndim = desc.ndim();
  k.is_explicit = desc.is_explicit();
  for (int a = 0; a < desc.ndim(); ++a) k.extents[a] = desc.extent(a);
  return k;
}

/// One memoized value: a footprint (key.rank >= 0) or an ownership map
/// (key.rank == -1); the two key spaces are disjoint, so one table holds
/// both and one budget bounds them together.
struct FpValue {
  FpKey key;
  std::vector<Segment> segs;
  std::vector<OwnedSegment> owns;

  [[nodiscard]] std::size_t byte_size() const {
    return segs.capacity() * sizeof(Segment) +
           owns.capacity() * sizeof(OwnedSegment);
  }
};

/// The cache and its exact tallies. Footprint and ownership lookups are
/// billed apart; the per-rank lookups an ownership-map build runs are a
/// build detail, billed to neither (billing them inflated the footprint hit
/// rate exactly when the cache was coldest). Lost races of all three kinds
/// count as `sched.footprint.races`.
struct FpCache {
  rt::ShardedLru<FpValue> lru{trace::counter("sched.footprint.evicted")};
  rt::LruTally footprints{trace::counter("sched.footprint.hits"),
                          trace::counter("sched.footprint.misses"),
                          trace::counter("sched.footprint.races")};
  rt::LruTally ownership{trace::counter("sched.ownership.hits"),
                         trace::counter("sched.ownership.misses"),
                         trace::counter("sched.footprint.races")};
  rt::LruTally internal{trace::counter("sched.footprint.internal_lookups"),
                        trace::counter("sched.footprint.internal_lookups"),
                        trace::counter("sched.footprint.races")};
};

FpCache& fp_cache() {
  static FpCache c;
  return c;
}

template <typename Fill>
std::shared_ptr<const FpValue> fp_lookup(const FpKey& key,
                                         rt::LruTally& tally,
                                         const Fill& fill) {
  auto [v, outcome] = fp_cache().lru.get_or_build(
      FpKeyHash{}(key), [&](const FpValue& x) { return x.key == key; },
      [&] {
        FpValue built{key, {}, {}};
        fill(built);
        return built;
      },
      [](FpValue&) {});
  tally.count(outcome);
  return std::move(v);
}

/// footprint(), cached and billed to `tally`. The handle aliases the cached
/// entry, so it outlives clears and evictions.
SegmentsPtr footprint_lookup(const dad::Descriptor& desc, int rank,
                             const Linearization& lin, rt::LruTally& tally) {
  auto v = fp_lookup(make_key(desc, rank, lin), tally,
                     [&](FpValue& b) { b.segs = footprint(desc, rank, lin); });
  const auto* segs = &v->segs;
  return {std::move(v), segs};
}

}  // namespace

SegmentsPtr footprint_cached(const dad::Descriptor& desc, int rank,
                             const Linearization& lin) {
  return footprint_lookup(desc, rank, lin, fp_cache().footprints);
}

std::vector<OwnedSegment> ownership_map(const dad::Descriptor& desc,
                                        const Linearization& lin) {
  std::vector<OwnedSegment> out;
  for (int r = 0; r < desc.nranks(); ++r) {
    const auto fp = footprint_lookup(desc, r, lin, fp_cache().internal);
    for (const auto& s : *fp) out.push_back({s, r});
  }
  std::sort(out.begin(), out.end(),
            [](const OwnedSegment& a, const OwnedSegment& b) {
              return a.seg.lo < b.seg.lo;
            });
  return out;
}

OwnershipPtr ownership_map_cached(const dad::Descriptor& desc,
                                  const Linearization& lin) {
  auto v = fp_lookup(make_key(desc, /*rank=*/-1, lin), fp_cache().ownership,
                     [&](FpValue& b) { b.owns = ownership_map(desc, lin); });
  const auto* owns = &v->owns;
  return {std::move(v), owns};
}

void footprint_cache_configure(const rt::LruBudget& budget) {
  // Redistributes existing entries. Not safe against concurrent lookups:
  // configure at startup or between phases (same contract as
  // ScheduleCache::configure).
  fp_cache().lru.configure(budget);
}

FootprintCacheStats footprint_cache_stats() {
  auto& c = fp_cache();
  FootprintCacheStats s;
  s.hits = c.footprints.hits.load();
  s.misses = c.footprints.misses.load();
  s.ownership_hits = c.ownership.hits.load();
  s.ownership_misses = c.ownership.misses.load();
  s.races = c.footprints.races.load() + c.ownership.races.load() +
            c.internal.races.load();
  s.evictions = c.lru.evicted();
  s.entries = c.lru.size();
  s.bytes = c.lru.bytes();
  return s;
}

void footprint_cache_clear() {
  auto& c = fp_cache();
  c.lru.clear();
  c.footprints.reset();
  c.ownership.reset();
  c.internal.reset();
}

}  // namespace mxn::linear
