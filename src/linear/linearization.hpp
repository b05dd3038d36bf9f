#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "dad/descriptor.hpp"
#include "dad/geometry.hpp"
#include "rt/sharded_lru.hpp"

namespace mxn::linear {

using dad::Index;
using dad::Patch;
using dad::Point;

/// Half-open interval [lo, hi) of the abstract linear index space.
struct Segment {
  Index lo = 0;
  Index hi = 0;

  [[nodiscard]] Index length() const { return hi - lo; }
  [[nodiscard]] bool empty() const { return hi <= lo; }
  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Sort segments and merge touching/overlapping ones.
std::vector<Segment> normalize(std::vector<Segment> segs);

/// Intersection of two normalized segment lists (two-pointer sweep).
std::vector<Segment> intersect(const std::vector<Segment>& a,
                               const std::vector<Segment>& b);

/// Total number of indices covered by a normalized list.
Index total_length(const std::vector<Segment>& segs);

/// A linearization maps the multidimensional global index space onto a
/// single abstract 1-D arrangement (paper §2.2.1). The mapping between the
/// source and target data is then implicit: elements with equal linear index
/// correspond. The application controls the order; axis-permutation orders
/// cover row-major, column-major and transposes. Linearization is logical —
/// nothing is ever materialized in this order; it exists only as the common
/// reference for computing communication schedules.
class Linearization {
 public:
  /// Row-major (last axis fastest) — matches DistArray patch storage order.
  static Linearization row_major(int ndim, const Point& extents);

  /// Column-major (first axis fastest).
  static Linearization column_major(int ndim, const Point& extents);

  /// Axes listed from slowest to fastest. order must be a permutation of
  /// 0..ndim-1. Using the reversed identity yields column-major; swapping
  /// two axes of the identity expresses a transpose coupling.
  static Linearization axis_order(int ndim, const Point& extents,
                                  std::array<int, dad::kMaxNdim> order);

  [[nodiscard]] int ndim() const { return ndim_; }
  [[nodiscard]] Index total() const { return total_; }
  [[nodiscard]] int fastest_axis() const { return order_[ndim_ - 1]; }
  [[nodiscard]] bool is_row_major() const;

  /// Hash of the full identity (ndim, extents, axis order); equal
  /// linearizations hash equally. Used to key the footprint cache.
  [[nodiscard]] std::size_t structural_hash() const;

  friend bool operator==(const Linearization& a, const Linearization& b) {
    return a.ndim_ == b.ndim_ && a.extents_ == b.extents_ &&
           a.order_ == b.order_;
  }

  [[nodiscard]] Index offset_of(const Point& p) const {
    Index off = 0;
    for (int i = 0; i < ndim_; ++i)
      off = off * extents_[order_[i]] + p[order_[i]];
    return off;
  }

  [[nodiscard]] Point point_at(Index offset) const {
    Point p{};
    for (int i = ndim_ - 1; i >= 0; --i) {
      const int a = order_[i];
      p[a] = offset % extents_[a];
      offset /= extents_[a];
    }
    return p;
  }

 private:
  Linearization() = default;

  int ndim_ = 0;
  Point extents_{};
  std::array<int, dad::kMaxNdim> order_{};
  Index total_ = 0;
};

/// A run of indices that is contiguous in linear space, together with where
/// those elements live in the owning rank's local storage. `storage_stride`
/// is the storage distance between consecutive linear indices of the run: 1
/// when the linearization's fastest axis is the storage's fastest (row-major
/// over the patch), something larger for permuted orders.
struct ProvenancedSegment {
  Segment seg;
  Index storage_offset = 0;  // local storage offset of seg.lo's element
  Index storage_stride = 1;
};

/// The linear footprint of `rank` under `desc`: the set of linear indices it
/// owns, as normalized segments.
std::vector<Segment> footprint(const dad::Descriptor& desc, int rank,
                               const Linearization& lin);

/// Footprint with storage provenance, sorted by linear offset; the schedule
/// executor uses this to pack/unpack segment data with strided copies
/// instead of per-element descriptor queries.
std::vector<ProvenancedSegment> footprint_with_provenance(
    const dad::Descriptor& desc, int rank, const Linearization& lin);

/// One run of the descriptor-wide ownership map: `seg` is owned by `owner`.
struct OwnedSegment {
  Segment seg;
  int owner = 0;
  friend bool operator==(const OwnedSegment&, const OwnedSegment&) = default;
};

using SegmentsPtr = std::shared_ptr<const std::vector<Segment>>;
using OwnershipPtr = std::shared_ptr<const std::vector<OwnedSegment>>;

/// footprint(), memoized process-wide per (descriptor, rank, linearization)
/// — keyed by the descriptor's structural hash plus a shape fingerprint, so
/// structurally equal descriptor objects share entries. Thread-safe; the
/// returned vector is immutable and outlives cache clears and evictions.
/// Hits/misses are counted by `sched.footprint.hits` /
/// `sched.footprint.misses`; a lookup that loses a concurrent build race is
/// neither (it's billed to `sched.footprint.races`), so the tallies stay
/// exact under threads.
SegmentsPtr footprint_cached(const dad::Descriptor& desc, int rank,
                             const Linearization& lin);

/// The whole descriptor's ownership map under `lin`: ascending disjoint
/// (segment, owner) runs exactly covering [0, lin.total()). The runs of one
/// owner equal footprint(desc, owner, lin), so a single sweep of a local
/// footprint against this map replaces per-peer footprint + intersect.
std::vector<OwnedSegment> ownership_map(const dad::Descriptor& desc,
                                        const Linearization& lin);

/// ownership_map(), memoized like footprint_cached (keyed with rank = -1).
/// Billed to its own `sched.ownership.hits` / `sched.ownership.misses`
/// counters; the per-rank footprint lookups its build path runs internally
/// are NOT billed to the footprint tallies (they are a build detail, not
/// application lookups — billing them inflated the footprint hit rate
/// exactly when the cache was coldest).
OwnershipPtr ownership_map_cached(const dad::Descriptor& desc,
                                  const Linearization& lin);

/// Re-shard and budget the process-wide footprint/ownership cache. The
/// default budget is one shard, no bounds. A serving workload with many
/// live descriptor shapes configures shards (lock spreading) and budgets;
/// over budget, least-recently-used entries are evicted
/// (`sched.footprint.evicted`) — returned SegmentsPtr/OwnershipPtr handles
/// stay valid, eviction only drops the cache's reference.
void footprint_cache_configure(const rt::LruBudget& budget);

struct FootprintCacheStats {
  std::size_t hits = 0;    // footprint_cached outcomes only
  std::size_t misses = 0;  // ...a miss is a build this caller performed
  std::size_t ownership_hits = 0;    // ownership_map_cached outcomes
  std::size_t ownership_misses = 0;
  std::size_t races = 0;      // lost concurrent-build races (not misses)
  std::size_t evictions = 0;  // LRU evictions under a configured budget
  std::size_t entries = 0;    // footprints + ownership maps resident
  std::size_t bytes = 0;      // resident payload bytes
};
[[nodiscard]] FootprintCacheStats footprint_cache_stats();
void footprint_cache_clear();

}  // namespace mxn::linear
