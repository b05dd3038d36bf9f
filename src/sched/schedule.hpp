#pragma once

#include <vector>

#include "dad/descriptor.hpp"
#include "linear/linearization.hpp"

namespace mxn::sched {

using dad::Descriptor;
using dad::Index;
using dad::Patch;

/// Everything one rank exchanges with one peer in a redistribution, as
/// rectangular regions. Each region lies inside a single owned patch of the
/// local side (senders: a source patch; receivers: a destination patch), so
/// pack/unpack is a strided memcpy. The region list order is the canonical
/// (source patch index, destination patch index) nesting, derived
/// identically and independently on both sides — the two sides never need to
/// exchange schedule data.
struct PeerRegions {
  int peer = 0;  // rank in the other cohort
  std::vector<Patch> regions;
  Index elements = 0;
};

/// One rank's local view of a region-based communication schedule computed
/// by direct DAD x DAD patch intersection (paper §2.3). A rank can hold the
/// source role, the destination role, or both (self-coupling, e.g. an
/// in-place transpose over the same cohort).
struct RegionSchedule {
  std::vector<PeerRegions> sends;  // this rank as source; peer = dst rank
  std::vector<PeerRegions> recvs;  // this rank as destination; peer = src rank

  [[nodiscard]] Index send_elements() const {
    Index t = 0;
    for (const auto& p : sends) t += p.elements;
    return t;
  }
  [[nodiscard]] Index recv_elements() const {
    Index t = 0;
    for (const auto& p : recvs) t += p.elements;
    return t;
  }
  [[nodiscard]] std::size_t message_count() const {
    return sends.size() + recvs.size();
  }

  /// Approximate resident size, for cache byte budgets: the struct plus the
  /// capacity of every region vector (Patch is a flat POD).
  [[nodiscard]] std::size_t byte_size() const {
    std::size_t b = sizeof(RegionSchedule);
    b += sends.capacity() * sizeof(PeerRegions);
    b += recvs.capacity() * sizeof(PeerRegions);
    for (const auto& p : sends) b += p.regions.capacity() * sizeof(Patch);
    for (const auto& p : recvs) b += p.regions.capacity() * sizeof(Patch);
    return b;
  }
};

/// How build_region_schedule derives the intersections. Every path produces
/// the identical schedule — same peers, same canonical region order, same
/// element counts — they differ only in build cost.
enum class BuildPath {
  /// Analytic when both templates are regular, Indexed otherwise.
  Auto,
  /// The reference nested patch-pair loops (with bounding-box peer
  /// pruning): O(peers · P_mine · P_theirs).
  Naive,
  /// The naive loops with bounding-box pruning disabled too: the ground
  /// truth the differential tests compare every other path against.
  Reference,
  /// Per-rank sorted spatial index (Descriptor::spatial_index): each local
  /// patch finds overlapping peer patches by binary search + bounded sweep,
  /// then pairs are re-sorted into the canonical nesting.
  Indexed,
  /// Regular templates only: per-axis interval overlaps in closed form
  /// (dad::axis_overlaps), crossed into regions directly in canonical
  /// order. Near-independent of array extent on block/cyclic/block-cyclic
  /// axes: O(output) per peer plus a small additive term.
  Analytic,
};

/// Build the local schedule for a rank holding source rank `my_src_rank`
/// (or -1 if not in the source cohort) and destination rank `my_dst_rank`
/// (or -1). The descriptors must describe the same global index space;
/// every source element reaches exactly the destination rank(s) owning the
/// same global point.
RegionSchedule build_region_schedule(const Descriptor& src,
                                     const Descriptor& dst, int my_src_rank,
                                     int my_dst_rank,
                                     BuildPath path = BuildPath::Auto);

/// One rank's share of an old→new *delta* redistribution — the migration
/// step of an elastic rescale (docs/RESCALING.md). Regions whose old and
/// new owner are the same physical (channel) rank never touch the wire:
/// they are listed in `local` and moved by a direct extract→inject. The
/// remainder is an ordinary RegionSchedule whose peers are cohort ranks of
/// the opposite side of the delta (`wire.sends[i].peer` indexes the NEW
/// cohort, `wire.recvs[i].peer` the OLD one).
struct DeltaSchedule {
  RegionSchedule wire;
  std::vector<Patch> local;  // regions owned here under BOTH descriptors
  Index local_elements = 0;

  [[nodiscard]] Index wire_send_elements() const {
    return wire.send_elements();
  }
  [[nodiscard]] Index wire_recv_elements() const {
    return wire.recv_elements();
  }
};

/// Build the delta between two same-shape descriptors for a rank holding
/// old-cohort rank `my_from_rank` (or -1) and new-cohort rank `my_to_rank`
/// (or -1). `from_channel_ranks` / `to_channel_ranks` map cohort ranks to
/// channel ranks (index == cohort rank, as in sched::Coupling); they decide
/// which intersections are wire traffic and which stay local. Built on
/// build_region_schedule (BuildPath::Auto), so the PR-5 analytic/indexed
/// fast paths apply and the region order is the canonical nesting on both
/// sides.
DeltaSchedule build_delta_schedule(const Descriptor& from,
                                   const Descriptor& to, int my_from_rank,
                                   int my_to_rank,
                                   const std::vector<int>& from_channel_ranks,
                                   const std::vector<int>& to_channel_ranks);

/// Everything one rank exchanges with one peer, as segments of the common
/// abstract linear arrangement (Meta-Chaos / InterComm model, §2.2.1).
struct PeerSegments {
  int peer = 0;
  std::vector<linear::Segment> segs;  // ascending, disjoint
  Index elements = 0;
};

/// One rank's local view of a linearization-based schedule. The source and
/// destination sides may use different linearizations (e.g. row-major vs
/// column-major: a transpose coupling); elements correspond through equal
/// linear index.
struct SegmentSchedule {
  std::vector<PeerSegments> sends;
  std::vector<PeerSegments> recvs;

  [[nodiscard]] Index send_elements() const {
    Index t = 0;
    for (const auto& p : sends) t += p.elements;
    return t;
  }
  [[nodiscard]] Index recv_elements() const {
    Index t = 0;
    for (const auto& p : recvs) t += p.elements;
    return t;
  }
};

SegmentSchedule build_segment_schedule(const Descriptor& src,
                                       const linear::Linearization& src_lin,
                                       const Descriptor& dst,
                                       const linear::Linearization& dst_lin,
                                       int my_src_rank, int my_dst_rank);

}  // namespace mxn::sched
