#include "sched/schedule.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "rt/error.hpp"
#include "trace/trace.hpp"

namespace mxn::sched {

using rt::UsageError;

namespace {

void check_shapes(const Descriptor& src, const Descriptor& dst) {
  if (!src.same_shape(dst))
    throw UsageError("redistribution requires identically shaped templates (" +
                     src.to_string() + " vs " + dst.to_string() + ")");
}

// ---------------------------------------------------------------------------
// Naive path: nested patch-pair loops, the reference all others must match.
// ---------------------------------------------------------------------------

RegionSchedule build_naive(const Descriptor& src, const Descriptor& dst,
                           int my_src_rank, int my_dst_rank, bool prune) {
  RegionSchedule out;

  if (my_src_rank >= 0) {
    // Sender side: my source patches against every destination rank's
    // patches, nested (my patch, peer patch) — the canonical order.
    const bool have_any = src.local_volume(my_src_rank) > 0;
    for (int d = 0; d < dst.nranks(); ++d) {
      if (prune && (!have_any || dst.local_volume(d) == 0 ||
                    !src.bounding_box(my_src_rank)
                         .overlaps(dst.bounding_box(d))))
        continue;
      PeerRegions pr;
      pr.peer = d;
      for (const auto& mine : src.patches_of(my_src_rank)) {
        for (const auto& theirs : dst.patches_of(d)) {
          if (auto r = Patch::intersect(mine, theirs)) {
            pr.regions.push_back(*r);
            pr.elements += r->volume();
          }
        }
      }
      if (!pr.regions.empty()) out.sends.push_back(std::move(pr));
    }
  }

  if (my_dst_rank >= 0) {
    // Receiver side: every source rank's patches against my destination
    // patches, in the sender's packing order (source patch, dest patch).
    const bool have_any = dst.local_volume(my_dst_rank) > 0;
    for (int s = 0; s < src.nranks(); ++s) {
      if (prune && (!have_any || src.local_volume(s) == 0 ||
                    !src.bounding_box(s).overlaps(
                        dst.bounding_box(my_dst_rank))))
        continue;
      PeerRegions pr;
      pr.peer = s;
      for (const auto& theirs : src.patches_of(s)) {
        for (const auto& mine : dst.patches_of(my_dst_rank)) {
          if (auto r = Patch::intersect(theirs, mine)) {
            pr.regions.push_back(*r);
            pr.elements += r->volume();
          }
        }
      }
      if (!pr.regions.empty()) out.recvs.push_back(std::move(pr));
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// Analytic path (regular x regular): per-axis closed-form interval overlaps
// crossed into regions directly in the canonical nesting.
// ---------------------------------------------------------------------------

/// One axis' overlap pairs for a (source coord, dest coord) pair, grouped by
/// source interval index. axis_overlaps emits (a_iv, b_iv)-lexicographically
/// with A = the source side, so groups are contiguous runs with ascending
/// a_iv, and within a group b_iv ascends.
struct AxisGroups {
  std::vector<dad::AxisOverlap> pairs;
  struct Group {
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  std::vector<Group> groups;

  void rebuild_groups() {
    groups.clear();
    std::size_t i = 0;
    while (i < pairs.size()) {
      std::size_t j = i;
      while (j < pairs.size() && pairs[j].a_iv == pairs[i].a_iv) ++j;
      groups.push_back({i, j - i});
      i = j;
    }
  }
};

/// Emit the intersection regions for one peer from the per-axis overlap
/// groups, reproducing the naive (source patch, dest patch) nesting exactly.
/// Source patches are the row-major cross product of per-axis source
/// intervals; enumerating group tuples row-major (groups ascend by source
/// interval index) visits exactly the source patches with any overlap, in
/// naive order. For a fixed source patch the overlapping dest patches are
/// the cross product of the per-axis b_iv choices within each group;
/// enumerating those row-major matches the naive inner loop's filtered
/// order. Every emitted region is non-empty by construction.
void emit_analytic(const std::array<AxisGroups, dad::kMaxNdim>& ax, int ndim,
                   PeerRegions& pr) {
  if (ndim == 1) {
    // In 1-D the canonical nesting is exactly the (a_iv, b_iv)-lex order
    // axis_overlaps already emits — no grouping needed. Sized write into
    // the region list: per-push bookkeeping would dominate at cyclic
    // extents (measured ~6x slower).
    const auto& pairs = ax[0].pairs;
    pr.regions.resize(pairs.size());
    Patch* out = pr.regions.data();
    Index elements = 0;
    for (const auto& p : pairs) {
      out->ndim = 1;
      out->lo[0] = p.lo;
      out->hi[0] = p.hi;
      ++out;
      elements += p.hi - p.lo;
    }
    pr.elements = elements;
    return;
  }
  std::array<std::size_t, dad::kMaxNdim> g{};
  while (true) {
    std::array<std::size_t, dad::kMaxNdim> m{};
    while (true) {
      Patch& r = pr.regions.emplace_back();
      r.ndim = ndim;
      for (int a = 0; a < ndim; ++a) {
        const auto& grp = ax[a].groups[g[a]];
        const auto& p = ax[a].pairs[grp.begin + m[a]];
        r.lo[a] = p.lo;
        r.hi[a] = p.hi;
      }
      pr.elements += r.volume();
      int a = ndim - 1;
      while (a >= 0) {
        if (++m[a] < ax[a].groups[g[a]].count) break;
        m[a] = 0;
        --a;
      }
      if (a < 0) break;
    }
    int a = ndim - 1;
    while (a >= 0) {
      if (++g[a] < ax[a].groups.size()) break;
      g[a] = 0;
      --a;
    }
    if (a < 0) break;
  }
}

RegionSchedule build_analytic(const Descriptor& src, const Descriptor& dst,
                              int my_src_rank, int my_dst_rank) {
  static trace::Counter& hits = trace::counter("sched.fastpath.hits");
  hits.add(1);
  RegionSchedule out;
  const int ndim = src.ndim();
  std::array<AxisGroups, dad::kMaxNdim> ax;

  // Fill ax with the per-axis overlaps of (source rank, dest rank); false
  // if some axis has none (the patch sets cannot intersect).
  const auto pair_axes = [&](const std::array<int, dad::kMaxNdim>& sc,
                             const std::array<int, dad::kMaxNdim>& dc) {
    for (int a = 0; a < ndim; ++a) {
      ax[a].pairs.clear();
      dad::axis_overlaps(src.axes()[a], sc[a], dst.axes()[a], dc[a],
                         ax[a].pairs);
      if (ax[a].pairs.empty()) return false;
      if (ndim > 1) ax[a].rebuild_groups();
    }
    return true;
  };

  if (my_src_rank >= 0) {
    const bool have_any = src.local_volume(my_src_rank) > 0;
    const auto my_coords = src.grid_coords(my_src_rank);
    for (int d = 0; d < dst.nranks(); ++d) {
      if (!have_any || dst.local_volume(d) == 0 ||
          !src.bounding_box(my_src_rank).overlaps(dst.bounding_box(d)))
        continue;
      if (!pair_axes(my_coords, dst.grid_coords(d))) continue;
      PeerRegions pr;
      pr.peer = d;
      emit_analytic(ax, ndim, pr);
      if (!pr.regions.empty()) out.sends.push_back(std::move(pr));
    }
  }

  if (my_dst_rank >= 0) {
    const bool have_any = dst.local_volume(my_dst_rank) > 0;
    const auto my_coords = dst.grid_coords(my_dst_rank);
    for (int s = 0; s < src.nranks(); ++s) {
      if (!have_any || src.local_volume(s) == 0 ||
          !src.bounding_box(s).overlaps(dst.bounding_box(my_dst_rank)))
        continue;
      if (!pair_axes(src.grid_coords(s), my_coords)) continue;
      PeerRegions pr;
      pr.peer = s;
      emit_analytic(ax, ndim, pr);
      if (!pr.regions.empty()) out.recvs.push_back(std::move(pr));
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// Indexed path: binary search + bounded sweep over the peer's sorted patch
// index, then re-sort the pairs into the canonical nesting.
// ---------------------------------------------------------------------------

void indexed_peer_regions(const std::vector<Patch>& locals,
                          const std::vector<Descriptor::IndexedPatch>& peers,
                          bool local_is_source, PeerRegions& pr) {
  struct Pair {
    std::int64_t key;  // (source patch idx << 32) | dest patch idx
    Patch region;
  };
  std::vector<Pair> found;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    const Patch& mine = locals[i];
    // Entries before `first` all have hi[0] <= mine.lo[0] (the prefix max
    // proves it), so they cannot overlap along axis 0. Entries at or past
    // the first whose lo[0] >= mine.hi[0] cannot either; the list is sorted
    // by lo[0], so the scan stops there.
    auto first = std::partition_point(
        peers.begin(), peers.end(), [&](const Descriptor::IndexedPatch& e) {
          return e.max_hi0 <= mine.lo[0];
        });
    for (auto it = first; it != peers.end() && it->patch.lo[0] < mine.hi[0];
         ++it) {
      if (auto r = Patch::intersect(mine, it->patch)) {
        const auto a = local_is_source ? static_cast<std::int64_t>(i)
                                       : static_cast<std::int64_t>(it->idx);
        const auto b = local_is_source ? static_cast<std::int64_t>(it->idx)
                                       : static_cast<std::int64_t>(i);
        found.push_back({(a << 32) | b, *r});
      }
    }
  }
  std::sort(found.begin(), found.end(),
            [](const Pair& x, const Pair& y) { return x.key < y.key; });
  pr.regions.reserve(pr.regions.size() + found.size());
  for (const auto& f : found) {
    pr.regions.push_back(f.region);
    pr.elements += f.region.volume();
  }
}

RegionSchedule build_indexed(const Descriptor& src, const Descriptor& dst,
                             int my_src_rank, int my_dst_rank) {
  static trace::Counter& hits = trace::counter("sched.index.hits");
  hits.add(1);
  RegionSchedule out;

  if (my_src_rank >= 0) {
    const auto& dst_index = dst.spatial_index();
    const bool have_any = src.local_volume(my_src_rank) > 0;
    const auto& mine = src.patches_of(my_src_rank);
    for (int d = 0; d < dst.nranks(); ++d) {
      if (!have_any || dst.local_volume(d) == 0 ||
          !src.bounding_box(my_src_rank).overlaps(dst.bounding_box(d)))
        continue;
      PeerRegions pr;
      pr.peer = d;
      indexed_peer_regions(mine, dst_index[d], /*local_is_source=*/true, pr);
      if (!pr.regions.empty()) out.sends.push_back(std::move(pr));
    }
  }

  if (my_dst_rank >= 0) {
    const auto& src_index = src.spatial_index();
    const bool have_any = dst.local_volume(my_dst_rank) > 0;
    const auto& mine = dst.patches_of(my_dst_rank);
    for (int s = 0; s < src.nranks(); ++s) {
      if (!have_any || src.local_volume(s) == 0 ||
          !src.bounding_box(s).overlaps(dst.bounding_box(my_dst_rank)))
        continue;
      PeerRegions pr;
      pr.peer = s;
      indexed_peer_regions(mine, src_index[s], /*local_is_source=*/false, pr);
      if (!pr.regions.empty()) out.recvs.push_back(std::move(pr));
    }
  }

  return out;
}

}  // namespace

RegionSchedule build_region_schedule(const Descriptor& src,
                                     const Descriptor& dst, int my_src_rank,
                                     int my_dst_rank, BuildPath path) {
  static trace::Histogram& build_ns = trace::histogram("sched.build_ns");
  trace::Span span("sched.build", "sched", 0, &build_ns);
  check_shapes(src, dst);
  if (path == BuildPath::Auto)
    path = (src.is_explicit() || dst.is_explicit()) ? BuildPath::Indexed
                                                    : BuildPath::Analytic;
  switch (path) {
    case BuildPath::Naive:
      return build_naive(src, dst, my_src_rank, my_dst_rank, /*prune=*/true);
    case BuildPath::Reference:
      return build_naive(src, dst, my_src_rank, my_dst_rank, /*prune=*/false);
    case BuildPath::Indexed:
      return build_indexed(src, dst, my_src_rank, my_dst_rank);
    case BuildPath::Analytic:
      if (src.is_explicit() || dst.is_explicit())
        throw UsageError(
            "analytic schedule construction requires regular templates on "
            "both sides");
      return build_analytic(src, dst, my_src_rank, my_dst_rank);
    case BuildPath::Auto:
      break;  // resolved above
  }
  throw UsageError("unknown schedule build path");
}

DeltaSchedule build_delta_schedule(const Descriptor& from,
                                   const Descriptor& to, int my_from_rank,
                                   int my_to_rank,
                                   const std::vector<int>& from_channel_ranks,
                                   const std::vector<int>& to_channel_ranks) {
  trace::Span span("sched.build_delta", "sched");
  if (static_cast<int>(from_channel_ranks.size()) != from.nranks())
    throw UsageError("delta: old channel-rank list does not match the old "
                     "descriptor's cohort size");
  if (static_cast<int>(to_channel_ranks.size()) != to.nranks())
    throw UsageError("delta: new channel-rank list does not match the new "
                     "descriptor's cohort size");
  const int my_channel =
      my_from_rank >= 0   ? from_channel_ranks.at(my_from_rank)
      : my_to_rank >= 0   ? to_channel_ranks.at(my_to_rank)
                          : -1;
  if (my_from_rank >= 0 && my_to_rank >= 0 &&
      to_channel_ranks.at(my_to_rank) != my_channel)
    throw UsageError("delta: this rank's old and new cohort slots map to "
                     "different channel ranks");

  RegionSchedule full = build_region_schedule(from, to, my_from_rank,
                                              my_to_rank, BuildPath::Auto);
  DeltaSchedule d;
  // A region whose destination is this same channel rank appears in BOTH the
  // send and the recv list (identical canonical region list); claim it from
  // the send side and drop the mirrored recv entry.
  for (auto& pr : full.sends) {
    if (to_channel_ranks.at(pr.peer) == my_channel) {
      d.local.insert(d.local.end(), pr.regions.begin(), pr.regions.end());
      d.local_elements += pr.elements;
    } else {
      d.wire.sends.push_back(std::move(pr));
    }
  }
  for (auto& pr : full.recvs) {
    if (from_channel_ranks.at(pr.peer) == my_channel) continue;
    d.wire.recvs.push_back(std::move(pr));
  }
  return d;
}

SegmentSchedule build_segment_schedule(const Descriptor& src,
                                       const linear::Linearization& src_lin,
                                       const Descriptor& dst,
                                       const linear::Linearization& dst_lin,
                                       int my_src_rank, int my_dst_rank) {
  if (src_lin.total() != dst_lin.total())
    throw UsageError(
        "source and destination linearizations must cover the same number of "
        "elements");
  static trace::Histogram& build_ns = trace::histogram("sched.build_ns");
  trace::Span span("sched.build_segments", "sched", 0, &build_ns);
  SegmentSchedule out;

  // One sweep of my cached footprint against the other side's cached
  // ownership map replaces the old per-peer footprint + intersect (which
  // recomputed every peer's footprint on every call). The ownership runs of
  // one owner are exactly that owner's normalized footprint, so the
  // per-owner output segments are identical to the per-peer intersection.
  const auto sweep = [](const std::vector<linear::Segment>& mine,
                        const std::vector<linear::OwnedSegment>& owned,
                        int nranks, std::vector<PeerSegments>& out_list) {
    std::vector<std::vector<linear::Segment>> buckets(
        static_cast<std::size_t>(nranks));
    std::size_t i = 0, j = 0;
    while (i < mine.size() && j < owned.size()) {
      const Index lo = std::max(mine[i].lo, owned[j].seg.lo);
      const Index hi = std::min(mine[i].hi, owned[j].seg.hi);
      if (lo < hi) buckets[static_cast<std::size_t>(owned[j].owner)].push_back(
          {lo, hi});
      if (mine[i].hi < owned[j].seg.hi)
        ++i;
      else
        ++j;
    }
    for (int r = 0; r < nranks; ++r) {
      auto& segs = buckets[static_cast<std::size_t>(r)];
      if (segs.empty()) continue;
      PeerSegments ps;
      ps.peer = r;
      ps.elements = linear::total_length(segs);
      ps.segs = std::move(segs);
      out_list.push_back(std::move(ps));
    }
  };

  if (my_src_rank >= 0) {
    const auto mine = linear::footprint_cached(src, my_src_rank, src_lin);
    const auto owned = linear::ownership_map_cached(dst, dst_lin);
    sweep(*mine, *owned, dst.nranks(), out.sends);
  }

  if (my_dst_rank >= 0) {
    const auto mine = linear::footprint_cached(dst, my_dst_rank, dst_lin);
    const auto owned = linear::ownership_map_cached(src, src_lin);
    sweep(*mine, *owned, src.nranks(), out.recvs);
  }

  return out;
}

}  // namespace mxn::sched
