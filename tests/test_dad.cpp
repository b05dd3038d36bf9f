// Unit and property tests for the Distributed Array Descriptor (src/dad):
// patch geometry, per-axis distributions, templates (regular + explicit),
// local storage mapping, and the extract/inject pack kernels.

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>

#include "dad/dist_array.hpp"

namespace dad = mxn::dad;
using dad::AxisDist;
using dad::Descriptor;
using dad::Index;
using dad::Patch;
using dad::Point;

namespace {

Patch patch1(Index lo, Index hi) {
  return Patch::make(1, Point{lo}, Point{hi});
}
Patch patch2(Index lo0, Index hi0, Index lo1, Index hi1) {
  return Patch::make(2, Point{lo0, lo1}, Point{hi0, hi1});
}

}  // namespace

// ---------------------------------------------------------------------------
// Patch geometry
// ---------------------------------------------------------------------------

TEST(Patch, VolumeAndEmptiness) {
  EXPECT_EQ(patch2(0, 4, 0, 5).volume(), 20);
  EXPECT_FALSE(patch2(0, 4, 0, 5).empty());
  EXPECT_TRUE(patch2(2, 2, 0, 5).empty());
}

TEST(Patch, IntersectionBasics) {
  auto a = patch2(0, 10, 0, 10);
  auto b = patch2(5, 15, 3, 8);
  auto c = Patch::intersect(a, b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, patch2(5, 10, 3, 8));
  EXPECT_FALSE(Patch::intersect(patch2(0, 5, 0, 5), patch2(5, 9, 0, 5)));
}

TEST(Patch, OffsetRoundTripRowMajor) {
  auto p = patch2(2, 5, 10, 14);  // 3 x 4
  EXPECT_EQ(p.offset_of(Point{2, 10}), 0);
  EXPECT_EQ(p.offset_of(Point{2, 11}), 1);  // last axis fastest
  EXPECT_EQ(p.offset_of(Point{3, 10}), 4);
  for (Index off = 0; off < p.volume(); ++off)
    EXPECT_EQ(p.offset_of(p.point_at(off)), off);
}

TEST(Patch, ForEachPointVisitsRowMajorOnce) {
  auto p = patch2(0, 2, 0, 3);
  std::vector<Point> visited;
  p.for_each_point([&](const Point& pt) { visited.push_back(pt); });
  ASSERT_EQ(visited.size(), 6u);
  EXPECT_EQ(visited[0], (Point{0, 0}));
  EXPECT_EQ(visited[1], (Point{0, 1}));
  EXPECT_EQ(visited[3], (Point{1, 0}));
}

TEST(Patch, PackUnpackRoundTrip) {
  auto p = Patch::make(3, Point{1, 2, 3}, Point{4, 5, 6});
  mxn::rt::PackBuffer b;
  p.pack(b);
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_EQ(Patch::unpack(u), p);
}

// ---------------------------------------------------------------------------
// Axis distributions
// ---------------------------------------------------------------------------

TEST(AxisDist, BlockSplitsEvenly) {
  auto d = AxisDist::block(10, 3);  // blocks of ceil(10/3)=4: 4,4,2
  EXPECT_EQ(d.local_count(0), 4);
  EXPECT_EQ(d.local_count(1), 4);
  EXPECT_EQ(d.local_count(2), 2);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(3), 0);
  EXPECT_EQ(d.owner(4), 1);
  EXPECT_EQ(d.owner(9), 2);
}

TEST(AxisDist, CyclicDealsRoundRobin) {
  auto d = AxisDist::cyclic(7, 3);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(1), 1);
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.owner(3), 0);
  EXPECT_EQ(d.local_count(0), 3);  // 0,3,6
  EXPECT_EQ(d.local_count(1), 2);
  EXPECT_EQ(d.intervals_of(0).size(), 3u);
}

TEST(AxisDist, BlockCyclicIntermediateBlocks) {
  auto d = AxisDist::block_cyclic(20, 2, 3);
  // blocks: [0,3)p0 [3,6)p1 [6,9)p0 [9,12)p1 [12,15)p0 [15,18)p1 [18,20)p0
  EXPECT_EQ(d.owner(7), 0);
  EXPECT_EQ(d.owner(10), 1);
  EXPECT_EQ(d.local_count(0), 3 + 3 + 3 + 2);
  EXPECT_EQ(d.local_count(1), 9);
  EXPECT_EQ(d.intervals_of(0).back(), (dad::IndexInterval{18, 20}));
}

TEST(AxisDist, GeneralizedBlockUnevenSizes) {
  auto d = AxisDist::generalized_block({5, 0, 7, 3});
  EXPECT_EQ(d.extent(), 15);
  EXPECT_EQ(d.nprocs(), 4);
  EXPECT_EQ(d.owner(4), 0);
  EXPECT_EQ(d.owner(5), 2);  // proc 1 owns nothing
  EXPECT_EQ(d.owner(12), 3);
  EXPECT_TRUE(d.intervals_of(1).empty());
  EXPECT_EQ(d.local_count(2), 7);
}

TEST(AxisDist, ImplicitArbitraryOwners) {
  auto d = AxisDist::implicit({2, 2, 0, 1, 0, 0, 2});
  EXPECT_EQ(d.nprocs(), 3);
  EXPECT_EQ(d.owner(0), 2);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.local_count(0), 3);
  EXPECT_EQ(d.local_count(2), 3);
  // proc 0 owns {2,4,5} -> local offsets 0,1,2
  EXPECT_EQ(d.local_offset(0, 2), 0);
  EXPECT_EQ(d.local_offset(0, 4), 1);
  EXPECT_EQ(d.local_offset(0, 5), 2);
  EXPECT_EQ(d.global_index(0, 1), 4);
}

TEST(AxisDist, ImplicitDescriptorCostIsPerElement) {
  auto implicit = AxisDist::implicit(std::vector<int>(1000, 0), 4);
  auto block = AxisDist::block(1000, 4);
  EXPECT_EQ(implicit.descriptor_entries(), 1000u);
  EXPECT_EQ(block.descriptor_entries(), 0u);
}

TEST(AxisDist, RejectsBadArguments) {
  EXPECT_THROW(AxisDist::block(0, 2), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::block_cyclic(10, 0, 2), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::block_cyclic(10, 2, 0), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::generalized_block({}), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::generalized_block({1, -1}), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::implicit({0, 3}, 2), mxn::rt::UsageError);
  EXPECT_THROW((void)AxisDist::block(10, 2).owner(10), mxn::rt::UsageError);
  EXPECT_THROW((void)AxisDist::block(10, 2).local_offset(0, 7),
               mxn::rt::UsageError);
}

// Property sweep: for every kind, the per-proc intervals partition [0,extent)
// and local_offset/global_index are inverse bijections.
struct AxisCase {
  std::string name;
  AxisDist dist;
};

class AxisPartitionSweep : public ::testing::TestWithParam<AxisCase> {};

TEST_P(AxisPartitionSweep, IntervalsPartitionTheAxis) {
  const auto& d = GetParam().dist;
  std::vector<int> seen(d.extent(), 0);
  for (int p = 0; p < d.nprocs(); ++p) {
    for (const auto& iv : d.intervals_of(p)) {
      for (Index i = iv.lo; i < iv.hi; ++i) {
        ++seen[i];
        EXPECT_EQ(d.owner(i), p);
      }
    }
  }
  for (Index i = 0; i < d.extent(); ++i) EXPECT_EQ(seen[i], 1) << "index " << i;
}

TEST_P(AxisPartitionSweep, LocalGlobalRoundTrip) {
  const auto& d = GetParam().dist;
  for (int p = 0; p < d.nprocs(); ++p) {
    for (Index l = 0; l < d.local_count(p); ++l) {
      const Index g = d.global_index(p, l);
      EXPECT_EQ(d.owner(g), p);
      EXPECT_EQ(d.local_offset(p, g), l);
    }
  }
}

TEST_P(AxisPartitionSweep, SurvivesSerialization) {
  const auto& d = GetParam().dist;
  mxn::rt::PackBuffer b;
  d.pack(b);
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_EQ(AxisDist::unpack(u), d);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AxisPartitionSweep,
    ::testing::Values(
        AxisCase{"collapsed", AxisDist::collapsed(17)},
        AxisCase{"block_even", AxisDist::block(12, 4)},
        AxisCase{"block_ragged", AxisDist::block(13, 4)},
        AxisCase{"block_more_procs", AxisDist::block(3, 5)},
        AxisCase{"cyclic", AxisDist::cyclic(11, 3)},
        AxisCase{"bc2", AxisDist::block_cyclic(29, 3, 2)},
        AxisCase{"bc5", AxisDist::block_cyclic(29, 4, 5)},
        AxisCase{"genblock", AxisDist::generalized_block({4, 9, 0, 4})},
        AxisCase{"implicit",
                 AxisDist::implicit({1, 0, 1, 2, 2, 0, 0, 1, 2, 0})}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

TEST(Descriptor, RegularGridRankLayout) {
  // 2-D: axis0 block over 2 procs, axis1 block over 3 procs -> 6 ranks,
  // rank = coord0*3 + coord1 (row-major).
  auto d = Descriptor::regular(
      {AxisDist::block(4, 2), AxisDist::block(6, 3)});
  EXPECT_EQ(d.nranks(), 6);
  EXPECT_EQ(d.ndim(), 2);
  EXPECT_EQ(d.owner(Point{0, 0}), 0);
  EXPECT_EQ(d.owner(Point{0, 2}), 1);
  EXPECT_EQ(d.owner(Point{0, 4}), 2);
  EXPECT_EQ(d.owner(Point{2, 0}), 3);
  EXPECT_EQ(d.owner(Point{3, 5}), 5);
  for (int r = 0; r < 6; ++r) {
    ASSERT_EQ(d.patches_of(r).size(), 1u);
    EXPECT_EQ(d.local_volume(r), 4);
  }
}

TEST(Descriptor, CollapsedAxisKeepsAxisOnOneProc) {
  auto d = Descriptor::regular(
      {AxisDist::block(8, 4), AxisDist::collapsed(10)});
  EXPECT_EQ(d.nranks(), 4);
  EXPECT_EQ(d.patches_of(0)[0], patch2(0, 2, 0, 10));
}

TEST(Descriptor, CyclicAxisProducesManyPatches) {
  auto d = Descriptor::regular({AxisDist::cyclic(8, 2)});
  EXPECT_EQ(d.patches_of(0).size(), 4u);
  EXPECT_EQ(d.patches_of(1).size(), 4u);
  EXPECT_EQ(d.local_volume(0), 4);
}

TEST(Descriptor, ExplicitPatchesQuadrants) {
  std::vector<dad::OwnedPatch> ps = {
      {patch2(0, 2, 0, 3), 0},
      {patch2(0, 2, 3, 6), 1},
      {patch2(2, 4, 0, 3), 2},
      {patch2(2, 4, 3, 6), 3},
  };
  auto d = Descriptor::explicit_patches(2, Point{4, 6}, ps, 4);
  EXPECT_TRUE(d.is_explicit());
  EXPECT_EQ(d.owner(Point{1, 2}), 0);
  EXPECT_EQ(d.owner(Point{3, 3}), 3);
  EXPECT_EQ(d.local_volume(1), 6);
  EXPECT_EQ(d.descriptor_entries(), 4u);
}

TEST(Descriptor, ExplicitRejectsOverlap) {
  std::vector<dad::OwnedPatch> ps = {
      {patch1(0, 6), 0},
      {patch1(5, 10), 1},
  };
  EXPECT_THROW(Descriptor::explicit_patches(1, Point{10}, ps, 2),
               mxn::rt::UsageError);
}

TEST(Descriptor, ExplicitRejectsGaps) {
  std::vector<dad::OwnedPatch> ps = {
      {patch1(0, 4), 0},
      {patch1(5, 10), 1},  // index 4 uncovered
  };
  EXPECT_THROW(Descriptor::explicit_patches(1, Point{10}, ps, 2),
               mxn::rt::UsageError);
}

TEST(Descriptor, ExplicitRejectsOutOfBoundsAndBadOwner) {
  EXPECT_THROW(Descriptor::explicit_patches(
                   1, Point{10}, {{patch1(0, 11), 0}}, 1),
               mxn::rt::UsageError);
  EXPECT_THROW(Descriptor::explicit_patches(
                   1, Point{10}, {{patch1(0, 10), 3}}, 2),
               mxn::rt::UsageError);
}

TEST(Descriptor, SameShapeIgnoresDistribution) {
  auto a = Descriptor::regular({AxisDist::block(12, 3)});
  auto b = Descriptor::regular({AxisDist::cyclic(12, 4)});
  auto c = Descriptor::regular({AxisDist::block(13, 3)});
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Descriptor, EqualityIsStructural) {
  auto a = Descriptor::regular({AxisDist::block(12, 3)});
  auto b = Descriptor::regular({AxisDist::block(12, 3)});
  auto c = Descriptor::regular({AxisDist::block_cyclic(12, 3, 2)});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

struct DescriptorCase {
  std::string name;
  std::shared_ptr<const Descriptor> desc;
};

DescriptorCase make_case(std::string name, Descriptor d) {
  return {std::move(name),
          std::make_shared<const Descriptor>(std::move(d))};
}

class DescriptorSweep : public ::testing::TestWithParam<DescriptorCase> {};

// Property: the rank patch lists exactly cover the global index space and
// agree with owner().
TEST_P(DescriptorSweep, PatchesExactlyCoverIndexSpace) {
  const auto& d = *GetParam().desc;
  std::map<std::vector<Index>, int> cover;
  Index total = 0;
  for (int r = 0; r < d.nranks(); ++r) {
    for (const auto& p : d.patches_of(r)) {
      p.for_each_point([&](const Point& pt) {
        std::vector<Index> key(pt.begin(), pt.begin() + d.ndim());
        auto [it, inserted] = cover.emplace(key, r);
        EXPECT_TRUE(inserted) << "point covered twice";
        EXPECT_EQ(d.owner(pt), r);
        ++total;
      });
    }
    EXPECT_EQ(d.local_volume(r),
              static_cast<Index>(d.patches_of(r).size()
                                     ? std::accumulate(
                                           d.patches_of(r).begin(),
                                           d.patches_of(r).end(), Index{0},
                                           [](Index acc, const Patch& p) {
                                             return acc + p.volume();
                                           })
                                     : 0));
  }
  EXPECT_EQ(total, d.total_volume());
}

// Property: global_to_local / local_to_global are inverse bijections onto
// [0, local_volume).
TEST_P(DescriptorSweep, LocalStorageMappingIsBijective) {
  const auto& d = *GetParam().desc;
  for (int r = 0; r < d.nranks(); ++r) {
    std::set<Index> offsets;
    for (const auto& p : d.patches_of(r)) {
      p.for_each_point([&](const Point& pt) {
        const Index off = d.global_to_local(r, pt);
        EXPECT_GE(off, 0);
        EXPECT_LT(off, d.local_volume(r));
        EXPECT_TRUE(offsets.insert(off).second);
        EXPECT_EQ(d.local_to_global(r, off), pt);
      });
    }
  }
}

TEST_P(DescriptorSweep, SurvivesSerialization) {
  const auto& d = *GetParam().desc;
  mxn::rt::PackBuffer b;
  d.pack(b);
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_TRUE(Descriptor::unpack(u) == d);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DescriptorSweep,
    ::testing::Values(
        make_case("block1d",
                  Descriptor::regular({AxisDist::block(23, 4)})),
        make_case("cyclic1d",
                  Descriptor::regular({AxisDist::cyclic(17, 3)})),
        make_case("bc2d",
                  Descriptor::regular({AxisDist::block_cyclic(12, 2, 2),
                                       AxisDist::cyclic(9, 3)})),
        make_case("gen2d",
                  Descriptor::regular(
                      {AxisDist::generalized_block({3, 0, 5}),
                       AxisDist::block(7, 2)})),
        make_case("implicit1d",
                  Descriptor::regular({AxisDist::implicit(
                      {0, 1, 0, 2, 2, 1, 0, 0, 1, 2, 2, 0})})),
        make_case("collapsed3d",
                  Descriptor::regular({AxisDist::block(6, 2),
                                       AxisDist::collapsed(5),
                                       AxisDist::cyclic(4, 2)})),
        make_case("explicit2d",
                  Descriptor::explicit_patches(
                      2, Point{6, 6},
                      {{patch2(0, 3, 0, 6), 0},
                       {patch2(3, 6, 0, 2), 1},
                       {patch2(3, 6, 2, 6), 2}},
                      3))),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Patch location: patch_containing / global_to_local against a linear scan
// ---------------------------------------------------------------------------

namespace {

using Rng = std::mt19937;

Index rand_index(Rng& rng, Index lo, Index hi) {  // inclusive
  return std::uniform_int_distribution<Index>(lo, hi)(rng);
}

// Reference: the first owned patch of `rank` containing `region`, or -1.
std::ptrdiff_t scan_patch(const Descriptor& d, int rank, const Patch& region) {
  const auto& patches = d.patches_of(rank);
  for (std::size_t i = 0; i < patches.size(); ++i)
    if (patches[i].contains(region)) return static_cast<std::ptrdiff_t>(i);
  return -1;
}

// Reference: storage offset of `p` on `rank`, or -1 when `rank` does not
// own it.
Index scan_local(const Descriptor& d, int rank, const Point& p) {
  const auto& patches = d.patches_of(rank);
  for (std::size_t i = 0; i < patches.size(); ++i)
    if (patches[i].contains(p))
      return d.patch_base(rank, i) + patches[i].offset_of(p);
  return -1;
}

// Axis kinds in the order the sweep rotates through them.
enum class Kind { Collapsed, Block, Cyclic, BlockCyclic, GenBlock, Implicit };
constexpr int kKinds = 6;

AxisDist make_axis(Rng& rng, Kind kind, Index extent, int nprocs) {
  switch (kind) {
    case Kind::Collapsed: return AxisDist::collapsed(extent);
    case Kind::Block: return AxisDist::block(extent, nprocs);
    case Kind::Cyclic: return AxisDist::cyclic(extent, nprocs);
    case Kind::BlockCyclic:
      return AxisDist::block_cyclic(extent, nprocs,
                                    rand_index(rng, 1, extent / 2 + 1));
    case Kind::GenBlock: {
      // Random sizes summing to extent; some coordinates may own nothing.
      std::vector<Index> sizes(static_cast<std::size_t>(nprocs), 0);
      for (Index i = 0; i < extent; ++i)
        ++sizes[static_cast<std::size_t>(rand_index(rng, 0, nprocs - 1))];
      return AxisDist::generalized_block(std::move(sizes));
    }
    case Kind::Implicit: {
      std::vector<int> owners(static_cast<std::size_t>(extent));
      for (auto& o : owners) o = static_cast<int>(rand_index(rng, 0, nprocs - 1));
      return AxisDist::implicit(std::move(owners), nprocs);
    }
  }
  return AxisDist::collapsed(extent);
}

// Regular template whose axis a has kind (first + a) mod kKinds over a
// random 1..3-coordinate grid axis (a collapsed axis gets one coordinate).
Descriptor lookup_regular(Rng& rng, int first, int ndim) {
  static constexpr Index kExtents[4][4] = {
      {37}, {13, 11}, {7, 9, 6}, {5, 6, 4, 7}};
  std::vector<AxisDist> axes;
  for (int a = 0; a < ndim; ++a) {
    const auto kind = static_cast<Kind>((first + a) % kKinds);
    const int nprocs =
        kind == Kind::Collapsed ? 1 : static_cast<int>(rand_index(rng, 1, 3));
    axes.push_back(make_axis(rng, kind, kExtents[ndim - 1][a], nprocs));
  }
  return Descriptor::regular(std::move(axes));
}

// Explicit template with the regular one's patches and shuffled owners.
Descriptor lookup_explicit_from(Rng& rng, const Descriptor& reg) {
  std::vector<int> perm(static_cast<std::size_t>(reg.nranks()));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<dad::OwnedPatch> patches;
  for (int r = 0; r < reg.nranks(); ++r)
    for (const auto& p : reg.patches_of(r))
      patches.push_back({p, perm[static_cast<std::size_t>(r)]});
  std::shuffle(patches.begin(), patches.end(), rng);
  return Descriptor::explicit_patches(reg.ndim(), reg.extents(),
                                      std::move(patches), reg.nranks());
}

// Explicit template from random guillotine cuts: patches of uneven sizes
// whose lo[0] values do not line up, owned by random ranks.
Descriptor lookup_guillotine(Rng& rng, int ndim, const Point& extents,
                             int nranks) {
  std::vector<Patch> todo{Patch::make(ndim, Point{}, extents)};
  std::vector<dad::OwnedPatch> out;
  while (!todo.empty()) {
    Patch p = todo.back();
    todo.pop_back();
    const int a = static_cast<int>(rand_index(rng, 0, ndim - 1));
    if (p.extent(a) < 2 || rand_index(rng, 0, 4) == 0) {
      out.push_back({p, static_cast<int>(rand_index(rng, 0, nranks - 1))});
      continue;
    }
    const Index cut = rand_index(rng, p.lo[a] + 1, p.hi[a] - 1);
    Patch left = p, right = p;
    left.hi[a] = cut;
    right.lo[a] = cut;
    todo.push_back(left);
    todo.push_back(right);
  }
  return Descriptor::explicit_patches(ndim, extents, std::move(out), nranks);
}

Patch random_subregion(Rng& rng, const Patch& p) {
  Patch r = p;
  for (int a = 0; a < p.ndim; ++a) {
    r.lo[a] = rand_index(rng, p.lo[a], p.hi[a] - 1);
    r.hi[a] = rand_index(rng, r.lo[a] + 1, p.hi[a]);
  }
  return r;
}

void expect_lookup_matches_scan(const Descriptor& d, Rng& rng) {
  const Patch whole = Patch::make(d.ndim(), Point{}, d.extents());
  for (int r = 0; r < d.nranks(); ++r) {
    const auto& patches = d.patches_of(r);
    // Every owned patch, random sub-regions of it, and the patch grown by
    // one index along each axis (which straddles into a neighbour or out of
    // the template, so no single owned patch contains it).
    for (std::size_t i = 0; i < patches.size(); ++i) {
      EXPECT_EQ(d.patch_containing(r, patches[i]), i) << d.to_string();
      for (int k = 0; k < 3; ++k) {
        const Patch sub = random_subregion(rng, patches[i]);
        EXPECT_EQ(d.patch_containing(r, sub), i) << sub.to_string();
      }
      for (int a = 0; a < d.ndim(); ++a) {
        Patch grown = patches[i];
        ++grown.hi[a];
        EXPECT_THROW((void)d.patch_containing(r, grown), mxn::rt::UsageError)
            << grown.to_string();
        grown = patches[i];
        --grown.lo[a];
        EXPECT_THROW((void)d.patch_containing(r, grown), mxn::rt::UsageError)
            << grown.to_string();
      }
    }
    // Regions another rank owns.
    const int other = (r + 1) % d.nranks();
    if (other != r) {
      for (const auto& p : d.patches_of(other))
        EXPECT_THROW((void)d.patch_containing(r, p), mxn::rt::UsageError)
            << p.to_string();
    }
    // Random regions and points anywhere in the template.
    for (int k = 0; k < 48; ++k) {
      const Patch region = random_subregion(rng, whole);
      const std::ptrdiff_t want = scan_patch(d, r, region);
      if (want < 0) {
        EXPECT_THROW((void)d.patch_containing(r, region), mxn::rt::UsageError)
            << region.to_string();
      } else {
        EXPECT_EQ(d.patch_containing(r, region),
                  static_cast<std::size_t>(want))
            << region.to_string();
      }

      Point p{};
      for (int a = 0; a < d.ndim(); ++a)
        p[a] = rand_index(rng, 0, d.extent(a) - 1);
      const Index off = scan_local(d, r, p);
      if (off < 0) {
        EXPECT_THROW((void)d.global_to_local(r, p), mxn::rt::UsageError);
      } else {
        EXPECT_EQ(d.global_to_local(r, p), off);
      }
    }
  }
}

}  // namespace

TEST(PatchLookup, RegularMatchesLinearScanEveryKindAndDim) {
  Rng rng(20261017);
  for (int first = 0; first < kKinds; ++first)
    for (int ndim = 1; ndim <= dad::kMaxNdim; ++ndim)
      for (int grid = 0; grid < 3; ++grid) {
        SCOPED_TRACE("first kind " + std::to_string(first) + ", ndim " +
                     std::to_string(ndim) + ", grid " + std::to_string(grid));
        expect_lookup_matches_scan(lookup_regular(rng, first, ndim), rng);
      }
}

TEST(PatchLookup, ExplicitMatchesLinearScan) {
  Rng rng(7);
  for (int first = 0; first < kKinds; ++first)
    for (int ndim = 1; ndim <= dad::kMaxNdim; ++ndim) {
      SCOPED_TRACE("first kind " + std::to_string(first) + ", ndim " +
                   std::to_string(ndim));
      const Descriptor reg = lookup_regular(rng, first, ndim);
      expect_lookup_matches_scan(lookup_explicit_from(rng, reg), rng);
      expect_lookup_matches_scan(
          lookup_guillotine(rng, ndim, reg.extents(),
                            static_cast<int>(rand_index(rng, 1, 5))),
          rng);
    }
}

TEST(PatchLookup, RegularLookupSpansManyPatches) {
  // 2 -> 2 column-cyclic over 1024 columns: 512 patches per rank, the shape
  // whose per-region lookup used to grow with the column count.
  const auto d = Descriptor::regular(
      {AxisDist::collapsed(8), AxisDist::cyclic(1024, 2)});
  ASSERT_EQ(d.patches_of(1).size(), 512u);
  for (std::size_t i = 0; i < 512; ++i) {
    const Index col = static_cast<Index>(2 * i + 1);
    EXPECT_EQ(d.patch_containing(1, patch2(2, 5, col, col + 1)), i);
    EXPECT_EQ(d.global_to_local(1, Point{3, col}),
              static_cast<Index>(8 * i + 3));
  }
  EXPECT_THROW((void)d.patch_containing(1, patch2(0, 8, 1, 3)),
               mxn::rt::UsageError);
  EXPECT_THROW((void)d.global_to_local(1, Point{0, 2}), mxn::rt::UsageError);
}

// ---------------------------------------------------------------------------
// DistArray
// ---------------------------------------------------------------------------

TEST(DistArray, FillAndAtAgree) {
  auto d = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(6, 2), AxisDist::cyclic(6, 3)});
  for (int r = 0; r < d->nranks(); ++r) {
    dad::DistArray<double> a(d, r);
    a.fill([](const Point& p) { return 100.0 * p[0] + p[1]; });
    for (const auto& patch : d->patches_of(r)) {
      patch.for_each_point([&](const Point& pt) {
        EXPECT_DOUBLE_EQ(a.at(pt), 100.0 * pt[0] + pt[1]);
      });
    }
  }
}

TEST(DistArray, ExtractInjectRoundTrip) {
  auto d = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(8, 2), AxisDist::block(8, 2)});
  dad::DistArray<int> a(d, 0);
  a.fill([](const Point& p) { return static_cast<int>(10 * p[0] + p[1]); });

  // Region inside rank 0's patch [0,4)x[0,4).
  auto region = patch2(1, 3, 1, 4);
  auto vals = a.extract(region);
  ASSERT_EQ(vals.size(), 6u);
  // Row-major region order: (1,1),(1,2),(1,3),(2,1),(2,2),(2,3)
  EXPECT_EQ(vals[0], 11);
  EXPECT_EQ(vals[2], 13);
  EXPECT_EQ(vals[3], 21);

  // Zero the region then inject back.
  std::vector<int> zeros(6, 0);
  a.inject(region, zeros.data());
  EXPECT_EQ(a.at(Point{1, 1}), 0);
  a.inject(region, vals.data());
  EXPECT_EQ(a.at(Point{1, 1}), 11);
  EXPECT_EQ(a.at(Point{2, 3}), 23);
}

TEST(DistArray, ExtractRejectsRegionSpanningPatches) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(8, 2)});
  dad::DistArray<int> a(d, 0);
  // Rank 0 owns {0,2,4,6}: region [0,3) spans two owned patches.
  EXPECT_THROW(a.extract(patch1(0, 3)), mxn::rt::UsageError);
}

TEST(DistArray, LocalSpanMatchesVolume) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(10, 3)});
  dad::DistArray<float> a(d, 2);
  EXPECT_EQ(a.local().size(), static_cast<std::size_t>(d->local_volume(2)));
}
