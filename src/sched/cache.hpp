#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "rt/sharded_lru.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace mxn::sched {

/// Per-process cache of region schedules keyed by (source template,
/// destination template, roles). Communication schedules can be expensive to
/// calculate (paper §2.3); because schedules are a function of templates —
/// not of the actual arrays aligned to them — one cached schedule serves
/// every conforming array and every repeat transfer.
///
/// Storage is an rt::ShardedLru keyed by a structural hash of the key; the
/// structural same_desc comparison runs only on hash collisions. The default
/// budget (one shard, no bounds) keeps every entry until clear() or epoch
/// retirement; a multi-tenant fabric serving thousands of couplings
/// configures shards (lock spreading) and budgets (bounded memory, evicting
/// least-recently-used entries and bumping `sched.cache.evicted`). get()
/// returns a shared handle that pins its schedule across eviction and
/// retirement. hits()/misses()/races() stay exact (atomic tallies).
class ScheduleCache {
 public:
  ScheduleCache() : ScheduleCache(rt::LruBudget{}) {}
  explicit ScheduleCache(const rt::LruBudget& budget)
      : lru_(trace::counter("sched.cache.evicted"), budget),
        tally_{trace::counter("sched.cache.hits"),
               trace::counter("sched.cache.misses"),
               trace::counter("sched.cache.races")} {}

  /// Re-shard and re-budget, redistributing any existing entries (their
  /// handles stay valid). Not safe against concurrent get().
  void configure(const rt::LruBudget& budget) { lru_.configure(budget); }

  /// Look up or build the schedule for this rank's roles. The handle pins
  /// the schedule across eviction and epoch retirement. A hit allocates
  /// nothing: the handle aliases the cached entry.
  std::shared_ptr<const RegionSchedule> get(const dad::DescriptorPtr& src,
                                            const dad::DescriptorPtr& dst,
                                            int my_src_rank,
                                            int my_dst_rank) {
    auto [e, outcome] = lru_.get_or_build(
        key_hash(*src, *dst, my_src_rank, my_dst_rank),
        [&](const Entry& x) {
          return x.my_src == my_src_rank && x.my_dst == my_dst_rank &&
                 same_desc(x.src, src) && same_desc(x.dst, dst);
        },
        [&] {
          const std::int64_t t0 = trace::now_ns();
          Entry built{src, dst, my_src_rank, my_dst_rank,
                      build_region_schedule(*src, *dst, my_src_rank,
                                            my_dst_rank)};
          built.build_ns = trace::now_ns() - t0;
          return built;
        },
        // A returned entry is re-stamped with the current epoch, so an entry
        // still in use survives retire_epochs_before.
        [this](Entry& x) { x.epoch = epoch_.load(); });
    tally_.count(outcome);
    if (outcome != rt::LruOutcome::Race)
      trace::instant(outcome == rt::LruOutcome::Hit ? "sched.cache.hit"
                                                     : "sched.cache.miss",
                     "sched");
    const RegionSchedule* s = &e->sched;
    return {std::move(e), s};
  }

  [[nodiscard]] std::size_t hits() const { return tally_.hits.load(); }
  [[nodiscard]] std::size_t misses() const { return tally_.misses.load(); }
  /// Lookups that lost a concurrent build race (neither hits nor misses).
  [[nodiscard]] std::size_t races() const { return tally_.races.load(); }
  [[nodiscard]] std::size_t evicted() const { return lru_.evicted(); }
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  /// Total resident bytes across shards (entry structs + schedule payload).
  [[nodiscard]] std::size_t bytes() const { return lru_.bytes(); }

  /// Drop every entry and reset the hit/miss/race/eviction tallies: a
  /// cleared cache reports a clean slate, not rates against entries that no
  /// longer exist. Callers wanting the lifetime numbers snapshot stats()
  /// first.
  void clear() {
    lru_.clear();
    tally_.reset();
  }

  /// Rescale-epoch lifecycle (docs/RESCALING.md): entries built from here on
  /// are stamped with `e`; retire_epochs_before(e) then drops every entry of
  /// an older generation. An elastic component advances the epoch at the
  /// start of a rescale, rebuilds its connections' schedules (fresh entries,
  /// fresh pins), and only then retires the old generation — so no live
  /// schedule handle ever dangles.
  void set_epoch(std::uint64_t e) { epoch_.store(e); }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_.load(); }

  /// Drop entries stamped with an epoch < `e`; returns how many. Handles to
  /// the dropped schedules stay valid.
  std::size_t retire_epochs_before(std::uint64_t e) {
    const std::size_t n =
        lru_.erase_if([e](const Entry& x) { return x.epoch < e; });
    static trace::Counter& retired = trace::counter("sched.cache.retired");
    retired.add(n);
    return n;
  }

  /// Per-entry build cost, for sizing the cache's payoff: an entry that took
  /// `build_ns` to construct saves that much on every subsequent hit.
  struct EntryStats {
    std::size_t key_hash = 0;
    int my_src = -1;
    int my_dst = -1;
    std::int64_t build_ns = 0;
    std::size_t messages = 0;
  };
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t races = 0;
    std::size_t evicted = 0;
    std::size_t bytes = 0;
    std::int64_t total_build_ns = 0;
    std::vector<EntryStats> entries;
  };

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.hits = hits();
    s.misses = misses();
    s.races = races();
    s.evicted = lru_.evicted();
    s.bytes = lru_.bytes();
    lru_.for_each([&s](std::size_t key, const Entry& e) {
      s.entries.push_back(
          {key, e.my_src, e.my_dst, e.build_ns, e.sched.message_count()});
      s.total_build_ns += e.build_ns;
    });
    return s;
  }

 private:
  struct Entry {
    dad::DescriptorPtr src, dst;
    int my_src = -1, my_dst = -1;
    RegionSchedule sched;
    std::int64_t build_ns = 0;
    std::uint64_t epoch = 0;

    [[nodiscard]] std::size_t byte_size() const { return sched.byte_size(); }
  };

  static bool same_desc(const dad::DescriptorPtr& a,
                        const dad::DescriptorPtr& b) {
    return a == b || *a == *b;  // pointer fast path, then structural
  }

  static std::size_t key_hash(const dad::Descriptor& src,
                              const dad::Descriptor& dst, int my_src,
                              int my_dst) {
    std::size_t h = src.structural_hash();
    h = h * 1099511628211ull + dst.structural_hash();
    h = h * 1099511628211ull + static_cast<std::size_t>(my_src + 1);
    h = h * 1099511628211ull + static_cast<std::size_t>(my_dst + 1);
    return h;
  }

  rt::ShardedLru<Entry> lru_;
  rt::LruTally tally_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace mxn::sched
