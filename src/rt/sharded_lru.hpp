#pragma once

#include <atomic>
#include <cstddef>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace mxn::rt {

/// Sizing of a ShardedLru. The defaults (one shard, no bounds) keep every
/// entry until clear() or erase_if(). A finite budget is a hard bound: each
/// shard holds at most its floor share of either budget, so size() <=
/// max_entries and bytes() <= max_bytes after every insert (a budget below
/// one entry per shard caches nothing; lookups still return valid handles).
struct LruBudget {
  std::size_t shards = 1;       // rounded up to a power of two
  std::size_t max_entries = 0;  // total entry cap, 0 = unbounded
  std::size_t max_bytes = 0;    // total byte budget, 0 = unbounded
};

/// How get_or_build resolved a lookup. Race: another thread inserted the key
/// while this one was building, so this build was discarded — neither a hit
/// (this caller paid for a build) nor a miss (its build is not the cached
/// one). Counting races apart keeps hits + misses + races == lookups exact.
enum class LruOutcome { Hit, Miss, Race };

/// Exact tallies of one kind of lookup, each outcome mirrored to a counter.
struct LruTally {
  trace::Counter& hit_count;
  trace::Counter& miss_count;
  trace::Counter& race_count;
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> misses{0};
  std::atomic<std::size_t> races{0};

  void count(LruOutcome o) {
    switch (o) {
      case LruOutcome::Hit:
        hits.fetch_add(1);
        hit_count.add(1);
        break;
      case LruOutcome::Miss:
        misses.fetch_add(1);
        miss_count.add(1);
        break;
      case LruOutcome::Race:
        races.fetch_add(1);
        race_count.add(1);
        break;
    }
  }
  void reset() {
    hits.store(0);
    misses.store(0);
    races.store(0);
  }
};

/// A sharded, budgeted, least-recently-used cache of immutable values,
/// handed out only as shared handles that alias the cached entry (a hit
/// allocates nothing). The caller supplies each key's hash and a predicate
/// recognising the key in a stored Value, so a Value carries its own key
/// and a probe never copies one. Value must provide `std::size_t
/// byte_size() const` (payload bytes; the entry header is added on top).
///
/// Each shard (picked by the low hash bits) has its own mutex, hash index
/// and LRU list, so lookups contend only within a shard. Eviction drops the
/// cache's reference only: a handle keeps its value alive while held.
template <typename Value>
class ShardedLru {
 public:
  using Handle = std::shared_ptr<const Value>;
  struct Lookup {
    Handle value;
    LruOutcome outcome;
  };

  /// `evicted` is bumped once per entry dropped to stay within budget.
  explicit ShardedLru(trace::Counter& evicted, const LruBudget& budget = {})
      : evicted_count_(&evicted) {
    configure(budget);
  }

  /// Re-shard and re-budget, redistributing existing entries with their
  /// relative LRU order kept (then evicting to the new budget). Not safe
  /// against concurrent lookups.
  void configure(const LruBudget& budget) {
    std::vector<EntryPtr> survivors;  // oldest first
    for (auto& s : shards_)
      for (auto it = s->lru.rbegin(); it != s->lru.rend(); ++it)
        survivors.push_back(std::move(*it));
    budget_ = budget;
    budget_.shards = 1;
    while (budget_.shards < budget.shards) budget_.shards <<= 1;
    shards_.clear();
    for (std::size_t i = 0; i < budget_.shards; ++i)
      shards_.push_back(std::make_unique<Shard>());
    for (auto& e : survivors) {
      Shard& sh = shard_for(e->hash);
      link(sh, std::move(e));
      evict_over_budget(sh);
    }
  }

  /// Return the value whose key `match`es, building it on a miss. The probe
  /// runs under the shard lock; `build()` (returning a Value) runs outside
  /// it, so a build may itself look up this cache and builds never
  /// serialize. The first insert wins. `touch(Value&)` runs under the shard
  /// lock on the returned entry, whatever the outcome.
  template <typename Match, typename Build, typename Touch>
  Lookup get_or_build(std::size_t hash, const Match& match,
                      const Build& build, const Touch& touch) {
    Shard& sh = shard_for(hash);
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      if (EntryPtr e = find(sh, hash, match, touch))
        return {alias(std::move(e)), LruOutcome::Hit};
    }
    auto fresh = std::make_shared<Entry>(hash, 0, build());
    fresh->bytes = sizeof(Entry) + fresh->value.byte_size();
    std::lock_guard<std::mutex> lk(sh.mu);
    if (EntryPtr e = find(sh, hash, match, touch))
      return {alias(std::move(e)), LruOutcome::Race};
    touch(fresh->value);
    link(sh, fresh);
    evict_over_budget(sh);
    return {alias(std::move(fresh)), LruOutcome::Miss};
  }

  /// Drop every entry for which `pred(const Value&)` holds; returns how many.
  template <typename Pred>
  std::size_t erase_if(const Pred& pred) {
    std::size_t n = 0;
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      for (auto it = s->lru.begin(); it != s->lru.end();) {
        if (pred(std::as_const((*it)->value))) {
          it = unlink(*s, it);
          ++n;
        } else {
          ++it;
        }
      }
    }
    return n;
  }

  /// Visit every entry as f(hash, const Value&), each shard under its lock.
  template <typename F>
  void for_each(const F& f) const {
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      for (const auto& e : s->lru) f(e->hash, std::as_const(e->value));
    }
  }

  /// Drop every entry and reset the eviction tally.
  void clear() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      s->index.clear();
      s->lru.clear();
      s->bytes = 0;
    }
    evicted_.store(0);
  }

  [[nodiscard]] std::size_t size() const {
    return sum([](const Shard& s) { return s.lru.size(); });
  }
  /// Resident bytes: entry headers plus each value's byte_size().
  [[nodiscard]] std::size_t bytes() const {
    return sum([](const Shard& s) { return s.bytes; });
  }
  [[nodiscard]] std::size_t evicted() const { return evicted_.load(); }

 private:
  struct Entry {
    std::size_t hash;
    std::size_t bytes;
    Value value;
  };
  using EntryPtr = std::shared_ptr<Entry>;
  using LruList = std::list<EntryPtr>;  // front = most recently used

  struct Shard {
    mutable std::mutex mu;
    LruList lru;
    std::unordered_multimap<std::size_t, typename LruList::iterator> index;
    std::size_t bytes = 0;
  };

  static Handle alias(EntryPtr e) {
    const Value* v = &e->value;
    return Handle(std::move(e), v);
  }

  Shard& shard_for(std::size_t hash) {
    return *shards_[hash & (budget_.shards - 1)];
  }

  template <typename F>
  std::size_t sum(const F& f) const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      n += f(*s);
    }
    return n;
  }

  // The helpers below run under sh.mu (or with exclusive access, as in
  // configure). A found entry moves to the warm end and is touched.
  template <typename Match, typename Touch>
  EntryPtr find(Shard& sh, std::size_t hash, const Match& match,
                const Touch& touch) {
    auto [lo, hi] = sh.index.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      Entry& e = **it->second;
      if (!match(std::as_const(e.value))) continue;
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      touch(e.value);
      return *it->second;
    }
    return nullptr;
  }

  void link(Shard& sh, EntryPtr e) {
    const std::size_t hash = e->hash;
    sh.bytes += e->bytes;
    sh.lru.push_front(std::move(e));
    sh.index.emplace(hash, sh.lru.begin());
  }

  typename LruList::iterator unlink(Shard& sh,
                                    typename LruList::iterator it) {
    auto slot = sh.index.equal_range((*it)->hash).first;
    while (slot->second != it) ++slot;  // every entry has exactly one slot
    sh.index.erase(slot);
    sh.bytes -= (*it)->bytes;
    return sh.lru.erase(it);
  }

  void evict_over_budget(Shard& sh) {
    const std::size_t cap_entries = budget_.max_entries / budget_.shards;
    const std::size_t cap_bytes = budget_.max_bytes / budget_.shards;
    while (!sh.lru.empty() &&
           ((budget_.max_entries && sh.lru.size() > cap_entries) ||
            (budget_.max_bytes && sh.bytes > cap_bytes))) {
      unlink(sh, std::prev(sh.lru.end()));
      evicted_.fetch_add(1);
      evicted_count_->add(1);
    }
  }

  LruBudget budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> evicted_{0};
  trace::Counter* evicted_count_;
};

}  // namespace mxn::rt
