// Tests for the iosrv cache-replacement policies: the BlockKeyHash
// collision regression, hand-computed ARC traces (including the
// write-aware deviations documented in cache_policy.hpp), and the
// dirty-pinning / eviction-listener contracts shared with LRU.
#include "iosrv/cache_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "simkit/rng.hpp"

namespace {

iosrv::BlockKey key(std::uint64_t f, std::uint64_t b) { return {f, b}; }

// The historical hash was `(file << 40) ^ block`: (f, 0) and
// (0, f << 40) collided outright for every f < 2^24, so a server
// touching many files at block 0 chained every entry into one bucket.
// The two-round splitmix replacement must keep that family distinct.
TEST(BlockKeyHash, HistoricalShiftXorFamilyStaysDistinct) {
  iosrv::BlockKeyHash h;
  std::unordered_set<std::size_t> seen;
  constexpr std::uint64_t kFiles = 4096;
  for (std::uint64_t f = 1; f <= kFiles; ++f) {
    seen.insert(h(key(f, 0)));
    seen.insert(h(key(0, f << 40)));
  }
  EXPECT_EQ(seen.size(), 2 * kFiles);
}

TEST(BlockKeyHash, SequentialBlocksOfOneFileStayDistinct) {
  iosrv::BlockKeyHash h;
  std::unordered_set<std::size_t> seen;
  for (std::uint64_t b = 0; b < 4096; ++b) seen.insert(h(key(9, b)));
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(MakePolicy, FactoryReturnsRequestedPolicy) {
  EXPECT_EQ(iosrv::make_policy(iosrv::PolicyKind::kLru, 4)->name(), "lru");
  EXPECT_EQ(iosrv::make_policy(iosrv::PolicyKind::kArc, 4)->name(), "arc");
}

// ------------------------------------------------------------------ ARC --

// Hand-computed trace at capacity 2 covering the textbook moves: T1
// insert, read-hit promotion to T2, demotion to B1, ghost adaptation of
// p (twice: once from lookup, once from the re-insert), and B2 demotion
// when the ghost re-enters T2.
TEST(ArcPolicy, HandTraceAtCapacityTwo) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), false));
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_EQ(arc.t1_size(), 2u);

  // Clean inserts carry a read reference, so the first hit proves reuse.
  EXPECT_TRUE(arc.lookup(key(1, 1)));
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);

  // Capacity forces T1's LRU (block 2) into the B1 ghost list.
  EXPECT_TRUE(arc.insert(key(1, 3), false));
  EXPECT_FALSE(arc.contains(key(1, 2)));
  EXPECT_EQ(arc.b1_size(), 1u);
  EXPECT_EQ(arc.evictions(), 1u);

  // Ghost lookup: a miss, but it steers p toward T1 (B1: +1).
  EXPECT_FALSE(arc.lookup(key(1, 2)));
  EXPECT_DOUBLE_EQ(arc.p(), 1.0);

  // Re-materializing the ghost adapts again (+1, saturating at c) and
  // lands the block in T2, demoting T2's LRU (block 1) to B2.
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_DOUBLE_EQ(arc.p(), 2.0);
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);
  EXPECT_EQ(arc.b1_size(), 0u);
  EXPECT_EQ(arc.b2_size(), 1u);
  EXPECT_TRUE(arc.contains(key(1, 2)));
  EXPECT_TRUE(arc.contains(key(1, 3)));
  EXPECT_FALSE(arc.contains(key(1, 1)));
  EXPECT_EQ(arc.hits(), 1u);
  EXPECT_EQ(arc.misses(), 1u);
}

// Write-aware rule 1: dirty inserts never earn frequency.  A dirty
// refresh stays in its list, the FIRST read hit only refreshes (the
// stream draining its own write-behind data), and T2 membership takes a
// second read reference.
TEST(ArcPolicy, DirtyInsertTakesTwoReadHitsToReachT2) {
  iosrv::ArcPolicy arc(4);
  EXPECT_TRUE(arc.insert(key(7, 1), true));
  EXPECT_TRUE(arc.insert(key(7, 1), true));  // absorbed rewrite
  EXPECT_EQ(arc.t2_size(), 0u);

  EXPECT_TRUE(arc.lookup(key(7, 1)));  // first read: refresh only
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 0u);

  EXPECT_TRUE(arc.lookup(key(7, 1)));  // second read: proven reuse
  EXPECT_EQ(arc.t1_size(), 0u);
  EXPECT_EQ(arc.t2_size(), 1u);
}

TEST(ArcPolicy, CleanInsertPromotesOnFirstReadHit) {
  iosrv::ArcPolicy arc(4);
  EXPECT_TRUE(arc.insert(key(7, 1), false));
  EXPECT_TRUE(arc.lookup(key(7, 1)));
  EXPECT_EQ(arc.t2_size(), 1u);
}

// Write-aware rule 2: a ghost with no read history (the block was
// written, never demand-read, then evicted) neither adapts p nor earns
// T2 re-entry — it is forgotten and re-inserted brand-new into T1.
TEST(ArcPolicy, NeverReadGhostNeitherAdaptsNorEntersT2) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), true));  // write-originated
  arc.mark_clean(key(1, 1));
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_TRUE(arc.lookup(key(1, 2)));         // block 2 -> T2
  EXPECT_TRUE(arc.insert(key(1, 3), false));  // evicts block 1 -> B1
  EXPECT_EQ(arc.b1_size(), 1u);

  EXPECT_FALSE(arc.lookup(key(1, 1)));  // never-read ghost: no signal
  EXPECT_DOUBLE_EQ(arc.p(), 0.0);

  EXPECT_TRUE(arc.insert(key(1, 1), false));  // re-enters T1, not T2
  EXPECT_DOUBLE_EQ(arc.p(), 0.0);
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);
  EXPECT_EQ(arc.b1_size(), 1u);
  EXPECT_TRUE(arc.contains(key(1, 1)));
}

// Write-aware rule 3: a dirty rewrite of a read-referenced ghost also
// forgets the history — a rewrite invalidates whatever reuse the old
// data had shown.
TEST(ArcPolicy, DirtyRewriteOfGhostForgetsReadHistory) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), false));
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_TRUE(arc.lookup(key(1, 1)));         // block 1 -> T2
  EXPECT_TRUE(arc.insert(key(1, 3), false));  // block 2 -> B1 (read ghost)

  EXPECT_TRUE(arc.insert(key(1, 2), true));  // rewrite of the ghost
  EXPECT_DOUBLE_EQ(arc.p(), 0.0);
  EXPECT_TRUE(arc.is_dirty(key(1, 2)));
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);
  EXPECT_EQ(arc.b1_size(), 1u);
}

// The dirty-pinning contract shared with LRU: insert fails rather than
// evicting a pinned block, and recovers once something is clean.
TEST(ArcPolicy, InsertFailsWhenEverythingResidentIsPinned) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), true));
  EXPECT_TRUE(arc.insert(key(1, 2), true));
  EXPECT_FALSE(arc.insert(key(1, 3), false));
  EXPECT_EQ(arc.size(), 2u);

  arc.mark_clean(key(1, 1));
  EXPECT_TRUE(arc.insert(key(1, 3), false));
  EXPECT_TRUE(arc.contains(key(1, 3)));
  EXPECT_FALSE(arc.contains(key(1, 1)));
}

TEST(ArcPolicy, EvictListenerSeesDemotionsToGhost) {
  iosrv::ArcPolicy arc(2);
  std::vector<iosrv::BlockKey> evicted;
  arc.set_evict_listener(
      [&](const iosrv::BlockKey& k) { evicted.push_back(k); });
  EXPECT_TRUE(arc.insert(key(4, 1), false));
  EXPECT_TRUE(arc.insert(key(4, 2), false));
  EXPECT_TRUE(arc.insert(key(4, 3), false));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key(4, 1));
}

// ------------------------------------------------------------------ LRU --

TEST(LruPolicy, EvictListenerSeesTheLruVictim) {
  iosrv::LruPolicy lru(2);
  std::vector<iosrv::BlockKey> evicted;
  lru.set_evict_listener(
      [&](const iosrv::BlockKey& k) { evicted.push_back(k); });
  EXPECT_TRUE(lru.insert(key(4, 1), false));
  EXPECT_TRUE(lru.insert(key(4, 2), false));
  EXPECT_TRUE(lru.insert(key(4, 3), false));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key(4, 1));
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(LruPolicy, CountersTrackHitsAndMisses) {
  iosrv::LruPolicy lru(2);
  EXPECT_FALSE(lru.lookup(key(1, 1)));
  EXPECT_TRUE(lru.insert(key(1, 1), false));
  EXPECT_TRUE(lru.lookup(key(1, 1)));
  EXPECT_EQ(lru.hits(), 1u);
  EXPECT_EQ(lru.misses(), 1u);
}

// ------------------------------------------------- differential check --

/// The scan-based LRU the clean index replaced, kept as the reference:
/// the victim is found by walking the list from its LRU end past every
/// pinned block.
class ScanLru final : public iosrv::CachePolicy {
 public:
  explicit ScanLru(std::size_t capacity) : CachePolicy(capacity) {}
  std::string_view name() const noexcept override { return "scan_lru"; }
  std::size_t size() const noexcept override { return map_.size(); }
  bool lookup(const iosrv::BlockKey& k) override {
    auto it = map_.find(k);
    if (it == map_.end()) {
      count_miss();
      return false;
    }
    count_hit();
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return true;
  }
  bool contains(const iosrv::BlockKey& k) const override {
    return map_.count(k) != 0;
  }
  bool is_dirty(const iosrv::BlockKey& k) const override {
    auto it = map_.find(k);
    return it != map_.end() && it->second.dirty;
  }
  bool insert(const iosrv::BlockKey& k, bool dirty) override {
    auto it = map_.find(k);
    if (it != map_.end()) {
      it->second.dirty = it->second.dirty || dirty;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return true;
    }
    while (map_.size() >= capacity()) {
      if (!evict_one_clean()) return false;
    }
    lru_.push_front(k);
    map_.emplace(k, Entry{lru_.begin(), dirty});
    return true;
  }
  void mark_clean(const iosrv::BlockKey& k) override {
    auto it = map_.find(k);
    if (it != map_.end()) it->second.dirty = false;
  }
  std::size_t invalidate_all() override {
    std::size_t dirty = 0;
    for (const auto& [k, e] : map_) {
      if (e.dirty) ++dirty;
    }
    lru_.clear();
    map_.clear();
    return dirty;
  }

 private:
  struct Entry {
    std::list<iosrv::BlockKey>::iterator lru_pos;
    bool dirty;
  };
  bool evict_one_clean() {
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto m = map_.find(*it);
      if (!m->second.dirty) {
        const iosrv::BlockKey victim = *it;
        lru_.erase(m->second.lru_pos);
        map_.erase(m);
        count_eviction(victim);
        return true;
      }
    }
    return false;
  }
  std::list<iosrv::BlockKey> lru_;
  std::unordered_map<iosrv::BlockKey, Entry, iosrv::BlockKeyHash> map_;
};

/// The scan-based write-aware ARC the clean indexes replaced, kept as
/// the reference (same lists, same REPLACE rule, victims found by
/// walking T1/T2 from the LRU end past pinned blocks).
class ScanArc final : public iosrv::CachePolicy {
 public:
  explicit ScanArc(std::size_t capacity) : CachePolicy(capacity) {}
  std::string_view name() const noexcept override { return "scan_arc"; }
  std::size_t size() const noexcept override { return t1_.size() + t2_.size(); }
  bool contains(const iosrv::BlockKey& k) const override {
    auto it = map_.find(k);
    return it != map_.end() &&
           (it->second.list == List::kT1 || it->second.list == List::kT2);
  }
  bool is_dirty(const iosrv::BlockKey& k) const override {
    auto it = map_.find(k);
    return it != map_.end() && it->second.dirty &&
           (it->second.list == List::kT1 || it->second.list == List::kT2);
  }
  bool lookup(const iosrv::BlockKey& k) override {
    auto it = map_.find(k);
    if (it == map_.end()) {
      count_miss();
      return false;
    }
    if (it->second.list != List::kT1 && it->second.list != List::kT2) {
      if (it->second.referenced) adapt(it->second.list == List::kB2);
      count_miss();
      return false;
    }
    count_hit();
    Entry& e = it->second;
    if (e.referenced) {
      promote(e);
    } else {
      e.referenced = true;
      std::list<iosrv::BlockKey>& l = list_of(e.list);
      l.splice(l.begin(), l, e.pos);
      e.pos = l.begin();
    }
    return true;
  }
  bool insert(const iosrv::BlockKey& k, bool dirty) override {
    const std::size_t c = capacity();
    auto it = map_.find(k);
    if (it != map_.end() &&
        (it->second.list == List::kT1 || it->second.list == List::kT2)) {
      it->second.dirty = it->second.dirty || dirty;
      if (dirty) {
        std::list<iosrv::BlockKey>& l = list_of(it->second.list);
        l.splice(l.begin(), l, it->second.pos);
        it->second.pos = l.begin();
      } else {
        it->second.referenced = true;
        promote(it->second);
      }
      return true;
    }
    if (it != map_.end()) {
      if (dirty || !it->second.referenced) {
        list_of(it->second.list).erase(it->second.pos);
        map_.erase(it);
        it = map_.end();
      } else {
        const bool in_b2 = it->second.list == List::kB2;
        adapt(in_b2);
        if (size() >= c && !replace(in_b2)) return false;
        std::list<iosrv::BlockKey>& g = list_of(it->second.list);
        t2_.splice(t2_.begin(), g, it->second.pos);
        it->second.list = List::kT2;
        it->second.pos = t2_.begin();
        it->second.dirty = dirty;
        it->second.referenced = true;
        return true;
      }
    }
    if (t1_.size() + b1_.size() >= c) {
      if (t1_.size() < c) {
        drop_ghost_lru(List::kB1);
        if (size() >= c && !replace(false)) return false;
      } else {
        if (!evict_from(List::kT1, nullptr)) return false;
      }
    } else if (map_.size() >= c) {
      if (map_.size() >= 2 * c) drop_ghost_lru(List::kB2);
      if (size() >= c && !replace(false)) return false;
    }
    t1_.push_front(k);
    map_.emplace(k, Entry{t1_.begin(), List::kT1, dirty, !dirty});
    return true;
  }
  void mark_clean(const iosrv::BlockKey& k) override {
    auto it = map_.find(k);
    if (it != map_.end()) it->second.dirty = false;
  }
  std::size_t invalidate_all() override {
    std::size_t dirty = 0;
    for (const auto& [k, e] : map_) {
      if (e.dirty && (e.list == List::kT1 || e.list == List::kT2)) ++dirty;
    }
    t1_.clear();
    t2_.clear();
    b1_.clear();
    b2_.clear();
    map_.clear();
    p_ = 0.0;
    return dirty;
  }

  double p() const noexcept { return p_; }
  std::size_t t1_size() const noexcept { return t1_.size(); }
  std::size_t t2_size() const noexcept { return t2_.size(); }
  std::size_t b1_size() const noexcept { return b1_.size(); }
  std::size_t b2_size() const noexcept { return b2_.size(); }

 private:
  enum class List : std::uint8_t { kT1, kT2, kB1, kB2 };
  struct Entry {
    std::list<iosrv::BlockKey>::iterator pos;
    List list;
    bool dirty = false;
    bool referenced = false;
  };
  std::list<iosrv::BlockKey>& list_of(List l) noexcept {
    switch (l) {
      case List::kT1: return t1_;
      case List::kT2: return t2_;
      case List::kB1: return b1_;
      default: return b2_;
    }
  }
  void adapt(bool in_b2) {
    const double b1n = static_cast<double>(b1_.size());
    const double b2n = static_cast<double>(b2_.size());
    if (in_b2) {
      p_ = std::max(0.0, p_ - std::max(b2n > 0.0 ? b1n / b2n : 1.0, 1.0));
    } else {
      p_ = std::min(static_cast<double>(capacity()),
                    p_ + std::max(b1n > 0.0 ? b2n / b1n : 1.0, 1.0));
    }
  }
  void promote(Entry& e) {
    std::list<iosrv::BlockKey>& from = list_of(e.list);
    t2_.splice(t2_.begin(), from, e.pos);
    e.list = List::kT2;
    e.pos = t2_.begin();
  }
  bool replace(bool ghost_hit_in_b2) {
    const double t1n = static_cast<double>(t1_.size());
    const bool from_t1 =
        !t1_.empty() && (t1n > p_ || (ghost_hit_in_b2 && t1n == p_));
    if (from_t1) {
      const List b1 = List::kB1;
      if (evict_from(List::kT1, &b1)) return true;
      const List b2 = List::kB2;
      return evict_from(List::kT2, &b2);
    }
    const List b2 = List::kB2;
    if (evict_from(List::kT2, &b2)) return true;
    const List b1 = List::kB1;
    return evict_from(List::kT1, &b1);
  }
  bool evict_from(List from, const List* ghost) {
    std::list<iosrv::BlockKey>& l = list_of(from);
    for (auto it = l.rbegin(); it != l.rend(); ++it) {
      auto m = map_.find(*it);
      if (m->second.dirty) continue;
      const iosrv::BlockKey victim = *it;
      if (ghost) {
        std::list<iosrv::BlockKey>& g = list_of(*ghost);
        g.splice(g.begin(), l, m->second.pos);
        m->second.list = *ghost;
        m->second.pos = g.begin();
      } else {
        l.erase(m->second.pos);
        map_.erase(m);
      }
      count_eviction(victim);
      return true;
    }
    return false;
  }
  void drop_ghost_lru(List ghost) {
    std::list<iosrv::BlockKey>& l = list_of(ghost);
    if (l.empty()) return;
    map_.erase(l.back());
    l.pop_back();
  }

  std::list<iosrv::BlockKey> t1_, t2_, b1_, b2_;
  std::unordered_map<iosrv::BlockKey, Entry, iosrv::BlockKeyHash> map_;
  double p_ = 0.0;
};

/// Drive `got` and `want` with the same random operation stream at
/// small capacity over a small key universe, with enough dirty inserts
/// that most evictions must step over pinned blocks; `same_state`
/// compares policy-specific state after every operation.
template <class Got, class Want, class SameState>
void differential(std::uint64_t seed, std::size_t capacity,
                  SameState same_state) {
  Got got(capacity);
  Want want(capacity);
  std::vector<iosrv::BlockKey> got_ev, want_ev;
  got.set_evict_listener(
      [&](const iosrv::BlockKey& k) { got_ev.push_back(k); });
  want.set_evict_listener(
      [&](const iosrv::BlockKey& k) { want_ev.push_back(k); });
  simkit::Rng rng(seed);
  const std::uint64_t universe = 3 * capacity;
  int rejected = 0;  // inserts refused because every resident was pinned
  for (int op = 0; op < 20000; ++op) {
    const iosrv::BlockKey k =
        key(rng.uniform_int(3), rng.uniform_int(universe));
    const double u = rng.uniform();
    const std::string at = "seed " + std::to_string(seed) + " op " +
                           std::to_string(op);
    if (u < 0.30) {
      ASSERT_EQ(got.lookup(k), want.lookup(k)) << at;
    } else if (u < 0.80) {
      const bool dirty = u >= 0.55;
      const bool ok = want.insert(k, dirty);
      ASSERT_EQ(got.insert(k, dirty), ok) << at;
      if (!ok) ++rejected;
    } else if (u < 0.995) {
      got.mark_clean(k);
      want.mark_clean(k);
    } else {
      ASSERT_EQ(got.invalidate_all(), want.invalidate_all()) << at;
    }
    ASSERT_EQ(got_ev, want_ev) << at;
    ASSERT_EQ(got.size(), want.size()) << at;
    ASSERT_EQ(got.contains(k), want.contains(k)) << at;
    ASSERT_EQ(got.is_dirty(k), want.is_dirty(k)) << at;
    same_state(got, want, at);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(got.hits(), want.hits());
  EXPECT_EQ(got.misses(), want.misses());
  EXPECT_EQ(got.evictions(), want.evictions());
  // The stream must churn the cache and saturate it with pins.
  EXPECT_GT(got.evictions(), 500u);
  EXPECT_GT(rejected, 0);
}

TEST(LruPolicy, CleanIndexMatchesScanReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t cap : {2u, 5u, 16u}) {
      differential<iosrv::LruPolicy, ScanLru>(
          seed, cap, [](auto&, auto&, const std::string&) {});
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ArcPolicy, CleanIndexMatchesScanReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t cap : {2u, 5u, 16u}) {
      differential<iosrv::ArcPolicy, ScanArc>(
          seed, cap,
          [](const iosrv::ArcPolicy& got, const ScanArc& want,
             const std::string& at) {
            ASSERT_EQ(got.p(), want.p()) << at;
            ASSERT_EQ(got.t1_size(), want.t1_size()) << at;
            ASSERT_EQ(got.t2_size(), want.t2_size()) << at;
            ASSERT_EQ(got.b1_size(), want.b1_size()) << at;
            ASSERT_EQ(got.b2_size(), want.b2_size()) << at;
          });
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
