#include "iosrv/cache_policy.hpp"

#include <algorithm>

namespace iosrv {

// ---------------------------------------------------------------- LRU --

void LruPolicy::touch(Entry& e) {
  e.stamp = ++clock_;
  if (!e.dirty) {
    auto node = clean_.extract(e.clean);
    node.key() = e.stamp;
    e.clean = clean_.insert(clean_.end(), std::move(node));
  }
}

bool LruPolicy::lookup(const BlockKey& k) {
  auto it = map_.find(k);
  if (it == map_.end()) {
    count_miss();
    return false;
  }
  count_hit();
  touch(it->second);
  return true;
}

bool LruPolicy::is_dirty(const BlockKey& k) const {
  auto it = map_.find(k);
  return it != map_.end() && it->second.dirty;
}

bool LruPolicy::insert(const BlockKey& k, bool dirty) {
  auto it = map_.find(k);
  if (it != map_.end()) {
    Entry& e = it->second;
    if (dirty && !e.dirty) {
      clean_.erase(e.clean);
      e.dirty = true;
    }
    touch(e);
    return true;
  }
  while (map_.size() >= capacity()) {
    if (!evict_one_clean()) return false;  // everything pinned
  }
  Entry e{++clock_, {}, dirty};
  if (!dirty) e.clean = clean_.emplace_hint(clean_.end(), e.stamp, k);
  map_.emplace(k, e);
  return true;
}

void LruPolicy::mark_clean(const BlockKey& k) {
  auto it = map_.find(k);
  if (it == map_.end() || !it->second.dirty) return;
  Entry& e = it->second;
  e.dirty = false;
  e.clean = clean_.emplace(e.stamp, k).first;
}

std::size_t LruPolicy::invalidate_all() {
  const std::size_t dirty = map_.size() - clean_.size();
  clean_.clear();
  map_.clear();
  return dirty;
}

bool LruPolicy::evict_one_clean() {
  if (clean_.empty()) return false;
  const BlockKey victim = clean_.begin()->second;
  clean_.erase(clean_.begin());
  map_.erase(victim);
  count_eviction(victim);
  return true;
}

// ---------------------------------------------------------------- ARC --

bool ArcPolicy::contains(const BlockKey& k) const {
  auto it = map_.find(k);
  return it != map_.end() && resident(it->second.list);
}

bool ArcPolicy::is_dirty(const BlockKey& k) const {
  auto it = map_.find(k);
  return it != map_.end() && it->second.dirty && resident(it->second.list);
}

void ArcPolicy::admit(Entry& e, const BlockKey& k, List to) {
  e.list = to;
  e.stamp = ++clock_;
  ++resident_[slot(to)];
  if (!e.dirty) {
    CleanIndex& idx = clean_[slot(to)];
    e.clean = idx.emplace_hint(idx.end(), e.stamp, k);
  }
}

void ArcPolicy::move_to_mru(Entry& e, List to) {
  e.stamp = ++clock_;
  if (!e.dirty) {
    auto node = clean_[slot(e.list)].extract(e.clean);
    node.key() = e.stamp;
    CleanIndex& idx = clean_[slot(to)];
    e.clean = idx.insert(idx.end(), std::move(node));
  }
  --resident_[slot(e.list)];
  ++resident_[slot(to)];
  e.list = to;
}

bool ArcPolicy::lookup(const BlockKey& k) {
  auto it = map_.find(k);
  if (it == map_.end()) {
    count_miss();
    return false;
  }
  if (!resident(it->second.list)) {
    // Ghost hit on a read: the data is gone, but the reference still
    // carries the adaptation signal — IF the ghost had read history.
    // A never-read ghost is a write whose one read-back arrived after
    // eviction: that distance is a stream property, not a working set,
    // and chasing it saturates p while T2's winnable reuse is evicted.
    // Sub-block reads never insert, so without adapting here they would
    // never steer p at all.  The ghost stays put (a full-stripe insert
    // that follows still earns its T2 placement); that insert adapts
    // again, a same-direction step we accept.
    if (it->second.referenced) adapt(it->second.list == List::kB2);
    count_miss();
    return false;
  }
  count_hit();
  Entry& e = it->second;
  if (e.referenced) {
    move_to_mru(e, List::kT2);
  } else {
    // First read of a write-originated block: reading back one's own
    // write-behind data is recency, not reuse — refresh in place.
    e.referenced = true;
    move_to_mru(e, e.list);
  }
  return true;
}

void ArcPolicy::adapt(bool in_b2) {
  const double b1n = static_cast<double>(b1_.size());
  const double b2n = static_cast<double>(b2_.size());
  if (in_b2) {
    p_ = std::max(0.0, p_ - std::max(b2n > 0.0 ? b1n / b2n : 1.0, 1.0));
  } else {
    p_ = std::min(static_cast<double>(capacity()),
                  p_ + std::max(b1n > 0.0 ? b2n / b1n : 1.0, 1.0));
  }
}

void ArcPolicy::mark_clean(const BlockKey& k) {
  // Ghosts are never dirty (only clean blocks are demoted), so a dirty
  // entry is a resident.
  auto it = map_.find(k);
  if (it == map_.end() || !it->second.dirty) return;
  Entry& e = it->second;
  e.dirty = false;
  e.clean = clean_[slot(e.list)].emplace(e.stamp, k).first;
}

std::size_t ArcPolicy::invalidate_all() {
  const std::size_t dirty = size() - clean_[0].size() - clean_[1].size();
  resident_[0] = resident_[1] = 0;
  clean_[0].clear();
  clean_[1].clear();
  b1_.clear();
  b2_.clear();
  map_.clear();
  p_ = 0.0;  // the adaptation history described a cache that no longer exists
  return dirty;
}

void ArcPolicy::drop_ghost_lru(List ghost) {
  std::list<BlockKey>& l = ghost_list(ghost);
  if (l.empty()) return;
  map_.erase(l.back());
  l.pop_back();
}

bool ArcPolicy::evict_from(List from, const List* ghost) {
  CleanIndex& idx = clean_[slot(from)];
  if (idx.empty()) return false;  // every block of `from` is pinned
  const BlockKey victim = idx.begin()->second;
  idx.erase(idx.begin());
  --resident_[slot(from)];
  auto m = map_.find(victim);
  if (ghost) {
    std::list<BlockKey>& g = ghost_list(*ghost);
    g.push_front(victim);
    m->second.list = *ghost;
    m->second.pos = g.begin();
  } else {
    map_.erase(m);
  }
  count_eviction(victim);
  return true;
}

bool ArcPolicy::replace(bool ghost_hit_in_b2) {
  const double t1n = static_cast<double>(resident_[0]);
  const bool from_t1 =
      resident_[0] > 0 && (t1n > p_ || (ghost_hit_in_b2 && t1n == p_));
  if (from_t1) {
    const List b1 = List::kB1;
    if (evict_from(List::kT1, &b1)) return true;
    const List b2 = List::kB2;
    return evict_from(List::kT2, &b2);  // T1 fully pinned: fall over
  }
  const List b2 = List::kB2;
  if (evict_from(List::kT2, &b2)) return true;
  const List b1 = List::kB1;
  return evict_from(List::kT1, &b1);
}

bool ArcPolicy::insert(const BlockKey& k, bool dirty) {
  const std::size_t c = capacity();
  auto it = map_.find(k);
  if (it != map_.end() && resident(it->second.list)) {
    Entry& e = it->second;
    if (dirty) {
      // Write-aware: a write refresh (write-behind absorbing sub-block
      // pieces, or a checkpoint rewriting its region) is not a
      // frequency signal — keep the block in its current list, just
      // refresh recency there.
      if (!e.dirty) {
        clean_[slot(e.list)].erase(e.clean);
        e.dirty = true;
      }
      move_to_mru(e, e.list);
    } else {
      e.referenced = true;
      move_to_mru(e, List::kT2);
    }
    return true;
  }

  if (it != map_.end()) {  // ghost hit
    Entry& e = it->second;
    if (dirty || !e.referenced) {
      // Write-aware: a rewrite of an evicted block earns no frequency
      // credit, and a READ of a never-read ghost is a write's one
      // read-back arriving after eviction — neither steers p nor earns
      // T2.  Forget the ghost and insert as if brand-new (landing in
      // T1 below; a clean insert starts its read history there).
      ghost_list(e.list).erase(e.pos);
      map_.erase(it);
    } else {
      // Read re-reference of a recently evicted block: adapt p toward
      // the list whose ghost was hit, make room, land in T2.
      const bool in_b2 = e.list == List::kB2;
      adapt(in_b2);
      if (size() >= c && !replace(in_b2)) return false;  // all pinned
      ghost_list(e.list).erase(e.pos);
      e.dirty = false;
      admit(e, k, List::kT2);
      return true;
    }
  }

  // Brand-new key.
  if (resident_[0] + b1_.size() >= c) {
    if (resident_[0] < c) {
      drop_ghost_lru(List::kB1);
      if (size() >= c && !replace(false)) return false;
    } else {
      // B1 empty and T1 fills the cache: evict T1's LRU outright.
      if (!evict_from(List::kT1, nullptr)) return false;
    }
  } else if (map_.size() >= c) {
    if (map_.size() >= 2 * c) drop_ghost_lru(List::kB2);
    if (size() >= c && !replace(false)) return false;
  }
  Entry e;
  e.dirty = dirty;
  e.referenced = !dirty;
  admit(e, k, List::kT1);
  map_.emplace(k, e);
  return true;
}

// ------------------------------------------------------------- factory --

std::unique_ptr<CachePolicy> make_policy(PolicyKind kind,
                                         std::size_t capacity_blocks) {
  if (kind == PolicyKind::kArc) {
    return std::make_unique<ArcPolicy>(capacity_blocks);
  }
  return std::make_unique<LruPolicy>(capacity_blocks);
}

}  // namespace iosrv
