#include "service/network_session.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace elpc::service {

NetworkSession::NetworkSession(std::string id, graph::Network network,
                               std::size_t history_budget_bytes,
                               std::int64_t lease_ms)
    : id_(std::move(id)),
      history_budget_bytes_(history_budget_bytes),
      lease_ms_(lease_ms) {
  network.finalize();
  current_ = std::make_shared<const graph::Network>(std::move(network));
}

NetworkSnapshot NetworkSession::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t NetworkSession::revision() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return revision_;
}

NetworkSession::Current NetworkSession::current() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Current{current_, revision_};
}

std::size_t NetworkSession::finalize_builds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_->finalize_build_count();
}

void NetworkSession::apply_link_updates(
    std::span<const graph::LinkUpdate> updates) {
  // The clone is private until published and the source snapshot stays
  // immutable, so readers holding older snapshots are unaffected.  The
  // lock spans the whole clone-patch-publish step so concurrent delta
  // batches linearize instead of cloning from the same base and losing
  // one another's updates.
  const std::lock_guard<std::mutex> lock(mutex_);
  auto next = std::make_shared<graph::Network>(*current_);
  next->apply_link_updates(updates);  // in-place CSR patch, no rebuild
  CachedRevision cached{current_, current_->approx_bytes(), ++touch_clock_};
  if (lease_ms_ > 0) {
    // The superseded revision's lease starts now: base lease, raised by
    // any extension granted while it was still current (a deadline job
    // mid-solve against it must keep its pin through its budget).
    cached.lease_expiry =
        util::saturating_add_ms(LeaseClock::now(), lease_ms_);
    const auto pending = pending_leases_.find(revision_);
    if (pending != pending_leases_.end()) {
      cached.lease_expiry = std::max(cached.lease_expiry, pending->second);
    }
    // Every pending extension at or below this revision is either
    // consumed just above or stale; dropping them keeps the map at most
    // one entry deep (only the current revision can accrue extensions).
    pending_leases_.erase(pending_leases_.begin(),
                          pending_leases_.upper_bound(revision_));
  }
  history_.emplace(revision_, std::move(cached));
  current_ = std::move(next);
  ++revision_;
  evict_over_budget();
}

void NetworkSession::extend_lease(std::uint64_t revision,
                                  std::int64_t extra_ms) {
  if (lease_ms_ <= 0 || extra_ms <= 0) {
    return;
  }
  const LeaseClock::time_point until =
      util::saturating_add_ms(LeaseClock::now(), extra_ms);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (revision == revision_) {
    auto [it, inserted] = pending_leases_.emplace(revision, until);
    if (!inserted) {
      it->second = std::max(it->second, until);
    }
    return;
  }
  const auto it = history_.find(revision);
  if (it != history_.end()) {
    it->second.lease_expiry = std::max(it->second.lease_expiry, until);
  }
}

NetworkSnapshot NetworkSession::revision_snapshot(
    std::uint64_t revision) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (revision == revision_) {
    return current_;
  }
  const auto it = history_.find(revision);
  if (it == history_.end()) {
    return nullptr;
  }
  it->second.last_touch = ++touch_clock_;
  return it->second.network;
}

SessionCacheStats NetworkSession::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  evict_over_budget();
  SessionCacheStats stats;
  stats.cached_revisions = history_.size();
  for (const auto& [revision, entry] : history_) {
    stats.cached_bytes += entry.bytes;
    if (entry.network.use_count() > 1) {
      ++stats.pinned_revisions;
      stats.pinned_bytes += entry.bytes;
    }
  }
  stats.checkpoints = checkpoints_.size();
  for (const auto& [key, entry] : checkpoints_) {
    stats.checkpoint_bytes += entry.bytes;
  }
  stats.current_bytes = current_->approx_bytes();
  stats.evictions = evictions_;
  stats.checkpoint_evictions = checkpoint_evictions_;
  stats.lease_expirations = lease_expirations_;
  return stats;
}

NetworkSession::CheckpointEntryPtr NetworkSession::checkpoint_entry(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = checkpoints_.find(key);
  if (it == checkpoints_.end()) {
    CachedCheckpoint fresh;
    fresh.entry = std::make_shared<CheckpointEntry>();
    fresh.bytes = fresh.entry->state.approx_bytes();
    it = checkpoints_.emplace(key, std::move(fresh)).first;
  }
  it->second.last_touch = ++touch_clock_;
  return it->second.entry;
}

void NetworkSession::note_checkpoint_update(const std::string& key,
                                            std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = checkpoints_.find(key);
  if (it != checkpoints_.end()) {
    it->second.bytes = bytes;
    it->second.last_touch = ++touch_clock_;
  }
  evict_over_budget();
}

void NetworkSession::drop_checkpoint(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  checkpoints_.erase(key);
}

void NetworkSession::evict_over_budget() const {
  // Lease pass first: a PINNED entry whose lease lapsed is
  // force-released — erased from the cache so it stops being counted,
  // pinned, or served.  The outside holder's shared_ptr keeps the
  // snapshot itself alive (no dangling reads); what expires is the
  // session's obligation to retain the revision on its behalf.
  if (lease_ms_ > 0) {
    const LeaseClock::time_point now = LeaseClock::now();
    for (auto it = history_.begin(); it != history_.end();) {
      if (it->second.network.use_count() > 1 &&
          it->second.lease_expiry <= now) {
        it = history_.erase(it);
        ++lease_expirations_;
      } else {
        ++it;
      }
    }
  }
  // A cache entry whose snapshot is referenced by anyone else (in-flight
  // solve, retained subscription) is pinned: evicting it would drop the
  // map entry but not the memory, under-reporting what is actually held
  // and breaking revision_snapshot for a revision that provably still
  // exists.  use_count is read under the session mutex — a reader
  // releasing concurrently merely delays that entry to the next sweep.
  // Checkpoints follow the same rule (a solve holds the entry while it
  // reuses/recaptures it) and share the one byte budget: eviction picks
  // the least-recently-touched UNPINNED entry across both maps.
  std::size_t unpinned_bytes = 0;
  for (const auto& [revision, entry] : history_) {
    if (entry.network.use_count() == 1) {
      unpinned_bytes += entry.bytes;
    }
  }
  for (const auto& [key, entry] : checkpoints_) {
    if (entry.entry.use_count() == 1) {
      unpinned_bytes += entry.bytes;
    }
  }
  while (unpinned_bytes > history_budget_bytes_) {
    auto revision_victim = history_.end();
    for (auto it = history_.begin(); it != history_.end(); ++it) {
      if (it->second.network.use_count() != 1) {
        continue;
      }
      if (revision_victim == history_.end() ||
          it->second.last_touch < revision_victim->second.last_touch) {
        revision_victim = it;
      }
    }
    auto checkpoint_victim = checkpoints_.end();
    for (auto it = checkpoints_.begin(); it != checkpoints_.end(); ++it) {
      if (it->second.entry.use_count() != 1) {
        continue;
      }
      if (checkpoint_victim == checkpoints_.end() ||
          it->second.last_touch < checkpoint_victim->second.last_touch) {
        checkpoint_victim = it;
      }
    }
    const bool have_revision = revision_victim != history_.end();
    const bool have_checkpoint = checkpoint_victim != checkpoints_.end();
    if (!have_revision && !have_checkpoint) {
      break;  // everything left is pinned
    }
    const bool take_revision =
        have_revision &&
        (!have_checkpoint || revision_victim->second.last_touch <
                                 checkpoint_victim->second.last_touch);
    if (take_revision) {
      unpinned_bytes -= revision_victim->second.bytes;
      history_.erase(revision_victim);
      ++evictions_;
    } else {
      unpinned_bytes -= checkpoint_victim->second.bytes;
      checkpoints_.erase(checkpoint_victim);
      ++checkpoint_evictions_;
    }
  }
}

}  // namespace elpc::service
