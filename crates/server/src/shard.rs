//! Per-shard admission control: users hash to shards, each shard caps its
//! in-flight queries, and requests over the cap are shed with 503 instead
//! of queueing without bound.
//!
//! Shedding at admission keeps the latency of *accepted* requests bounded
//! under overload (the deadline-degraded serving path bounds each accepted
//! query; the cap bounds how many are in the system), which is what the
//! overload leg of the `soak_drill` bench gates on: p99 of completed
//! requests stays flat while the reject counter absorbs the excess.

use gem_ebsn::UserId;
use gem_obs::CachePadded;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One padded in-flight counter per shard (padding keeps the hot counters
/// of neighbouring shards off each other's cache lines).
#[derive(Debug)]
pub struct ShardSet {
    shards: Box<[CachePadded<AtomicUsize>]>,
    capacity: usize,
}

/// RAII admission token; releases its shard slot on drop (including on
/// panic in the serving path).
#[derive(Debug)]
pub struct ShardPermit<'a> {
    in_flight: &'a AtomicUsize,
    /// Which shard admitted the request (for logging/metrics labels).
    pub shard: usize,
}

impl Drop for ShardPermit<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::Release);
    }
}

impl ShardSet {
    /// `num_shards` shards, each admitting at most `capacity` concurrent
    /// queries. `num_shards` is clamped to at least 1.
    pub fn new(num_shards: usize, capacity: usize) -> Self {
        let n = num_shards.max(1);
        ShardSet {
            shards: (0..n).map(|_| CachePadded::new(AtomicUsize::new(0))).collect(),
            capacity,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard owning `user` (stable modulo assignment).
    pub fn shard_for(&self, user: UserId) -> usize {
        user.index() % self.shards.len()
    }

    /// Try to admit a query for `user`: `None` means the user's shard is at
    /// capacity and the request must be shed (503).
    pub fn try_admit(&self, user: UserId) -> Option<ShardPermit<'_>> {
        let shard = self.shard_for(user);
        let in_flight: &AtomicUsize = &self.shards[shard];
        if in_flight.fetch_add(1, Ordering::Acquire) >= self.capacity {
            in_flight.fetch_sub(1, Ordering::Release);
            return None;
        }
        Some(ShardPermit { in_flight, shard })
    }

    /// Total queries currently admitted across all shards (drain check).
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.load(Ordering::Acquire)).sum()
    }

    /// Queries currently admitted on one shard (feeds the per-shard
    /// `server.shard.<i>.in_flight` gauges at scrape time). Out-of-range
    /// shards read as 0.
    pub fn in_flight_of(&self, shard: usize) -> usize {
        self.shards.get(shard).map_or(0, |s| s.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_are_capped_per_shard_and_released_on_drop() {
        let set = ShardSet::new(2, 2);
        // Users 0 and 2 land on shard 0; user 1 on shard 1.
        let a = set.try_admit(UserId(0)).unwrap();
        let b = set.try_admit(UserId(2)).unwrap();
        assert_eq!((a.shard, b.shard), (0, 0));
        assert!(set.try_admit(UserId(4)).is_none(), "shard 0 is full");
        let c = set.try_admit(UserId(1)).expect("shard 1 has its own budget");
        assert_eq!(c.shard, 1);
        assert_eq!(set.in_flight(), 3);
        drop(a);
        assert!(set.try_admit(UserId(4)).is_some(), "slot freed on drop");
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let set = ShardSet::new(4, 0);
        assert!(set.try_admit(UserId(7)).is_none());
        assert_eq!(set.in_flight(), 0);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let set = ShardSet::new(0, 1);
        assert_eq!(set.num_shards(), 1);
        assert!(set.try_admit(UserId(123)).is_some());
    }
}
