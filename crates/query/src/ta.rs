//! Threshold Algorithm (TA) retrieval over the transformed space.
//!
//! The Eq. 8 score of a candidate pair decomposes into three monotone
//! components:
//!
//! ```text
//! score(u; x, u') = q_u · p_{xu'} = [u·x]  +  [u·u']  +  [u'ᵀx]
//!                                     A(x)     B(u')     C(x, u')
//! ```
//!
//! `A` has one value per *event*, `B` one per *partner*, and `C` is a
//! query-independent per-pair scalar, precomputed offline by the space
//! transformation. TA therefore runs over **three composite sorted lists**
//! (the same structure as the LCARS TA the paper adopts, its ref. \[32\]):
//!
//! * the A-list: candidate pairs grouped by event, groups in descending
//!   `A(x)` (keys computed per query in `O(|X|·K)`),
//! * the B-list: pairs grouped by partner, descending `B(u')`
//!   (keys in `O(|U|·K)` per query),
//! * the C-list: pairs in descending interaction value (offline).
//!
//! Each round pops one pair from each list (sorted access), scores new
//! pairs in `O(1)` via `A + B + C` table lookups (random access), and stops
//! as soon as the running top-n's minimum reaches the threshold
//! `A_cur + B_cur + C_cur` — an upper bound on every unseen pair, which is
//! what guarantees the result is the *exact* top-n while examining only a
//! fraction of the candidates (Table VI measures that fraction).
//!
//! Unlike a coordinate-wise TA over the raw `2K+1` dimensions — which
//! stalls because thousands of pairs share each event's coordinates — the
//! composite lists descend through *distinct* A/B values, so the threshold
//! drops quickly regardless of embedding signs or density.
//!
//! # Serving-path layout
//!
//! The [`TransformedSpace`] owns everything a score is made of — pair
//! identities, the per-pair `C`, each pair's event / partner row id and the
//! two row matrices the keys come from. The index owns only *orderings* of
//! those pairs, all `u32`: the two group tables and the C-list.
//!
//! The group structure is stored in CSR form (one flat member array plus a
//! `groups+1` offset array per axis) so that a query never copies it: the
//! per-query `GroupCursor`s *borrow* the index. All per-query working
//! memory — composite keys, group heaps, the visited set, the top-n
//! heap — lives in a caller-owned [`TaScratch`] that [`TaIndex::top_n_with`]
//! reuses across calls, so a serving thread allocates only the final result
//! vector once warmed up. The visited set is epoch-stamped: clearing it
//! between queries is a counter bump, not an `O(pairs)` memset.
//!
//! A query scores a sliver of the pairs (Table VI), so what it pays is the
//! prologue that runs before the first round, and the layout is chosen to
//! keep that small:
//!
//! * **Keys from two contiguous matrices in one batched pass each**
//!   (`TransformedSpace::fill_keys`), bit-identical to the row-at-a-time
//!   form on every SIMD backend.
//! * **Groups ordered lazily.** The search opens a handful of groups per
//!   list, so the keys are heapified (`O(groups)`) rather than sorted, and
//!   a group costs `O(log groups)` only when the cursor actually moves past
//!   it. The heap order is total (`total_cmp` key, then ascending group
//!   id), so it is the sequence a full sort would produce.
//!
//! Fixed cost per query: `O(groups·K + groups)`, plus `O(log groups)` per
//! group actually opened. The worst case — `n ≥ pairs`, every group opened —
//! is a heap sort, a constant factor slower than the single sort it replaces.

use crate::transform::TransformedSpace;
use gem_ebsn::{EventId, UserId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Offline part of the TA engine: the three orderings of a space's pairs —
/// grouped by event, grouped by partner (both CSR, groups numbered by the
/// space's row ids) and sorted by interaction.
#[derive(Debug, Clone)]
pub struct TaIndex {
    /// CSR offsets into `event_members`, one entry per distinct event + 1.
    event_offsets: Vec<u32>,
    /// Pair indices grouped by event (flat; group `g` spans
    /// `event_offsets[g]..event_offsets[g+1]`).
    event_members: Vec<u32>,
    /// CSR offsets into `partner_members`, one per distinct partner + 1.
    partner_offsets: Vec<u32>,
    /// Pair indices grouped by partner (flat).
    partner_members: Vec<u32>,
    /// All pair indices sorted by descending interaction value `u'ᵀx`.
    by_interaction: Vec<u32>,
}

/// Work counters from one TA query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaStats {
    /// Candidates whose full score was computed (random accesses).
    pub scored: usize,
    /// Total sorted-access pops across the three lists.
    pub sorted_accesses: usize,
}

/// How a TA query finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaCompletion {
    /// The threshold condition was met (or the lists ran dry): the result
    /// is the exact top-n.
    Exact,
    /// A deadline expired mid-search. The result is a *verified prefix* of
    /// the exact top-n — every returned pair provably beats all candidates
    /// the search did not finish examining — but it may hold fewer than `n`
    /// entries.
    Degraded,
}

/// What the TA core knows when it stops. [`TaIndex::top_n_with`] hands out
/// the results and stats; the engine's query core needs the completion and
/// cutoff too, to hold a delta overlay to the same verified-prefix contract.
pub(crate) struct TaSearch {
    /// Results in descending score order.
    pub(crate) results: Vec<(f32, UserId, EventId)>,
    pub(crate) stats: TaStats,
    pub(crate) completion: TaCompletion,
    /// Under [`TaCompletion::Degraded`], the final threshold: an upper
    /// bound on the score of every pair the search did not finish examining
    /// (`+∞` when the deadline had expired before any key was computed).
    /// `-∞` under [`TaCompletion::Exact`].
    pub(crate) cutoff: f32,
}

/// Reusable per-query working memory for [`TaIndex::top_n_with`].
///
/// One instance per serving thread; reusing it across queries removes all
/// per-query heap allocation from the TA hot path.
#[derive(Debug, Default)]
pub struct TaScratch {
    /// Composite key `A(x) = u·x` per event group.
    a_keys: Vec<f32>,
    /// Composite key `B(u') = u·u'` per partner group.
    b_keys: Vec<f32>,
    /// Event groups not yet exhausted, best `A` on top.
    a_groups: BinaryHeap<GroupKey>,
    /// Partner groups not yet exhausted, best `B` on top.
    b_groups: BinaryHeap<GroupKey>,
    /// Epoch stamps: pair `i` was visited this query iff `seen[i] == epoch`.
    seen: Vec<u32>,
    /// Current query epoch.
    epoch: u32,
    /// Running top-n (min-heap via inverted ordering).
    heap: BinaryHeap<HeapEntry>,
}

impl TaScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Min-heap entry (inverted ordering on a max-heap).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    score: f32,
    idx: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp` keeps the heap total even when a corrupted model
        // yields NaN scores (+NaN above +∞, -NaN below -∞): one bad
        // candidate must not panic the query.
        other.score.total_cmp(&self.score).then(other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A group and its per-query key, ordered for a max-heap: greater key
/// first (`total_cmp`, so NaN keys order deterministically), ties by
/// ascending group id. No two entries compare equal, so draining a heap of
/// them yields one fixed sequence — the one a descending sort would.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GroupKey {
    key: f32,
    gid: u32,
}

impl Eq for GroupKey {}

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.total_cmp(&other.key).then(other.gid.cmp(&self.gid))
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Rebuild `groups` over `keys` in `O(keys)`, reusing its allocation.
fn heapify_groups(groups: &mut BinaryHeap<GroupKey>, keys: &[f32]) {
    let mut entries = std::mem::take(groups).into_vec();
    entries.clear();
    entries.extend(keys.iter().enumerate().map(|(gid, &key)| GroupKey { key, gid: gid as u32 }));
    *groups = BinaryHeap::from(entries);
}

/// Cursor descending through CSR groups by a per-group key; borrows both
/// the index and the scratch-held group heap — no per-query copies. The
/// group being consumed stays on top of the heap until [`Self::pop`] finds
/// it exhausted, so [`Self::bound`] lags exactly one `pop` behind the last
/// member of a group.
struct GroupCursor<'a> {
    /// Unexhausted groups, best key on top (from [`TaScratch`]).
    groups: &'a mut BinaryHeap<GroupKey>,
    offsets: &'a [u32],
    members: &'a [u32],
    within_pos: usize,
}

impl<'a> GroupCursor<'a> {
    fn new(groups: &'a mut BinaryHeap<GroupKey>, offsets: &'a [u32], members: &'a [u32]) -> Self {
        Self { groups, offsets, members, within_pos: 0 }
    }

    /// Current upper bound: the key of the group being consumed.
    fn bound(&self) -> f32 {
        self.groups.peek().map_or(f32::NEG_INFINITY, |g| g.key)
    }

    /// Pop the next pair index, descending through groups.
    fn pop(&mut self) -> Option<u32> {
        while let Some(top) = self.groups.peek() {
            let g = top.gid as usize;
            let start = self.offsets[g] as usize;
            let end = self.offsets[g + 1] as usize;
            if start + self.within_pos < end {
                let idx = self.members[start + self.within_pos];
                self.within_pos += 1;
                return Some(idx);
            }
            self.groups.pop();
            self.within_pos = 0;
        }
        None
    }
}

/// Scatter pair indices into CSR (offsets + flat members) given each pair's
/// group id. Members within a group stay in ascending pair order.
fn csr_from_gids(gids: &[u32], num_groups: usize) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; num_groups + 1];
    for &g in gids {
        offsets[g as usize + 1] += 1;
    }
    for g in 0..num_groups {
        offsets[g + 1] += offsets[g];
    }
    let mut cursor: Vec<u32> = offsets[..num_groups].to_vec();
    let mut members = vec![0u32; gids.len()];
    for (i, &g) in gids.iter().enumerate() {
        members[cursor[g as usize] as usize] = i as u32;
        cursor[g as usize] += 1;
    }
    (offsets, members)
}

/// Pair indices by descending interaction value, ties by ascending index.
fn interaction_order(keys: &[f32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| keys[b as usize].total_cmp(&keys[a as usize]).then(a.cmp(&b)));
    order
}

impl TaIndex {
    /// Approximate resident bytes of the index arrays (all `u32`: 12 bytes
    /// per pair plus the two offset tables). Input to the
    /// [`crate::MemBudget`] accounting of a budgeted build.
    pub fn bytes(&self) -> usize {
        (self.event_offsets.len()
            + self.event_members.len()
            + self.partner_offsets.len()
            + self.partner_members.len()
            + self.by_interaction.len())
            * 4
    }

    /// Build the offline structures (`O(n log n)` in the number of pairs).
    ///
    /// The two independent passes — scattering pairs into the group tables
    /// and sorting the interaction list — run concurrently; the result is
    /// bit-identical at any thread count.
    pub fn build(space: &TransformedSpace) -> Self {
        let (groups, by_interaction) = rayon::join(
            || {
                (
                    csr_from_gids(&space.event_gid, space.num_events()),
                    csr_from_gids(&space.partner_gid, space.num_partners()),
                )
            },
            || interaction_order(&space.interaction),
        );
        let ((event_offsets, event_members), (partner_offsets, partner_members)) = groups;
        Self { event_offsets, event_members, partner_offsets, partner_members, by_interaction }
    }

    /// Number of distinct candidate events.
    pub fn num_events(&self) -> usize {
        self.event_offsets.len() - 1
    }

    /// Number of distinct candidate partners.
    pub fn num_partners(&self) -> usize {
        self.partner_offsets.len() - 1
    }

    /// Exact top-`n` pairs for query `q = (u, u, 1)`, skipping pairs
    /// rejected by `filter`, with caller-owned scratch: zero per-query
    /// allocation beyond the returned result vector once the scratch is
    /// warm.
    ///
    /// # Panics
    /// Panics if `q.len() != space.dim()` or the index was built from a
    /// space of a different size.
    pub fn top_n_with(
        &self,
        space: &TransformedSpace,
        q: &[f32],
        n: usize,
        filter: impl FnMut(UserId, EventId) -> bool,
        scratch: &mut TaScratch,
    ) -> (Vec<(f32, UserId, EventId)>, TaStats) {
        let found = self.search(space, q, n, filter, scratch, None);
        (found.results, found.stats)
    }

    /// The TA core: [`Self::top_n_with`], optionally under a wall-clock
    /// deadline.
    ///
    /// If the threshold condition is met before `deadline`, the result is
    /// the exact top-n ([`TaCompletion::Exact`]). If the deadline expires
    /// first, the search stops and returns only the heap entries whose
    /// score *strictly* exceeds the final threshold, tagged
    /// [`TaCompletion::Degraded`]. That pruning makes the degraded result a
    /// verified prefix of the exact top-n: the running heap always holds
    /// the exact best of the candidates seen so far (its minimum is
    /// monotone non-decreasing, so discarded candidates never beat it), and
    /// the threshold upper-bounds every unseen candidate — so an entry
    /// above the threshold beats everything the search did not finish
    /// examining. The deadline is polled every few rounds, so the overrun
    /// past `deadline` is bounded by a handful of O(1) score evaluations.
    ///
    /// A deadline that has already expired on entry returns a well-formed
    /// *empty* [`TaCompletion::Degraded`] result without computing a single
    /// key (the clock is polled once before the key pass, then before the
    /// first round).
    /// Queries that are trivially exact — `n == 0` or an empty candidate
    /// space — stay [`TaCompletion::Exact`] regardless of the deadline.
    /// Panics like [`Self::top_n_with`].
    pub(crate) fn search(
        &self,
        space: &TransformedSpace,
        q: &[f32],
        n: usize,
        mut filter: impl FnMut(UserId, EventId) -> bool,
        scratch: &mut TaScratch,
        deadline: Option<Instant>,
    ) -> TaSearch {
        assert_eq!(q.len(), space.dim(), "query dimensionality mismatch");
        assert_eq!(
            self.by_interaction.len(),
            space.len(),
            "index was built from a space of different size"
        );
        let mut stats = TaStats::default();
        // On deadline expiry `cutoff` becomes the final threshold: only heap
        // entries strictly above it are provably part of the exact top-n.
        let mut completion = TaCompletion::Exact;
        let mut cutoff = f32::NEG_INFINITY;
        if n == 0 || space.is_empty() {
            return TaSearch { results: Vec::new(), stats, completion, cutoff };
        }
        // An already-expired deadline must not pay the key pass: nothing
        // has been examined, so nothing is verified.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return TaSearch {
                results: Vec::new(),
                stats,
                completion: TaCompletion::Degraded,
                cutoff: f32::INFINITY,
            };
        }
        // Per-query composite keys: A over distinct events, B over distinct
        // partners. O((|X| + |U|)·K) over the space's contiguous row
        // matrices, into reused buffers; then O(|X| + |U|) to heapify them.
        space.fill_keys(q, &mut scratch.a_keys, &mut scratch.b_keys);
        heapify_groups(&mut scratch.a_groups, &scratch.a_keys);
        heapify_groups(&mut scratch.b_groups, &scratch.b_keys);

        let mut a_cursor =
            GroupCursor::new(&mut scratch.a_groups, &self.event_offsets, &self.event_members);
        let mut b_cursor =
            GroupCursor::new(&mut scratch.b_groups, &self.partner_offsets, &self.partner_members);
        let mut c_pos = 0usize;

        // Epoch-stamped visited set: bumping the epoch invalidates all
        // stamps from previous queries in O(1).
        if scratch.seen.len() != space.len() {
            scratch.seen.clear();
            scratch.seen.resize(space.len(), 0);
            scratch.epoch = 0;
        }
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.seen.fill(0);
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;
        let seen = &mut scratch.seen;

        let heap = &mut scratch.heap;
        heap.clear();
        let qw = q[2 * space.k()];
        // C term of the next unpopped C-list entry: bounds every unseen pair's.
        let c_bound = |c_pos: usize| {
            let next = self.by_interaction.get(c_pos);
            next.map_or(f32::NEG_INFINITY, |&i| space.interaction[i as usize] * qw)
        };

        let mut round = 0u32;

        loop {
            // Poll the clock on round 0 and every 8 rounds thereafter: one
            // `Instant::now()` per ~24 sorted accesses keeps the deadline
            // overhead off the exact path's profile while bounding the
            // overrun. Checking *before* the increment means a deadline
            // that expired during the key pass degrades before the first
            // sorted access instead of running 7 full unpolled rounds.
            if let Some(d) = deadline {
                if round.is_multiple_of(8) && Instant::now() >= d {
                    completion = TaCompletion::Degraded;
                    cutoff = a_cursor.bound() + b_cursor.bound() + c_bound(c_pos);
                    break;
                }
                round = round.wrapping_add(1);
            }
            let mut progressed = false;
            // One sorted access per list per round.
            for source in 0..3u8 {
                let idx = match source {
                    0 => a_cursor.pop(),
                    1 => b_cursor.pop(),
                    _ => {
                        let v = self.by_interaction.get(c_pos).copied();
                        if v.is_some() {
                            c_pos += 1;
                        }
                        v
                    }
                };
                let Some(idx) = idx else { continue };
                progressed = true;
                stats.sorted_accesses += 1;
                if seen[idx as usize] == epoch {
                    continue;
                }
                seen[idx as usize] = epoch;
                let (partner, event) = space.pair(idx as usize);
                if !filter(partner, event) {
                    continue;
                }
                stats.scored += 1;
                let score = space.score(idx as usize, &scratch.a_keys, &scratch.b_keys, qw);
                if heap.len() < n {
                    heap.push(HeapEntry { score, idx });
                } else if let Some(worst) = heap.peek() {
                    if score > worst.score {
                        heap.pop();
                        heap.push(HeapEntry { score, idx });
                    }
                }
            }
            if !progressed {
                break; // all lists exhausted
            }
            // Threshold: no unseen pair can beat A_cur + B_cur + C_cur.
            if heap.len() == n {
                let threshold = a_cursor.bound() + b_cursor.bound() + c_bound(c_pos);
                let min_top = heap.peek().expect("heap is non-empty").score;
                if min_top >= threshold {
                    break;
                }
            }
        }

        let mut results: Vec<(f32, UserId, EventId)> = heap
            .drain()
            .filter(|e| completion == TaCompletion::Exact || e.score > cutoff)
            .map(|e| {
                let (p, x) = space.pair(e.idx as usize);
                (e.score, p, x)
            })
            .collect();
        results.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        TaSearch { results, stats, completion, cutoff }
    }
}

/// The search as it was before the group heaps: every key through a
/// per-pair `dot`, both group lists fully sorted up front, a cursor walking
/// the sorted order. Kept as the oracle the lazy search must match in
/// results *and* [`TaStats`].
#[cfg(test)]
mod full_sort {
    use super::*;
    use gem_core::math::dot;

    /// Fill `order` with `0..keys.len()` sorted by descending key (ties by
    /// ascending index; NaN keys order via `total_cmp` — deterministic).
    pub(super) fn fill_order(order: &mut Vec<u32>, keys: &[f32]) {
        order.clear();
        order.extend(0..keys.len() as u32);
        order.sort_unstable_by(|&a, &b| {
            keys[b as usize].total_cmp(&keys[a as usize]).then(a.cmp(&b))
        });
    }

    struct SortedCursor<'a> {
        order: &'a [u32],
        keys: &'a [f32],
        offsets: &'a [u32],
        members: &'a [u32],
        group_pos: usize,
        within_pos: usize,
    }

    impl SortedCursor<'_> {
        fn bound(&self) -> f32 {
            self.order.get(self.group_pos).map_or(f32::NEG_INFINITY, |&g| self.keys[g as usize])
        }

        fn pop(&mut self) -> Option<u32> {
            while let Some(&g) = self.order.get(self.group_pos) {
                let start = self.offsets[g as usize] as usize;
                let end = self.offsets[g as usize + 1] as usize;
                if start + self.within_pos < end {
                    self.within_pos += 1;
                    return Some(self.members[start + self.within_pos - 1]);
                }
                self.group_pos += 1;
                self.within_pos = 0;
            }
            None
        }
    }

    pub(super) fn search(
        index: &TaIndex,
        space: &TransformedSpace,
        q: &[f32],
        n: usize,
        mut filter: impl FnMut(UserId, EventId) -> bool,
    ) -> (Vec<(f32, UserId, EventId)>, TaStats) {
        let mut stats = TaStats::default();
        if n == 0 || space.is_empty() {
            return (Vec::new(), stats);
        }
        let k = space.k();
        // Every member of a group carries the group's vector, so any of
        // them yields the group's key.
        let mut a_keys = vec![0.0f32; index.num_events()];
        let mut b_keys = vec![0.0f32; index.num_partners()];
        let (event_gid, partner_gid) = (&space.event_gid, &space.partner_gid);
        for i in 0..space.len() {
            let point = space.point(i);
            a_keys[event_gid[i] as usize] = dot(&q[0..k], &point[0..k]);
            b_keys[partner_gid[i] as usize] = dot(&q[0..k], &point[k..2 * k]);
        }
        let (mut a_order, mut b_order) = (Vec::new(), Vec::new());
        fill_order(&mut a_order, &a_keys);
        fill_order(&mut b_order, &b_keys);
        let mut a_cursor = SortedCursor {
            order: &a_order,
            keys: &a_keys,
            offsets: &index.event_offsets,
            members: &index.event_members,
            group_pos: 0,
            within_pos: 0,
        };
        let mut b_cursor = SortedCursor {
            order: &b_order,
            keys: &b_keys,
            offsets: &index.partner_offsets,
            members: &index.partner_members,
            group_pos: 0,
            within_pos: 0,
        };
        let mut c_pos = 0usize;
        let c_value = |idx: u32| space.interaction[idx as usize] * q[2 * k];
        let mut seen = vec![false; space.len()];
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        loop {
            let mut progressed = false;
            for source in 0..3u8 {
                let idx = match source {
                    0 => a_cursor.pop(),
                    1 => b_cursor.pop(),
                    _ => {
                        c_pos += 1;
                        index.by_interaction.get(c_pos - 1).copied()
                    }
                };
                let Some(idx) = idx else { continue };
                progressed = true;
                stats.sorted_accesses += 1;
                if std::mem::replace(&mut seen[idx as usize], true) {
                    continue;
                }
                let (partner, event) = space.pair(idx as usize);
                if !filter(partner, event) {
                    continue;
                }
                stats.scored += 1;
                let score = a_keys[event_gid[idx as usize] as usize]
                    + b_keys[partner_gid[idx as usize] as usize]
                    + c_value(idx);
                if heap.len() < n {
                    heap.push(HeapEntry { score, idx });
                } else if heap.peek().is_some_and(|worst| score > worst.score) {
                    heap.pop();
                    heap.push(HeapEntry { score, idx });
                }
            }
            if !progressed {
                break;
            }
            if heap.len() == n {
                let c_bound =
                    index.by_interaction.get(c_pos).map_or(f32::NEG_INFINITY, |&i| c_value(i));
                let threshold = a_cursor.bound() + b_cursor.bound() + c_bound;
                if heap.peek().expect("heap is non-empty").score >= threshold {
                    break;
                }
            }
        }
        let mut results: Vec<(f32, UserId, EventId)> = heap
            .drain()
            .map(|e| {
                let (p, x) = space.pair(e.idx as usize);
                (e.score, p, x)
            })
            .collect();
        results.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{BruteForce, BruteScratch};
    use crate::transform::toy_model;
    use gem_core::GemModel;
    use rand::RngExt;

    pub(super) fn cross_space(model: &GemModel, users: u32, events: u32) -> TransformedSpace {
        let candidates: Vec<(UserId, EventId)> =
            (0..users).flat_map(|p| (0..events).map(move |x| (UserId(p), EventId(x)))).collect();
        TransformedSpace::build(model, &candidates)
    }

    /// Exact top-n with fresh scratch.
    fn top_n(
        index: &TaIndex,
        space: &TransformedSpace,
        q: &[f32],
        n: usize,
        filter: impl FnMut(UserId, EventId) -> bool,
    ) -> (Vec<(f32, UserId, EventId)>, TaStats) {
        index.top_n_with(space, q, n, filter, &mut TaScratch::new())
    }

    /// The TA core under `deadline`, unpacked.
    fn top_n_deadline(
        index: &TaIndex,
        space: &TransformedSpace,
        q: &[f32],
        n: usize,
        filter: impl FnMut(UserId, EventId) -> bool,
        deadline: Instant,
        scratch: &mut TaScratch,
    ) -> (Vec<(f32, UserId, EventId)>, TaStats, TaCompletion) {
        let found = index.search(space, q, n, filter, scratch, Some(deadline));
        (found.results, found.stats, found.completion)
    }

    #[test]
    fn ta_matches_brute_force_on_toy_model() {
        let model = toy_model();
        let space = cross_space(&model, 3, 2);
        let index = TaIndex::build(&space);
        let brute = BruteForce::new(&space);
        for u in 0..3u32 {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            let (ta, _) = top_n(&index, &space, &q, 3, |p, _| p != UserId(u));
            let bf = brute.top_n_with(&q, 3, |p, _| p != UserId(u), &mut BruteScratch::new());
            assert_eq!(ta.len(), bf.len());
            for (a, b) in ta.iter().zip(&bf) {
                assert!((a.0 - b.0).abs() < 1e-5, "score mismatch {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn ta_matches_brute_force_on_random_model() {
        let mut rng = gem_sampling::rng_from_seed(31);
        let dim = 8;
        let users: Vec<f32> = (0..40 * dim).map(|_| rng.random::<f32>()).collect();
        let events: Vec<f32> = (0..25 * dim).map(|_| rng.random::<f32>()).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let space = cross_space(&model, 40, 25);
        let index = TaIndex::build(&space);
        let brute = BruteForce::new(&space);
        for u in [0u32, 7, 13, 39] {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            for n in [1, 5, 10] {
                let (ta, stats) = top_n(&index, &space, &q, n, |p, _| p != UserId(u));
                let bf = brute.top_n_with(&q, n, |p, _| p != UserId(u), &mut BruteScratch::new());
                let ta_scores: Vec<f32> = ta.iter().map(|r| r.0).collect();
                let bf_scores: Vec<f32> = bf.iter().map(|r| r.0).collect();
                for (a, b) in ta_scores.iter().zip(&bf_scores) {
                    assert!((a - b).abs() < 1e-5, "u={u} n={n}: {ta_scores:?} vs {bf_scores:?}");
                }
                assert!(stats.scored <= space.len());
            }
        }
    }

    /// A single scratch reused across many queries must give results
    /// identical to fresh allocation each time (epoch/buffer hygiene).
    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let mut rng = gem_sampling::rng_from_seed(77);
        let dim = 6;
        let users: Vec<f32> = (0..30 * dim).map(|_| rng.random::<f32>() - 0.4).collect();
        let events: Vec<f32> = (0..15 * dim).map(|_| rng.random::<f32>() - 0.4).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let space = cross_space(&model, 30, 15);
        let index = TaIndex::build(&space);
        let mut scratch = TaScratch::new();
        for u in 0..30u32 {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            let (reused, stats_reused) =
                index.top_n_with(&space, &q, 7, |p, _| p != UserId(u), &mut scratch);
            let (fresh, stats_fresh) = top_n(&index, &space, &q, 7, |p, _| p != UserId(u));
            assert_eq!(reused, fresh, "u={u}");
            assert_eq!(stats_reused, stats_fresh, "u={u}");
        }
    }

    #[test]
    fn signed_queries_match_brute_force() {
        // Un-rectified embeddings: signed coordinates everywhere.
        let mut rng = gem_sampling::rng_from_seed(99);
        let dim = 6;
        let users: Vec<f32> = (0..20 * dim).map(|_| rng.random::<f32>() - 0.5).collect();
        let events: Vec<f32> = (0..10 * dim).map(|_| rng.random::<f32>() - 0.5).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let space = cross_space(&model, 20, 10);
        let index = TaIndex::build(&space);
        let brute = BruteForce::new(&space);
        for u in 0..20u32 {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            assert!(q.iter().any(|&v| v < 0.0), "test needs signed queries");
            let (ta, _) = top_n(&index, &space, &q, 5, |_, _| true);
            let bf = brute.top_n_with(&q, 5, |_, _| true, &mut BruteScratch::new());
            for (a, b) in ta.iter().zip(&bf) {
                assert!((a.0 - b.0).abs() < 1e-5, "u={u}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn ta_prunes_on_skewed_data() {
        // One dominant partner: TA should stop long before exhausting the
        // candidate pairs.
        let dim = 4;
        let n_users = 300u32;
        let n_events = 40u32;
        let mut rng = gem_sampling::rng_from_seed(5);
        let mut users: Vec<f32> =
            (0..n_users as usize * dim).map(|_| rng.random::<f32>() * 0.05).collect();
        for d in 0..dim {
            users[dim + d] = 3.0; // partner 1 dominates
        }
        let events: Vec<f32> =
            (0..n_events as usize * dim).map(|_| rng.random::<f32>() * 0.5).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let space = cross_space(&model, n_users, n_events);
        let index = TaIndex::build(&space);
        let q = TransformedSpace::query_vector(&model, UserId(0));
        let (top, stats) = top_n(&index, &space, &q, 5, |_, _| true);
        assert_eq!(top[0].1, UserId(1));
        assert!(stats.scored < space.len() / 4, "TA scored {}/{} pairs", stats.scored, space.len());
    }

    #[test]
    fn filter_excludes_candidates() {
        let model = toy_model();
        let space = cross_space(&model, 3, 2);
        let index = TaIndex::build(&space);
        let q = TransformedSpace::query_vector(&model, UserId(0));
        let (results, _) = top_n(&index, &space, &q, 10, |p, _| p != UserId(0));
        assert!(results.iter().all(|r| r.1 != UserId(0)));
        assert_eq!(results.len(), 4); // 2 partners × 2 events
    }

    #[test]
    fn n_zero_or_empty_space() {
        let model = toy_model();
        let space = cross_space(&model, 3, 2);
        let index = TaIndex::build(&space);
        let q = TransformedSpace::query_vector(&model, UserId(0));
        assert!(top_n(&index, &space, &q, 0, |_, _| true).0.is_empty());

        let empty = TransformedSpace::build(&model, &[]);
        let index = TaIndex::build(&empty);
        assert!(top_n(&index, &empty, &q, 5, |_, _| true).0.is_empty());
    }

    #[test]
    fn results_are_sorted_descending() {
        let model = toy_model();
        let space = cross_space(&model, 3, 2);
        let index = TaIndex::build(&space);
        let q = TransformedSpace::query_vector(&model, UserId(2));
        let (results, _) = top_n(&index, &space, &q, 6, |_, _| true);
        for w in results.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
    }

    // --- deadline-degraded queries ---

    #[test]
    fn generous_deadline_gives_exact_results() {
        let mut rng = gem_sampling::rng_from_seed(13);
        let dim = 6;
        let users: Vec<f32> = (0..40 * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let events: Vec<f32> = (0..20 * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let space = cross_space(&model, 40, 20);
        let index = TaIndex::build(&space);
        let mut scratch = TaScratch::new();
        for u in [0u32, 11, 39] {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            let (bounded, stats_b, completion) = top_n_deadline(
                &index,
                &space,
                &q,
                8,
                |p, _| p != UserId(u),
                deadline,
                &mut scratch,
            );
            let (exact, stats_e) = top_n(&index, &space, &q, 8, |p, _| p != UserId(u));
            assert_eq!(completion, TaCompletion::Exact, "u={u}");
            assert_eq!(bounded, exact, "u={u}");
            assert_eq!(stats_b, stats_e, "u={u}");
        }
    }

    /// A deadline already in the past degrades almost immediately; whatever
    /// comes back must be a prefix of the exact top-n (score-wise) and
    /// strictly fewer random accesses than the exact search needed.
    #[test]
    fn expired_deadline_returns_verified_prefix() {
        let mut rng = gem_sampling::rng_from_seed(29);
        let dim = 8;
        let nu = 200u32;
        let nx = 60u32;
        let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let space = cross_space(&model, nu, nx);
        let index = TaIndex::build(&space);
        let mut scratch = TaScratch::new();
        let n = 20usize;
        let mut degraded_seen = false;
        for u in 0..10u32 {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            let deadline = std::time::Instant::now() - std::time::Duration::from_millis(1);
            let (bounded, stats_b, completion) =
                top_n_deadline(&index, &space, &q, n, |_, _| true, deadline, &mut scratch);
            let (exact, stats_e) = top_n(&index, &space, &q, n, |_, _| true);
            assert!(bounded.len() <= exact.len(), "u={u}");
            for (i, (b, e)) in bounded.iter().zip(&exact).enumerate() {
                assert!((b.0 - e.0).abs() < 1e-5, "u={u} rank {i}: degraded {b:?} vs exact {e:?}");
            }
            if completion == TaCompletion::Degraded {
                degraded_seen = true;
                assert!(stats_b.scored <= stats_e.scored, "u={u}");
            } else {
                assert_eq!(bounded, exact, "u={u}");
            }
        }
        assert!(degraded_seen, "an already-expired deadline never degraded any query");
    }

    /// Regression: a deadline already in the past must degrade *before*
    /// the first sorted access. The old poll ordering incremented the
    /// round counter before the `is_multiple_of(8)` check, so the first
    /// poll happened after 7 full rounds of sorted accesses — an expired
    /// deadline silently did real work and could even return Exact on
    /// small spaces.
    #[test]
    fn already_expired_deadline_degrades_before_any_work() {
        let mut rng = gem_sampling::rng_from_seed(61);
        let dim = 8;
        let nu = 120u32;
        let nx = 40u32;
        let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let space = cross_space(&model, nu, nx);
        let index = TaIndex::build(&space);
        let mut scratch = TaScratch::new();
        for u in 0..8u32 {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            let deadline = std::time::Instant::now() - std::time::Duration::from_secs(1);
            let (results, stats, completion) =
                top_n_deadline(&index, &space, &q, 10, |_, _| true, deadline, &mut scratch);
            assert_eq!(completion, TaCompletion::Degraded, "u={u}");
            assert!(results.is_empty(), "u={u}: expired deadline did work: {results:?}");
            assert_eq!(stats.sorted_accesses, 0, "u={u}");
            assert_eq!(stats.scored, 0, "u={u}");
        }
    }

    #[test]
    fn deadline_with_empty_space_is_exact_and_empty() {
        let model = toy_model();
        let empty = TransformedSpace::build(&model, &[]);
        let index = TaIndex::build(&empty);
        let q = TransformedSpace::query_vector(&model, UserId(0));
        let deadline = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let (results, _, completion) =
            top_n_deadline(&index, &empty, &q, 5, |_, _| true, deadline, &mut TaScratch::new());
        assert!(results.is_empty());
        assert_eq!(completion, TaCompletion::Exact);
    }

    #[test]
    fn group_structure_is_complete() {
        let model = toy_model();
        let space = cross_space(&model, 3, 2);
        let index = TaIndex::build(&space);
        assert_eq!(index.num_events(), 2);
        assert_eq!(index.num_partners(), 3);
        // CSR invariants: offsets are monotone, cover all pairs, and the
        // flat member arrays are a permutation of the pair indices.
        for offsets in [&index.event_offsets, &index.partner_offsets] {
            assert_eq!(offsets[0], 0);
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(*offsets.last().unwrap() as usize, space.len());
        }
        for members in [&index.event_members, &index.partner_members] {
            let mut sorted: Vec<u32> = members.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..space.len() as u32).collect::<Vec<_>>());
        }
        // Group membership agrees with the per-pair group ids.
        for g in 0..index.num_events() {
            let span = &index.event_members
                [index.event_offsets[g] as usize..index.event_offsets[g + 1] as usize];
            assert!(span.iter().all(|&i| space.event_gid[i as usize] as usize == g));
        }
        // The point rebuilt from rows `event_gid` / `partner_gid` of the
        // space's matrices carries the pair's own model vectors.
        let k = space.k();
        assert_eq!((space.num_events(), space.num_partners()), (2, 3));
        for i in 0..space.len() {
            let (partner, event) = space.pair(i);
            assert_eq!(&space.point(i)[0..k], model.event_vec(event));
            assert_eq!(&space.point(i)[k..2 * k], model.user_vec(partner));
        }
    }

    pub(super) fn signed_model(nu: u32, nx: u32, dim: usize, seed: u64) -> GemModel {
        let mut rng = gem_sampling::rng_from_seed(seed);
        let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.4).collect();
        let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.4).collect();
        GemModel::from_raw(dim, users, events, vec![], vec![], vec![])
    }

    /// `n ≥ pairs`: the answer is the whole candidate set, ranked. With
    /// `n > pairs` the top-n never fills, so no threshold stops the search:
    /// all three lists run dry and both group heaps are drained to empty —
    /// the worst case for lazy ordering.
    #[test]
    fn full_drain_returns_every_pair_like_brute_force() {
        let model = signed_model(30, 12, 5, 17);
        let space = cross_space(&model, 30, 12);
        let index = TaIndex::build(&space);
        let brute = BruteForce::new(&space);
        let mut scratch = TaScratch::new();
        for n in [space.len(), space.len() + 7] {
            for u in [0u32, 14, 29] {
                let q = TransformedSpace::query_vector(&model, UserId(u));
                let (ta, stats) = index.top_n_with(&space, &q, n, |_, _| true, &mut scratch);
                assert_eq!(ta.len(), space.len(), "u={u} n={n}");
                assert_eq!(stats.scored, space.len(), "u={u} n={n}");
                if n > space.len() {
                    assert_eq!(stats.sorted_accesses, 3 * space.len(), "u={u}");
                    assert!(scratch.a_groups.is_empty() && scratch.b_groups.is_empty());
                }
                let bf = brute.top_n_with(&q, n, |_, _| true, &mut BruteScratch::new());
                assert_eq!(bf.len(), ta.len());
                for (a, b) in ta.iter().zip(&bf) {
                    assert!((a.0 - b.0).abs() < 1e-5, "u={u} n={n}: {a:?} vs {b:?}");
                }
                assert_eq!((ta, stats), full_sort::search(&index, &space, &q, n, |_, _| true));
            }
        }
    }

    /// One scratch serving two indexes with different group counts (a
    /// daemon worker across a rebuild): keys, group heaps and the visited
    /// set must all resize, in both directions.
    #[test]
    fn one_scratch_serves_indexes_of_different_sizes() {
        let model = signed_model(50, 20, 6, 3);
        let big = cross_space(&model, 50, 20);
        let small = cross_space(&model, 9, 4);
        let (big_index, small_index) = (TaIndex::build(&big), TaIndex::build(&small));
        let mut scratch = TaScratch::new();
        for (space, index) in [(&big, &big_index), (&small, &small_index), (&big, &big_index)] {
            for u in [0u32, 5, 8] {
                let q = TransformedSpace::query_vector(&model, UserId(u));
                let reused = index.top_n_with(space, &q, 6, |p, _| p != UserId(u), &mut scratch);
                let fresh = top_n(index, space, &q, 6, |p, _| p != UserId(u));
                assert_eq!(reused, fresh, "u={u} pairs={}", space.len());
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{cross_space, signed_model};
    use super::*;
    use crate::brute::{BruteForce, BruteScratch};
    use gem_core::GemModel;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn check_ta_equals_bf(
        dim: usize,
        nu: u32,
        nx: u32,
        n: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = gem_sampling::rng_from_seed(seed);
        use rand::RngExt;
        let users: Vec<f32> = (0..nu as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let events: Vec<f32> = (0..nx as usize * dim).map(|_| rng.random::<f32>() - 0.3).collect();
        let model = GemModel::from_raw(dim, users, events, vec![], vec![], vec![]);
        let candidates: Vec<(UserId, EventId)> =
            (0..nu).flat_map(|p| (0..nx).map(move |x| (UserId(p), EventId(x)))).collect();
        let space = TransformedSpace::build(&model, &candidates);
        let index = TaIndex::build(&space);
        let brute = BruteForce::new(&space);
        let mut scratch = TaScratch::new();
        for u in [0u32, nu / 2, nu - 1] {
            let q = TransformedSpace::query_vector(&model, UserId(u));
            let (ta, _) = index.top_n_with(&space, &q, n, |_, _| true, &mut scratch);
            let bf = brute.top_n_with(&q, n, |_, _| true, &mut BruteScratch::new());
            prop_assert_eq!(ta.len(), bf.len());
            // One scoring expression for both: equal bits, rank by rank.
            for (a, b) in ta.iter().zip(&bf) {
                prop_assert_eq!(a.0.to_bits(), b.0.to_bits(), "u={} ta {:?} vs bf {:?}", u, a, b);
            }
        }
        Ok(())
    }

    /// Keys that stress the ordering: ties, both zeros, both infinities and
    /// NaNs of both signs.
    const KEY_PALETTE: [f32; 10] =
        [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, 1.0, 1.0, -2.5, 3.75];

    proptest! {
        /// Draining the group heap visits groups in exactly the order the
        /// full sort it replaced produced.
        #[test]
        fn heap_drain_equals_full_sort_order(
            picks in prop::collection::vec(0usize..KEY_PALETTE.len(), 0..80),
        ) {
            let keys: Vec<f32> = picks.iter().map(|&i| KEY_PALETTE[i]).collect();
            let mut sorted = Vec::new();
            full_sort::fill_order(&mut sorted, &keys);
            // Start from a dirty heap, as a reused scratch would.
            let mut groups = BinaryHeap::from(vec![GroupKey { key: 9.0, gid: 999 }]);
            heapify_groups(&mut groups, &keys);
            let mut drained = Vec::new();
            while let Some(g) = groups.pop() {
                prop_assert_eq!(g.key.to_bits(), keys[g.gid as usize].to_bits());
                drained.push(g.gid);
            }
            prop_assert_eq!(drained, sorted);
        }

        /// The lazy search is the full-sort search: same results bit for
        /// bit, same work counters — so the bound it stops on lags and
        /// moves exactly as the sorted cursor's did.
        #[test]
        fn lazy_search_equals_full_sort_search(
            dim in 2usize..7,
            nu in 2u32..40,
            nx in 1u32..16,
            n in 1usize..14,
            seed in 0u64..1000,
        ) {
            let model = signed_model(nu, nx, dim, seed);
            let space = cross_space(&model, nu, nx);
            let index = TaIndex::build(&space);
            let mut scratch = TaScratch::new();
            for u in [0u32, nu / 2, nu - 1] {
                let q = TransformedSpace::query_vector(&model, UserId(u));
                let lazy = index.top_n_with(&space, &q, n, |p, _| p != UserId(u), &mut scratch);
                let sorted = full_sort::search(&index, &space, &q, n, |p, _| p != UserId(u));
                prop_assert_eq!(lazy, sorted, "u={}", u);
            }
        }

        /// TA always returns exactly the brute-force top-n scores, for any
        /// signed model.
        #[test]
        fn ta_equals_brute_force(
            dim in 2usize..5,
            nu in 2u32..12,
            nx in 1u32..8,
            n in 1usize..6,
            seed in 0u64..50,
        ) {
            check_ta_equals_bf(dim, nu, nx, n, seed)?;
        }

        /// Same property at serving scale: ≥50 users × ≥20 events per case.
        #[test]
        fn ta_equals_brute_force_at_scale(
            dim in 2usize..6,
            nu in 50u32..65,
            nx in 20u32..30,
            n in 1usize..12,
            seed in 0u64..1000,
        ) {
            check_ta_equals_bf(dim, nu, nx, n, seed)?;
        }
    }
}
