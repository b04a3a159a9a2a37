//! The per-region content store.
//!
//! Built for GPS-stream workloads — millions of moving objects whose
//! dominant operation is *re-publish* (the same id at a new position):
//!
//! * **Slab slots + id hash.** Records live in a slab of reusable slots
//!   with an id→slot map, so a re-publish is an O(1) slot overwrite
//!   instead of the old `retain` + push over a flat `Vec`.
//! * **Uniform-grid sub-index.** Past [`INDEX_THRESHOLD`] live entries a
//!   store buckets record positions and subscription areas into a
//!   [`StoreIndex`], so range queries touch only overlapping buckets and
//!   a publish consults only its own cell's subscriber list.
//! * **HLC last-write-wins.** Every record carries an [`Hlc`] stamp
//!   minted by the store's clock; replica hand-off during split, merge,
//!   and fail-over resolves duplicate ids deterministically (larger
//!   stamp wins, incoming wins exact ties).
//! * **Expiry heap.** Deadlines are filed into one min-heap and drained
//!   as the clock advances, replacing the old per-publish full sweep;
//!   total expiry work is O(entries), not O(publishes × entries).
//!   [`RegionStore::expiry_work`] counts entries examined so tests can
//!   assert the amortization. A record slot keeps one pending deadline:
//!   a re-publish files a new entry only when its deadline comes sooner,
//!   and a drained entry whose record was renewed re-files at the
//!   record's current deadline — so heap memory scales with slots, not
//!   with publishes per TTL.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use geogrid_geometry::{GridBuckets, Point, Region};

use crate::service::{Hlc, HlcClock, LocationQuery, LocationRecord, Subscription};
use crate::NodeId;

/// Cells per axis of a store's grid. 64×64 keeps the whole index under a
/// megabyte while a million uniformly-spread records still average ~244
/// per bucket — a few microseconds of exact checks per bucket touched.
const STORE_GRID_DIM: usize = 64;

/// Live entries (records + subscriptions) below which a store stays
/// unindexed and scans linearly. Keeps the thousands of small per-region
/// stores a simulated overlay carries at a few hundred bytes each; the
/// grid is built the moment a store crosses this size.
const INDEX_THRESHOLD: usize = 256;

/// `record_due` value of a slot with no pending heap entry.
const NO_DUE: u64 = u64::MAX;

/// Record slots filed by position and subscription slots by area.
#[derive(Debug, Clone)]
struct StoreIndex {
    records: GridBuckets<u32, STORE_GRID_DIM>,
    subs: GridBuckets<u32, STORE_GRID_DIM>,
}

/// An occupied record slot: the record plus its publish stamp.
#[derive(Debug, Clone, PartialEq)]
struct RecordSlot {
    record: LocationRecord,
    stamp: Hlc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EntryKind {
    Record,
    Sub,
}

/// A scheduled deadline: validated lazily against the slot's current
/// occupant when drained, so renewals and slot reuse need no cancellation.
/// A record entry acts only while it is its slot's `record_due`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Deadline {
    at: u64,
    kind: EntryKind,
    slot: u32,
}

/// The lazy expiry queue: one min-heap of deadlines.
#[derive(Debug, Clone, Default)]
struct ExpiryHeap {
    heap: BinaryHeap<Reverse<Deadline>>,
    /// High-water mark of every `now` a mutating operation has seen.
    cursor: u64,
    /// Entries examined so far (the amortization contract for tests).
    work: u64,
}

impl ExpiryHeap {
    /// Files a deadline. One already at or behind the cursor drains on the
    /// next advance.
    fn schedule(&mut self, at: u64, kind: EntryKind, slot: u32) {
        self.heap.push(Reverse(Deadline { at, kind, slot }));
    }

    /// Pops the earliest deadline if it is due at `now`.
    fn pop_due(&mut self, now: u64) -> Option<Deadline> {
        let Reverse(head) = *self.heap.peek()?;
        if head.at > now {
            return None;
        }
        self.heap.pop();
        self.work += 1;
        Some(head)
    }
}

/// The store a region's primary owner maintains (and its secondary
/// replicates): location records published into the region plus standing
/// subscriptions watching areas that overlap it.
///
/// Equality is semantic — same live records (with stamps) and the same
/// subscriptions, regardless of slot layout or index state.
///
/// # Examples
///
/// ```
/// use geogrid_core::service::{LocationQuery, LocationRecord, RegionStore};
/// use geogrid_core::NodeId;
/// use geogrid_geometry::{Point, Region};
///
/// let mut store = RegionStore::new();
/// store.publish(LocationRecord::new(1, "traffic", Point::new(5.0, 5.0), vec![]), 0);
/// let q = LocationQuery::new(Region::new(0.0, 0.0, 10.0, 10.0), NodeId::new(1));
/// assert_eq!(store.query(&q, 0).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegionStore {
    slots: Vec<Option<RecordSlot>>,
    /// Per record slot: the deadline of its one pending heap entry, or
    /// [`NO_DUE`]. Kept across eviction, so a reused slot inherits it.
    record_due: Vec<u64>,
    free_records: Vec<u32>,
    by_id: HashMap<u64, u32>,
    subs: Vec<Option<Subscription>>,
    free_subs: Vec<u32>,
    sub_by_key: HashMap<(NodeId, u64), u32>,
    grid: Option<StoreIndex>,
    clock: HlcClock,
    expiry: ExpiryHeap,
}

impl RegionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-homes the store's HLC clock onto `node` (the owner's id), so
    /// stamps minted here are totally ordered against every other owner's.
    pub fn set_node(&mut self, node: u64) {
        self.clock.set_node(node);
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        self.by_id.len()
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.sub_by_key.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty() && self.sub_by_key.is_empty()
    }

    /// Total expiry-heap entries examined over this store's lifetime.
    /// The amortization contract: bounded by deadlines filed, independent
    /// of how many publishes observe them.
    pub fn expiry_work(&self) -> u64 {
        self.expiry.work
    }

    /// The live record with `id`, if any.
    pub fn get(&self, id: u64) -> Option<&LocationRecord> {
        let slot = *self.by_id.get(&id)?;
        self.slots[slot as usize].as_ref().map(|s| &s.record)
    }

    /// The publish stamp of the live record with `id`, if any.
    pub fn stamp_of(&self, id: u64) -> Option<Hlc> {
        let slot = *self.by_id.get(&id)?;
        self.slots[slot as usize].as_ref().map(|s| s.stamp)
    }

    /// Publishes a record, returning the subscribers to notify (the
    /// pub-sub delivery of the paper's motivating examples). A re-publish
    /// with the same id replaces the old record in place (content
    /// refresh); a record already expired at `now` still displaces any
    /// older live version but is not stored.
    pub fn publish(&mut self, record: LocationRecord, now: u64) -> Vec<NodeId> {
        let mut notified = Vec::new();
        self.publish_into(record, now, &mut notified);
        notified
    }

    /// [`Self::publish`] into a caller-recycled buffer. Subscribers are
    /// appended in ascending node order (duplicates preserved: one entry
    /// per matching subscription).
    pub fn publish_into(&mut self, record: LocationRecord, now: u64, notified: &mut Vec<NodeId>) {
        notified.clear();
        self.advance(now);
        self.notify_into(record.position(), record.topic(), now, notified);
        if record.is_expired(now) {
            self.remove_record_by_id(record.id());
            return;
        }
        let stamp = self.clock.tick(now);
        let pos = record.position();
        self.store_record(record, stamp);
        self.ensure_indexed(pos);
    }

    /// Appends the subscribers matching a publication at `pos`/`topic` to
    /// `out`, consulting only the position's grid bucket when indexed.
    fn notify_into(&self, pos: Point, topic: &str, now: u64, out: &mut Vec<NodeId>) {
        let visit = |sub: &Subscription| {
            if sub.matches(pos, topic, now) {
                out.push(sub.subscriber());
            }
        };
        match &self.grid {
            Some(grid) => grid
                .subs
                .at(pos)
                .iter()
                .filter_map(|&slot| self.subs[slot as usize].as_ref())
                .for_each(visit),
            None => self.subs.iter().flatten().for_each(visit),
        }
        out.sort_unstable();
    }

    /// Answers a location query: all live records in the query area that
    /// pass the topic filter, in ascending id order.
    pub fn query(&self, query: &LocationQuery, now: u64) -> Vec<&LocationRecord> {
        let mut out = Vec::new();
        self.for_each_match(query, now, |r| out.push(r));
        out.sort_unstable_by_key(|r| r.id());
        out
    }

    /// [`Self::query`] into a caller-recycled id buffer (ascending), the
    /// zero-allocation form for update-heavy drivers.
    pub fn query_ids_into(&self, query: &LocationQuery, now: u64, out: &mut Vec<u64>) {
        out.clear();
        self.for_each_match(query, now, |r| out.push(r.id()));
        out.sort_unstable();
    }

    /// Calls `f` on every live record `query` matches at `now`, reading
    /// only the buckets the query area overlaps when indexed.
    fn for_each_match<'a>(
        &'a self,
        query: &LocationQuery,
        now: u64,
        mut f: impl FnMut(&'a LocationRecord),
    ) {
        let visit = |s: &'a RecordSlot| {
            let r = &s.record;
            if !r.is_expired(now) && query.matches(r.position(), r.topic()) {
                f(r);
            }
        };
        match &self.grid {
            Some(grid) => grid
                .records
                .overlapping(&query.area())
                .flatten()
                .filter_map(|&slot| self.slots[slot as usize].as_ref())
                .for_each(visit),
            None => self.slots.iter().flatten().for_each(visit),
        }
    }

    /// Registers a subscription. A subscription with the same
    /// (subscriber, id) replaces the old one (renewal); one already
    /// expired at `now` cancels any existing registration.
    pub fn subscribe(&mut self, sub: Subscription, now: u64) {
        self.advance(now);
        if sub.is_expired(now) {
            self.unsubscribe(sub.subscriber(), sub.id());
            return;
        }
        self.store_sub(sub);
        self.maybe_build_index();
    }

    /// Cancels a subscription; returns whether it existed.
    pub fn unsubscribe(&mut self, subscriber: NodeId, id: u64) -> bool {
        match self.sub_by_key.get(&(subscriber, id)).copied() {
            Some(slot) => {
                self.evict_sub(slot);
                true
            }
            None => false,
        }
    }

    /// Drops expired records and subscriptions up to tick `now`
    /// (amortized: examines only entries whose deadline has arrived).
    pub fn expire(&mut self, now: u64) {
        self.advance(now);
    }

    /// Splits the store for a region split: records positioned in
    /// `other_half` move to the returned store. Subscriptions
    /// overlapping **both** halves are duplicated into both stores so no
    /// publication is missed. The new store inherits this store's clock
    /// (causality carries across the split).
    pub fn split_for(&mut self, own_half: &Region, other_half: &Region) -> RegionStore {
        let mut other = RegionStore::new();
        other.clock = self.clock.clone();
        other.expiry.cursor = self.expiry.cursor;
        for slot in 0..self.slots.len() as u32 {
            let belongs = match &self.slots[slot as usize] {
                // Half-open containment: each position lands in exactly one half.
                Some(s) => other_half.contains(s.record.position()),
                None => false,
            };
            if belongs {
                if let Some(s) = self.evict_record(slot) {
                    other.insert_replica(s.record, s.stamp);
                }
            }
        }
        for slot in 0..self.subs.len() as u32 {
            let (give, keep) = match &self.subs[slot as usize] {
                Some(s) => {
                    let in_other = s.area().intersects(other_half);
                    let in_own = s.area().intersects(own_half);
                    (in_other, in_own || !in_other)
                }
                None => (false, true),
            };
            if give {
                if let Some(s) = &self.subs[slot as usize] {
                    other.insert_sub_replica(s.clone());
                }
            }
            if !keep {
                self.evict_sub(slot);
            }
        }
        other
    }

    /// Absorbs another store (region merge / fail-over replica
    /// activation). Duplicate record ids resolve by HLC stamp — the
    /// larger stamp wins, the incoming record wins an exact tie.
    /// Duplicate subscriptions keep whichever expires later.
    pub fn absorb(&mut self, other: RegionStore) {
        // Catch up to the absorbed store's clock before merging, so both
        // sides agree on which deadlines have already passed.
        self.advance(other.expiry.cursor);
        for s in other.slots.into_iter().flatten() {
            self.insert_replica(s.record, s.stamp);
        }
        for s in other.subs.into_iter().flatten() {
            self.insert_sub_replica(s);
        }
    }

    /// Installs a replicated record with its original stamp (wire
    /// hand-off, split, merge). Last-write-wins against any existing
    /// record with the same id; the store's clock observes the stamp so
    /// future local writes order after it.
    pub fn insert_replica(&mut self, record: LocationRecord, stamp: Hlc) {
        self.clock.observe(stamp);
        let keep_existing = match self.by_id.get(&record.id()) {
            Some(&slot) => match &self.slots[slot as usize] {
                Some(existing) => existing.stamp > stamp,
                None => false,
            },
            None => false,
        };
        if keep_existing {
            return;
        }
        let pos = record.position();
        self.store_record(record, stamp);
        self.ensure_indexed(pos);
    }

    /// Replaces this replica with a full `snapshot` of the primary's
    /// store, keeping every record the snapshot's clock has not seen: a
    /// per-publish replica that overtook an older snapshot in flight must
    /// not be rolled back. This store keeps its own clock node. A snapshot
    /// decoded off the wire knows only the stamps it carries, so a replica
    /// record newer than all of them outlives its removal at the primary
    /// until a later snapshot carries a newer stamp.
    pub fn adopt_snapshot(&mut self, snapshot: RegionStore) {
        let node = self.clock.node();
        let old = std::mem::replace(self, snapshot);
        // Judge against the snapshot's own clock: inserting a kept record
        // moves `self.clock` forward.
        let seen = self.clock.clone();
        self.clock.set_node(node);
        for s in old.slots.into_iter().flatten() {
            if !seen.has_seen(s.stamp) {
                self.insert_replica(s.record, s.stamp);
            }
        }
    }

    /// Installs a replicated subscription. On a (subscriber, id)
    /// collision the later-expiring registration survives (ties keep the
    /// existing one).
    pub fn insert_sub_replica(&mut self, sub: Subscription) {
        let key = (sub.subscriber(), sub.id());
        if let Some(&slot) = self.sub_by_key.get(&key) {
            if let Some(existing) = &self.subs[slot as usize] {
                if existing.expires_at() >= sub.expires_at() {
                    return;
                }
            }
        }
        self.store_sub(sub);
        self.maybe_build_index();
    }

    /// Read-only view of live records (for replication).
    pub fn records(&self) -> impl Iterator<Item = &LocationRecord> {
        self.slots.iter().flatten().map(|s| &s.record)
    }

    /// Live records with their publish stamps (for wire hand-off: stamps
    /// must survive replication for last-write-wins to stay coherent).
    pub fn records_with_stamps(&self) -> impl Iterator<Item = (&LocationRecord, Hlc)> {
        self.slots.iter().flatten().map(|s| (&s.record, s.stamp))
    }

    /// Read-only view of subscriptions (for replication).
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.iter().flatten()
    }

    /// Drains every deadline due at `now` and evicts the entries that
    /// still hold it. A record slot whose deadline moved later re-files
    /// at it; leftover record entries and renewed or reused subscription
    /// slots validate stale and are skipped.
    fn advance(&mut self, now: u64) {
        if now <= self.expiry.cursor {
            return;
        }
        self.expiry.cursor = now;
        // A record re-filed here lies after `now`, so this drain never
        // pops it again.
        while let Some(e) = self.expiry.pop_due(now) {
            match e.kind {
                EntryKind::Record => {
                    let i = e.slot as usize;
                    if self.record_due[i] != e.at {
                        continue; // superseded by a sooner deadline
                    }
                    self.record_due[i] = NO_DUE;
                    match self.slots[i].as_ref().and_then(|s| s.record.expires_at()) {
                        Some(at) if at <= now => {
                            self.evict_record(e.slot);
                        }
                        Some(at) => {
                            self.record_due[i] = at;
                            self.expiry.schedule(at, EntryKind::Record, e.slot);
                        }
                        None => {}
                    }
                }
                EntryKind::Sub => {
                    let held = match &self.subs[e.slot as usize] {
                        Some(s) => s.expires_at() == e.at,
                        None => false,
                    };
                    if held {
                        self.evict_sub(e.slot);
                    }
                }
            }
        }
    }

    /// Empties a record slot, returning what it held.
    fn evict_record(&mut self, slot: u32) -> Option<RecordSlot> {
        let s = self.slots[slot as usize].take()?;
        self.by_id.remove(&s.record.id());
        if let Some(grid) = self.grid.as_mut() {
            grid.records.remove_at(s.record.position(), slot);
        }
        self.free_records.push(slot);
        Some(s)
    }

    fn evict_sub(&mut self, slot: u32) {
        if let Some(s) = self.subs[slot as usize].take() {
            self.sub_by_key.remove(&(s.subscriber(), s.id()));
            if let Some(grid) = self.grid.as_mut() {
                grid.subs.remove_span(&s.area(), slot);
            }
            self.free_subs.push(slot);
        }
    }

    fn remove_record_by_id(&mut self, id: u64) {
        if let Some(slot) = self.by_id.get(&id).copied() {
            self.evict_record(slot);
        }
    }

    /// Upserts a record into its slot: O(1) overwrite on re-publish, slab
    /// allocation (free list first) for a new id.
    fn store_record(&mut self, record: LocationRecord, stamp: Hlc) {
        let id = record.id();
        let pos = record.position();
        let expires = record.expires_at();
        let slot = match self.by_id.get(&id).copied() {
            Some(slot) => {
                let prev = self.slots[slot as usize].replace(RecordSlot { record, stamp });
                if let (Some(prev), Some(grid)) = (prev, self.grid.as_mut()) {
                    grid.records.move_to(slot, prev.record.position(), pos);
                }
                slot
            }
            None => {
                let slot = match self.free_records.pop() {
                    Some(s) => {
                        self.slots[s as usize] = Some(RecordSlot { record, stamp });
                        s
                    }
                    None => {
                        let s = self.slots.len() as u32;
                        self.slots.push(Some(RecordSlot { record, stamp }));
                        self.record_due.push(NO_DUE);
                        s
                    }
                };
                self.by_id.insert(id, slot);
                if let Some(grid) = self.grid.as_mut() {
                    grid.records.insert_at(pos, slot);
                }
                slot
            }
        };
        // One pending entry per slot: a later deadline than the pending one
        // is picked up when that entry drains, so renewal-heavy streams
        // file nothing.
        if let Some(at) = expires {
            let pending = &mut self.record_due[slot as usize];
            if at < *pending {
                *pending = at;
                self.expiry.schedule(at, EntryKind::Record, slot);
            }
        }
    }

    /// Upserts a subscription into its slot (renewal re-files the
    /// watched area in the grid).
    fn store_sub(&mut self, sub: Subscription) {
        let key = (sub.subscriber(), sub.id());
        let expires = sub.expires_at();
        let area = sub.area();
        let (slot, needs_schedule) = match self.sub_by_key.get(&key).copied() {
            Some(slot) => {
                let prev = self.subs[slot as usize].replace(sub);
                let mut needs_schedule = true;
                if let Some(prev) = prev {
                    if let Some(grid) = self.grid.as_mut() {
                        grid.subs.remove_span(&prev.area(), slot);
                    }
                    needs_schedule = prev.expires_at() != expires;
                }
                (slot, needs_schedule)
            }
            None => {
                let slot = match self.free_subs.pop() {
                    Some(s) => {
                        self.subs[s as usize] = Some(sub);
                        s
                    }
                    None => {
                        let s = self.subs.len() as u32;
                        self.subs.push(Some(sub));
                        s
                    }
                };
                self.sub_by_key.insert(key, slot);
                (slot, true)
            }
        };
        if let Some(grid) = self.grid.as_mut() {
            grid.subs.insert_span(&area, slot);
        }
        if needs_schedule {
            self.expiry.schedule(expires, EntryKind::Sub, slot);
        }
    }

    /// Builds the grid once the store is large enough, and rebuilds it
    /// with grown bounds when a record lands outside the covered
    /// rectangle. Clamped filings are correct either way (inserts and
    /// probes clamp identically); rebuilding restores selectivity.
    fn ensure_indexed(&mut self, pos: Point) {
        match &self.grid {
            None => self.maybe_build_index(),
            Some(grid) if !grid.records.grid().covers(pos) => self.build_grid(),
            Some(_) => {}
        }
    }

    fn maybe_build_index(&mut self) {
        if self.grid.is_none() && self.by_id.len() + self.sub_by_key.len() > INDEX_THRESHOLD {
            self.build_grid();
        }
    }

    // Allocates, but rarely: the grid (re)build fires once past
    // INDEX_THRESHOLD and at most O(log extent) times on bounds growth;
    // per-op filings never reach it.
    fn build_grid(&mut self) {
        let bounds = self.learned_bounds();
        let mut grid = StoreIndex {
            records: GridBuckets::new(bounds),
            subs: GridBuckets::new(bounds),
        };
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(s) = s {
                grid.records.insert_at(s.record.position(), i as u32);
            }
        }
        for (i, s) in self.subs.iter().enumerate() {
            if let Some(s) = s {
                grid.subs.insert_span(&s.area(), i as u32);
            }
        }
        self.grid = Some(grid);
    }

    /// Bounds for a (re)build: the bounding box of live record positions
    /// (falling back to subscription areas), doubled around its center so
    /// nearby movement doesn't trigger immediate rebuilds, then unioned
    /// with any previous bounds so growth is monotone (at most
    /// O(log extent) rebuilds ever).
    fn learned_bounds(&self) -> Region {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for s in self.slots.iter().flatten() {
            let p = s.record.position();
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if min_x > max_x {
            for s in self.subs.iter().flatten() {
                let a = s.area();
                min_x = min_x.min(a.x());
                min_y = min_y.min(a.y());
                max_x = max_x.max(a.east());
                max_y = max_y.max(a.north());
            }
        }
        if min_x > max_x {
            return Region::new(0.0, 0.0, 1.0, 1.0);
        }
        let w = (max_x - min_x).max(1.0);
        let h = (max_y - min_y).max(1.0);
        let grown = Region::new(min_x - w / 2.0, min_y - h / 2.0, w * 2.0, h * 2.0);
        match &self.grid {
            Some(grid) => {
                let old = grid.records.grid().bounds();
                let x = grown.x().min(old.x());
                let y = grown.y().min(old.y());
                let east = grown.east().max(old.east());
                let north = grown.north().max(old.north());
                Region::new(x, y, east - x, north - y)
            }
            None => grown,
        }
    }
}

/// Semantic equality: same live records (including stamps) and the same
/// subscriptions, independent of slot layout, free lists, or index
/// state.
impl PartialEq for RegionStore {
    fn eq(&self, other: &Self) -> bool {
        if self.by_id.len() != other.by_id.len() || self.sub_by_key.len() != other.sub_by_key.len()
        {
            return false;
        }
        for s in self.slots.iter().flatten() {
            let matched = match other.by_id.get(&s.record.id()) {
                Some(&slot) => match &other.slots[slot as usize] {
                    Some(o) => o.record == s.record && o.stamp == s.stamp,
                    None => false,
                },
                None => false,
            };
            if !matched {
                return false;
            }
        }
        for s in self.subs.iter().flatten() {
            let matched = match other.sub_by_key.get(&(s.subscriber(), s.id())) {
                Some(&slot) => match &other.subs[slot as usize] {
                    Some(o) => o == s,
                    None => false,
                },
                None => false,
            };
            if !matched {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for RegionStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store: {} records, {} subscriptions",
            self.record_count(),
            self.subscription_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogrid_geometry::Point;

    fn record(id: u64, x: f64, y: f64, topic: &str) -> LocationRecord {
        LocationRecord::new(id, topic, Point::new(x, y), vec![])
    }

    #[test]
    fn publish_notifies_matching_subscribers() {
        let mut store = RegionStore::new();
        store.subscribe(
            Subscription::new(1, Region::new(0.0, 0.0, 10.0, 10.0), NodeId::new(5), 1000)
                .with_topic("traffic"),
            0,
        );
        store.subscribe(
            Subscription::new(1, Region::new(0.0, 0.0, 10.0, 10.0), NodeId::new(6), 1000),
            0,
        );
        let notified = store.publish(record(1, 5.0, 5.0, "traffic"), 10);
        assert_eq!(notified.len(), 2);
        let notified = store.publish(record(2, 5.0, 5.0, "parking"), 10);
        assert_eq!(notified, vec![NodeId::new(6)]);
        let notified = store.publish(record(3, 50.0, 5.0, "traffic"), 10);
        assert!(notified.is_empty());
    }

    #[test]
    fn republish_replaces_by_id() {
        let mut store = RegionStore::new();
        store.publish(record(1, 1.0, 1.0, "t"), 0);
        store.publish(record(1, 2.0, 2.0, "t"), 0);
        assert_eq!(store.record_count(), 1);
        assert_eq!(
            store.records().next().map(LocationRecord::position),
            Some(Point::new(2.0, 2.0))
        );
    }

    #[test]
    fn query_filters_by_area_topic_and_expiry() {
        let mut store = RegionStore::new();
        store.publish(record(1, 1.0, 1.0, "a"), 0);
        store.publish(record(2, 2.0, 2.0, "b").with_expiry(5), 0);
        store.publish(record(3, 50.0, 50.0, "a"), 0);
        let q = LocationQuery::new(Region::new(0.0, 0.0, 10.0, 10.0), NodeId::new(1));
        assert_eq!(store.query(&q, 0).len(), 2);
        assert_eq!(store.query(&q, 10).len(), 1); // record 2 expired
        let qa = q.clone().with_topic("a");
        assert_eq!(store.query(&qa, 0).len(), 1);
    }

    #[test]
    fn expiry_sweeps_both_kinds() {
        let mut store = RegionStore::new();
        store.publish(record(1, 1.0, 1.0, "t").with_expiry(10), 0);
        store.subscribe(
            Subscription::new(1, Region::new(0.0, 0.0, 4.0, 4.0), NodeId::new(1), 10),
            0,
        );
        store.expire(10);
        assert!(store.is_empty());
    }

    #[test]
    fn unsubscribe_by_id() {
        let mut store = RegionStore::new();
        store.subscribe(
            Subscription::new(1, Region::new(0.0, 0.0, 4.0, 4.0), NodeId::new(1), 100),
            0,
        );
        assert!(store.unsubscribe(NodeId::new(1), 1));
        assert!(!store.unsubscribe(NodeId::new(1), 1));
        assert_eq!(store.subscription_count(), 0);
    }

    #[test]
    fn split_partitions_records_and_duplicates_spanning_subs() {
        let parent = Region::new(0.0, 0.0, 10.0, 10.0);
        let (low, high) = parent.split(geogrid_geometry::SplitAxis::Latitude);
        let mut store = RegionStore::new();
        store.publish(record(1, 5.0, 2.0, "t"), 0); // low half
        store.publish(record(2, 5.0, 8.0, "t"), 0); // high half
        store.subscribe(
            Subscription::new(1, Region::new(4.0, 4.0, 2.0, 2.0), NodeId::new(1), 100),
            0,
        ); // spans the cut at y=5
        let other = store.split_for(&low, &high);
        assert_eq!(store.record_count(), 1);
        assert_eq!(other.record_count(), 1);
        assert_eq!(store.subscription_count(), 1);
        assert_eq!(other.subscription_count(), 1);
    }

    #[test]
    fn absorb_deduplicates() {
        let mut a = RegionStore::new();
        let mut b = RegionStore::new();
        a.publish(record(1, 1.0, 1.0, "t"), 0);
        b.publish(record(1, 2.0, 2.0, "t"), 0);
        b.publish(record(2, 3.0, 3.0, "t"), 0);
        let sub = Subscription::new(1, Region::new(0.0, 0.0, 4.0, 4.0), NodeId::new(1), 100);
        a.subscribe(sub.clone(), 0);
        b.subscribe(sub, 0);
        a.absorb(b);
        assert_eq!(a.record_count(), 2);
        assert_eq!(a.subscription_count(), 1);
    }

    #[test]
    fn absorb_resolves_duplicate_ids_by_hlc() {
        let mut a = RegionStore::new();
        a.set_node(1);
        let mut b = RegionStore::new();
        b.set_node(2);
        a.publish(record(1, 1.0, 1.0, "t"), 5); // stamp (5, 0, n1)
        b.publish(record(1, 2.0, 2.0, "t"), 3); // stamp (3, 0, n2): older write
        a.absorb(b);
        assert_eq!(
            a.get(1).map(LocationRecord::position),
            Some(Point::new(1.0, 1.0))
        );
        // Absorbing pulls the clock forward: a later local write at a
        // stalled tick still out-stamps the absorbed record.
        let mut c = RegionStore::new();
        c.set_node(3);
        c.publish(record(2, 0.0, 0.0, "t"), 9); // stamp (9, 0, n3)
        a.absorb(c);
        a.publish(record(2, 5.0, 5.0, "t"), 0); // local tick stalled at 0
        assert_eq!(
            a.get(2).map(LocationRecord::position),
            Some(Point::new(5.0, 5.0))
        );
    }

    #[test]
    fn expired_on_arrival_publish_tombstones_the_old_version() {
        let mut store = RegionStore::new();
        store.publish(record(1, 1.0, 1.0, "t"), 0);
        store.publish(record(1, 2.0, 2.0, "t").with_expiry(5), 10);
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn expiry_work_is_amortized_across_publishes() {
        let mut store = RegionStore::new();
        let m = 500u64;
        for i in 0..m {
            store.publish(record(i, 1.0, 1.0, "t").with_expiry(10), 0);
        }
        let n = 500u64;
        for i in 0..n {
            store.publish(record(m + i, 2.0, 2.0, "t"), 11 + i);
        }
        assert_eq!(store.record_count(), n as usize);
        // Each of the M expired deadlines is examined once when the clock
        // first passes it — not once per subsequent publish (the old
        // per-publish sweep was O(N·M) here).
        assert!(
            store.expiry_work() <= m + 4 * n,
            "expiry work {} is not amortized",
            store.expiry_work()
        );
    }

    #[test]
    fn far_future_expiries_wait_in_the_heap() {
        let mut store = RegionStore::new();
        store.publish(record(1, 1.0, 1.0, "t").with_expiry(10_000), 0);
        store.subscribe(
            Subscription::new(1, Region::new(0.0, 0.0, 4.0, 4.0), NodeId::new(1), 500),
            0,
        );
        store.expire(400);
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.subscription_count(), 1);
        store.expire(9_999);
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.subscription_count(), 0);
        store.expire(10_000);
        assert!(store.is_empty());
    }

    #[test]
    fn renewal_outruns_the_old_deadline() {
        let mut store = RegionStore::new();
        store.publish(record(1, 1.0, 1.0, "t").with_expiry(5), 0);
        store.publish(record(1, 1.0, 1.0, "t").with_expiry(50), 1);
        store.expire(10); // the superseded deadline must validate stale
        assert_eq!(store.record_count(), 1);
        store.expire(50);
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn renewals_keep_one_heap_entry_per_slot() {
        const TTL: u64 = 3_600_000;
        let pending = |s: &RegionStore| s.expiry.heap.len();
        let mut store = RegionStore::new();
        for now in 0..100u64 {
            for id in 0..100u64 {
                store.publish(record(id, 1.0, 1.0, "t").with_expiry(now + TTL), now);
            }
            let n = pending(&store);
            assert!(n <= 100, "{n} heap entries pending");
        }
        // Renewed deadlines still fire, each once the record's latest one
        // has passed.
        store.expire(TTL + 98);
        assert_eq!(store.record_count(), 100);
        store.expire(TTL + 99);
        assert_eq!(store.record_count(), 0);
        // A deadline moved sooner files its own entry and wins.
        store.publish(record(1, 1.0, 1.0, "t").with_expiry(2 * TTL), TTL + 100);
        store.publish(record(1, 1.0, 1.0, "t").with_expiry(TTL + 200), TTL + 101);
        store.expire(TTL + 200);
        assert!(store.is_empty());
    }

    #[test]
    fn adopting_a_snapshot_keeps_newer_replicas() {
        let mut primary = RegionStore::new();
        primary.set_node(1);
        primary.publish(record(1, 1.0, 1.0, "t"), 5);
        primary.publish(record(2, 2.0, 2.0, "t"), 5);
        let snapshot = primary.clone();
        primary.publish(record(3, 3.0, 3.0, "t"), 9);

        let mut replica = RegionStore::new();
        replica.set_node(2);
        for (r, stamp) in primary.records_with_stamps() {
            replica.insert_replica(r.clone(), stamp);
        }
        // Seen by the snapshot's clock but not in it: removed since.
        replica.insert_replica(record(4, 4.0, 4.0, "t"), Hlc::new(4, 0, 1));
        replica.adopt_snapshot(snapshot);
        assert_eq!(replica, primary); // 3 kept, 4 dropped
        assert_eq!(replica.clock.node(), 2);
    }

    #[test]
    fn indexed_store_matches_linear_semantics() {
        let mut store = RegionStore::new();
        for i in 0..400u64 {
            store.publish(record(i, (i % 20) as f64, (i / 20) as f64, "t"), 0);
        }
        assert_eq!(store.record_count(), 400);
        let q = LocationQuery::new(Region::new(0.0, 0.0, 5.0, 5.0), NodeId::new(1));
        assert_eq!(store.query(&q, 1).len(), 36); // closed edges: 6×6 lattice points
                                                  // Fan-out through the bucket index.
        store.subscribe(
            Subscription::new(1, Region::new(3.0, 3.0, 2.0, 2.0), NodeId::new(9), 100),
            0,
        );
        let notified = store.publish(record(1000, 4.0, 4.0, "t"), 1);
        assert_eq!(notified, vec![NodeId::new(9)]);
        let notified = store.publish(record(1001, 15.0, 15.0, "t"), 1);
        assert!(notified.is_empty());
        // Zero-allocation query path agrees with the allocating one.
        let mut ids = Vec::new();
        store.query_ids_into(&q, 1, &mut ids);
        let expected: Vec<u64> = store.query(&q, 1).iter().map(|r| r.id()).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn semantic_equality_ignores_slot_layout() {
        let mut a = RegionStore::new();
        let mut b = RegionStore::new();
        a.publish(record(1, 1.0, 1.0, "t"), 0);
        a.publish(record(2, 2.0, 2.0, "t"), 0);
        // Same content, different slot order and churn history.
        b.publish(record(9, 9.0, 9.0, "t"), 0);
        b.publish(record(2, 2.0, 2.0, "t"), 0);
        b.publish(record(9, 9.0, 9.0, "t").with_expiry(1), 2); // tombstone id 9
        b.publish(record(1, 1.0, 1.0, "t"), 0);
        // Stamps differ (different publish histories), so install a's
        // stamped records verbatim into a fresh store instead.
        let mut c = RegionStore::new();
        for (r, stamp) in a.records_with_stamps() {
            c.insert_replica(r.clone(), stamp);
        }
        assert_eq!(a, c);
        assert_ne!(a, b); // same ids for 1 and 2 but different stamps
        assert_eq!(b.record_count(), 2);
    }
}
