//! Protocol messages exchanged between GeoGrid nodes.
//!
//! §2.2 distinguishes management messages (join, split, heartbeat,
//! routing-table maintenance) from application messages (queries,
//! publications, notifications) — both appear here; the application ones
//! carry the geographic coordinates GeoGrid routing requires.
//!
//! Four kinds are routed hop by hop toward a coordinate and carry a hop
//! count: [`Message::JoinRequest`], [`Message::Query`],
//! [`Message::Publish`] and [`Message::Subscribe`]. Ownership of a region
//! changes hands through exactly one kind, [`Message::Install`].

use geogrid_geometry::Region;

use crate::service::{Hlc, LocationQuery, LocationRecord, RegionStore, Subscription};
use crate::{NodeId, NodeInfo};

/// What one node knows about a neighbor region: its rectangle and owners.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborInfo {
    /// The neighbor's primary owner.
    pub primary: NodeInfo,
    /// The neighbor's secondary owner, if full.
    pub secondary: Option<NodeInfo>,
    /// The neighbor's region.
    pub region: Region,
}

impl NeighborInfo {
    /// Creates an entry for a half-full region.
    pub fn new(primary: NodeInfo, region: Region) -> Self {
        Self {
            primary,
            secondary: None,
            region,
        }
    }
}

/// A GeoGrid protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A joining node's request, routed geographically toward the
    /// joiner's own coordinate.
    JoinRequest {
        /// The joining node.
        joiner: NodeInfo,
        /// Hops taken so far (loop guard).
        hops: u32,
    },
    /// Direct hand-off of a join to a specific owner chosen by the
    /// covering region's dual-peer placement probe.
    JoinDirected {
        /// The joining node.
        joiner: NodeInfo,
    },
    /// The one ownership hand-off (§2.3): "you now own `region`, with
    /// these owners, neighbors and data". Sent to a joiner given half of a
    /// split or the free seat of a half-full region, to a secondary given
    /// the other half of its region's split or the whole of it when its
    /// primary departs, to a stolen secondary made primary of an
    /// overloaded region (§2.4 (a)/(e)), and by a freshly seated primary
    /// to the secondary it inherited. The receiver takes whichever seat
    /// names it.
    Install {
        /// The region to own.
        region: Region,
        /// The region's primary owner.
        primary: NodeInfo,
        /// The region's secondary owner, if it is full.
        secondary: Option<NodeInfo>,
        /// Neighbor entries for the region — replicated to a secondary so
        /// that, once promoted, it can take over routing immediately.
        neighbors: Vec<NeighborInfo>,
        /// The region's records and subscriptions (a secondary's replica).
        store: Box<RegionStore>,
    },
    /// Routing-table maintenance: upsert this region entry (keyed by
    /// rectangle) in your neighbor list — or drop it if no longer
    /// adjacent to you.
    NeighborUpdate {
        /// The updated entry.
        info: NeighborInfo,
    },
    /// A location query being routed/fanned out.
    Query {
        /// The query.
        query: LocationQuery,
        /// Correlation id assigned by the issuing engine; echoed in every
        /// [`Message::QueryReply`] so clients can gather the fan-out's
        /// partial results.
        query_id: u64,
        /// Node to send results to.
        reply_to: NodeId,
        /// Hops taken so far (loop guard).
        hops: u32,
        /// True once the executor region was reached and the message is
        /// fanning out to overlapping neighbors (no more greedy routing).
        fanout: bool,
    },
    /// Records answering a query.
    QueryReply {
        /// Correlation id from the query.
        query_id: u64,
        /// Matching records.
        records: Vec<LocationRecord>,
    },
    /// A publication being routed to the region covering its position.
    Publish {
        /// The record.
        record: LocationRecord,
        /// Hops taken so far (loop guard).
        hops: u32,
    },
    /// A subscription being routed to the region covering its area center.
    Subscribe {
        /// The subscription.
        sub: Subscription,
        /// Hops taken so far (loop guard).
        hops: u32,
        /// True once the covering region was reached and the message is
        /// fanning out to neighbors overlapping the subscribed area.
        fanout: bool,
    },
    /// Notification of a publication matching a subscription.
    Notify {
        /// The matching record.
        record: LocationRecord,
    },
    /// Liveness probe. Primaries heartbeat their secondary at high
    /// frequency and their neighbor primaries at lower frequency (§2.3).
    /// Doubles as the periodic workload-statistics exchange of §2.4:
    /// "each node periodically exchanges workload statistic information
    /// with its neighbors".
    Heartbeat {
        /// The sender's current view of itself (region + role), letting
        /// receivers refresh routing entries cheaply.
        info: NeighborInfo,
        /// The sender's measured workload index (served load over
        /// capacity) for the last statistics window.
        index: f64,
    },
    /// Load-balance adaptation request (mechanisms (a) and (e) of §2.4):
    /// the overloaded sender asks the receiver — a neighbor primary
    /// holding a secondary stronger than the sender — to give that
    /// secondary up.
    StealSecondaryRequest {
        /// The overloaded requester.
        requester: NodeInfo,
        /// The requester's workload index (the receiver may deny if it is
        /// itself hotter).
        index: f64,
        /// True for mechanism (e): the requester will take the donated
        /// secondary's place as the receiver's new secondary (a swap);
        /// false for mechanism (a): the requester retires to secondary of
        /// its own region.
        swap: bool,
    },
    /// The donor grants the steal: it has detached its secondary.
    StealSecondaryGrant {
        /// The detached node (the requester must now hand its region's
        /// primaryship to it with [`Message::Install`]).
        secondary: NodeInfo,
        /// The donor's region (for `swap = true`, the requester becomes
        /// this region's secondary).
        donor_region: Region,
        /// Echo of the request's `swap` flag.
        swap: bool,
    },
    /// The donor refuses (no secondary anymore, or it is hotter itself).
    StealSecondaryDeny,
    /// Graceful departure notice from a secondary to its primary (§2.3
    /// "Node Departure": the region is simply marked half-full).
    LeaveNotice,
    /// A departing sole owner hands its region to the neighbor whose
    /// rectangle re-forms a rectangle with it; the receiver absorbs
    /// region and store.
    MergeRegions {
        /// The departing owner's region.
        region: Region,
        /// Its store contents.
        store: Box<RegionStore>,
        /// Its neighbor table (the absorber unions it with its own).
        neighbors: Vec<NeighborInfo>,
    },
    /// From a primary to its secondary: "you have been granted away to an
    /// overloaded region; stop considering yourself my secondary and wait
    /// for the [`Message::Install`]." Without this, the detached secondary
    /// would time out its silent ex-primary and promote itself — forking
    /// ownership.
    Detached,
    /// Coverage ring-check: "does anyone know a live owner of this
    /// region?" Sent to all neighbors before a silent region is absorbed,
    /// so a promoted secondary the asker never learned about (its
    /// promotion announcement went to a stale table) can be discovered
    /// through third parties.
    WhoOwns {
        /// The region whose ownership is in question.
        region: Region,
    },
    /// Answer to [`Message::WhoOwns`]: a live entry for (part of) the
    /// asked region.
    OwnerIs {
        /// The known owner entry.
        info: NeighborInfo,
    },
    /// Primary → secondary anti-entropy, every fifth tick: a full store
    /// snapshot and the neighbor table. Records travel one by one in
    /// [`Message::Replicate`]; this snapshot is how a secondary learns of
    /// subscriptions, removals and neighbor changes. It replaces the
    /// replica but keeps records newer than the snapshot's clock, since a
    /// `Replicate` can overtake it.
    SyncState {
        /// Full store snapshot.
        store: Box<RegionStore>,
        /// Current neighbor table.
        neighbors: Vec<NeighborInfo>,
    },
    /// Primary → secondary, once per executed publish: the record as
    /// stored, with its stamp, for the secondary to merge last-write-wins.
    Replicate {
        /// The stored record.
        record: LocationRecord,
        /// The stamp the primary's store gave it.
        stamp: Hlc,
    },
}

impl Message {
    /// A short label for tracing and per-kind statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::JoinRequest { .. } => "join_request",
            Message::JoinDirected { .. } => "join_directed",
            Message::Install { .. } => "install",
            Message::NeighborUpdate { .. } => "neighbor_update",
            Message::Query { .. } => "query",
            Message::QueryReply { .. } => "query_reply",
            Message::Publish { .. } => "publish",
            Message::Subscribe { .. } => "subscribe",
            Message::Notify { .. } => "notify",
            Message::Heartbeat { .. } => "heartbeat",
            Message::SyncState { .. } => "sync_state",
            Message::Replicate { .. } => "replicate",
            Message::StealSecondaryRequest { .. } => "steal_secondary_request",
            Message::StealSecondaryGrant { .. } => "steal_secondary_grant",
            Message::StealSecondaryDeny => "steal_secondary_deny",
            Message::LeaveNotice => "leave_notice",
            Message::MergeRegions { .. } => "merge_regions",
            Message::Detached => "detached",
            Message::WhoOwns { .. } => "who_owns",
            Message::OwnerIs { .. } => "owner_is",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogrid_geometry::Point;

    #[test]
    fn kinds_are_distinct_for_core_messages() {
        let info = NodeInfo::new(NodeId::new(1), Point::new(1.0, 1.0), 10.0);
        let m1 = Message::JoinRequest {
            joiner: info,
            hops: 0,
        };
        let m2 = Message::Heartbeat {
            info: NeighborInfo::new(info, Region::new(0.0, 0.0, 1.0, 1.0)),
            index: 0.5,
        };
        assert_ne!(m1.kind(), m2.kind());
        assert_eq!(m1.kind(), "join_request");
    }
}
