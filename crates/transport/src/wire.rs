//! The binary wire format.
//!
//! Hand-rolled, explicit, and versioned: every GeoGrid protocol message
//! encodes to a tagged binary body. Numbers are little-endian; strings and
//! byte blobs are length-prefixed with `u32`. The first byte of every
//! encoded envelope is the wire version ([`WIRE_VERSION`]).

use std::error::Error;
use std::fmt;
use std::net::SocketAddr;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use geogrid_core::engine::{Message, NeighborInfo};
use geogrid_core::service::{Hlc, LocationQuery, LocationRecord, RegionStore, Subscription};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Region};

/// Current wire protocol version.
pub const WIRE_VERSION: u8 = 2;

/// Maximum accepted string/blob length (16 MiB) — guards against corrupt
/// or hostile length prefixes.
const MAX_BLOB: usize = 16 * 1024 * 1024;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes while a field was expected.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown message/field tag.
    BadTag(u8),
    /// A length prefix exceeded sanity bounds.
    BadLength(usize),
    /// A decoded string was not UTF-8.
    BadUtf8,
    /// A decoded socket address failed to parse.
    BadAddr,
    /// A decoded float was not finite where finiteness is required.
    BadFloat,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadLength(n) => write!(f, "length {n} exceeds limits"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadAddr => write!(f, "invalid socket address"),
            WireError::BadFloat => write!(f, "non-finite float where finite required"),
        }
    }
}

impl Error for WireError {}

/// The unit the transport moves: a message plus the routing metadata the
/// receiver needs (who sent it, where peers can be reached).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The sending node.
    pub sender: NodeInfo,
    /// The sender's listening address.
    pub sender_addr: SocketAddr,
    /// Address book entries for every node id referenced by `message`,
    /// so the receiver can contact them.
    pub addrs: Vec<(NodeId, SocketAddr)>,
    /// The protocol message.
    pub message: Message,
}

// ---------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        if self.buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        if self.buf.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        if self.buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        Ok(self.buf.get_u64_le())
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        if self.buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        Ok(self.buf.get_f64_le())
    }

    fn finite_f64(&mut self) -> Result<f64, WireError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(WireError::BadFloat)
        }
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_BLOB {
            return Err(WireError::BadLength(len));
        }
        if self.buf.remaining() < len {
            return Err(WireError::Truncated);
        }
        let mut out = vec![0u8; len];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    fn done(&self) -> bool {
        !self.buf.has_remaining()
    }
}

fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

fn put_string(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

// ---------------------------------------------------------------------
// Domain encoders/decoders
// ---------------------------------------------------------------------

fn put_point(buf: &mut BytesMut, p: Point) {
    buf.put_f64_le(p.x);
    buf.put_f64_le(p.y);
}

fn get_point(r: &mut Reader<'_>) -> Result<Point, WireError> {
    Ok(Point::new(r.finite_f64()?, r.finite_f64()?))
}

fn put_region(buf: &mut BytesMut, region: Region) {
    buf.put_f64_le(region.x());
    buf.put_f64_le(region.y());
    buf.put_f64_le(region.width());
    buf.put_f64_le(region.height());
}

fn get_region(r: &mut Reader<'_>) -> Result<Region, WireError> {
    let x = r.finite_f64()?;
    let y = r.finite_f64()?;
    let w = r.finite_f64()?;
    let h = r.finite_f64()?;
    if w <= 0.0 || h <= 0.0 {
        return Err(WireError::BadFloat);
    }
    Ok(Region::new(x, y, w, h))
}

fn put_node_info(buf: &mut BytesMut, info: NodeInfo) {
    buf.put_u64_le(info.id().as_u64());
    put_point(buf, info.coord());
    buf.put_f64_le(info.capacity());
}

fn get_node_info(r: &mut Reader<'_>) -> Result<NodeInfo, WireError> {
    let id = NodeId::new(r.u64()?);
    let coord = get_point(r)?;
    let cap = r.finite_f64()?;
    if cap <= 0.0 {
        return Err(WireError::BadFloat);
    }
    Ok(NodeInfo::new(id, coord, cap))
}

fn put_opt_node_info(buf: &mut BytesMut, info: Option<NodeInfo>) {
    match info {
        Some(i) => {
            buf.put_u8(1);
            put_node_info(buf, i);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_node_info(r: &mut Reader<'_>) -> Result<Option<NodeInfo>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_node_info(r)?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_neighbor(buf: &mut BytesMut, n: &NeighborInfo) {
    put_node_info(buf, n.primary);
    put_opt_node_info(buf, n.secondary);
    put_region(buf, n.region);
}

fn get_neighbor(r: &mut Reader<'_>) -> Result<NeighborInfo, WireError> {
    Ok(NeighborInfo {
        primary: get_node_info(r)?,
        secondary: get_opt_node_info(r)?,
        region: get_region(r)?,
    })
}

fn put_neighbors(buf: &mut BytesMut, ns: &[NeighborInfo]) {
    buf.put_u32_le(ns.len() as u32);
    for n in ns {
        put_neighbor(buf, n);
    }
}

fn get_neighbors(r: &mut Reader<'_>) -> Result<Vec<NeighborInfo>, WireError> {
    let n = r.u32()? as usize;
    if n > 1_000_000 {
        return Err(WireError::BadLength(n));
    }
    (0..n).map(|_| get_neighbor(r)).collect()
}

fn put_record(buf: &mut BytesMut, rec: &LocationRecord) {
    buf.put_u64_le(rec.id());
    put_string(buf, rec.topic());
    put_point(buf, rec.position());
    put_bytes(buf, rec.payload());
    match rec.expires_at() {
        Some(t) => {
            buf.put_u8(1);
            buf.put_u64_le(t);
        }
        None => buf.put_u8(0),
    }
}

fn get_record(r: &mut Reader<'_>) -> Result<LocationRecord, WireError> {
    let id = r.u64()?;
    let topic = r.string()?;
    if topic.is_empty() {
        return Err(WireError::BadLength(0));
    }
    let position = get_point(r)?;
    let payload = r.bytes()?;
    let rec = LocationRecord::new(id, topic, position, payload);
    Ok(match r.u8()? {
        0 => rec,
        1 => rec.with_expiry(r.u64()?),
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_stamp(buf: &mut BytesMut, stamp: Hlc) {
    buf.put_u64_le(stamp.physical());
    buf.put_u32_le(stamp.logical());
    buf.put_u64_le(stamp.node());
}

fn get_stamp(r: &mut Reader<'_>) -> Result<Hlc, WireError> {
    Ok(Hlc::new(r.u64()?, r.u32()?, r.u64()?))
}

fn put_subscription(buf: &mut BytesMut, sub: &Subscription) {
    buf.put_u64_le(sub.id());
    put_region(buf, sub.area());
    buf.put_u64_le(sub.subscriber().as_u64());
    buf.put_u64_le(sub.expires_at());
    match sub.topic() {
        Some(t) => {
            buf.put_u8(1);
            put_string(buf, t);
        }
        None => buf.put_u8(0),
    }
}

fn get_subscription(r: &mut Reader<'_>) -> Result<Subscription, WireError> {
    let id = r.u64()?;
    let area = get_region(r)?;
    let subscriber = NodeId::new(r.u64()?);
    let expires = r.u64()?;
    let sub = Subscription::new(id, area, subscriber, expires);
    Ok(match r.u8()? {
        0 => sub,
        1 => sub.with_topic(r.string()?),
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_store(buf: &mut BytesMut, store: &RegionStore) {
    // Records travel with their HLC stamps: the receiver installs them as
    // replicas, so last-write-wins stays coherent across the hand-off.
    buf.put_u32_le(store.record_count() as u32);
    for (rec, stamp) in store.records_with_stamps() {
        put_record(buf, rec);
        put_stamp(buf, stamp);
    }
    buf.put_u32_le(store.subscription_count() as u32);
    for sub in store.subscriptions() {
        put_subscription(buf, sub);
    }
}

fn get_store(r: &mut Reader<'_>) -> Result<RegionStore, WireError> {
    let mut store = RegionStore::new();
    let n = r.u32()? as usize;
    if n > 10_000_000 {
        return Err(WireError::BadLength(n));
    }
    for _ in 0..n {
        let rec = get_record(r)?;
        store.insert_replica(rec, get_stamp(r)?);
    }
    let m = r.u32()? as usize;
    if m > 10_000_000 {
        return Err(WireError::BadLength(m));
    }
    for _ in 0..m {
        store.insert_sub_replica(get_subscription(r)?);
    }
    Ok(store)
}

fn put_query(buf: &mut BytesMut, q: &LocationQuery) {
    put_region(buf, q.area());
    buf.put_u64_le(q.issuer().as_u64());
    match q.topic() {
        Some(t) => {
            buf.put_u8(1);
            put_string(buf, t);
        }
        None => buf.put_u8(0),
    }
}

fn get_query(r: &mut Reader<'_>) -> Result<LocationQuery, WireError> {
    let area = get_region(r)?;
    let issuer = NodeId::new(r.u64()?);
    let q = LocationQuery::new(area, issuer);
    Ok(match r.u8()? {
        0 => q,
        1 => q.with_topic(r.string()?),
        t => return Err(WireError::BadTag(t)),
    })
}

// ---------------------------------------------------------------------
// Message encoding
// ---------------------------------------------------------------------

// Tags 3, 4, 5 and 17 belonged to the four version-1 hand-off messages
// that `Install` replaced; they are not reused.
const TAG_JOIN_REQUEST: u8 = 1;
const TAG_JOIN_DIRECTED: u8 = 2;
const TAG_NEIGHBOR_UPDATE: u8 = 6;
const TAG_QUERY: u8 = 7;
const TAG_QUERY_REPLY: u8 = 8;
const TAG_PUBLISH: u8 = 9;
const TAG_SUBSCRIBE: u8 = 10;
const TAG_NOTIFY: u8 = 11;
const TAG_HEARTBEAT: u8 = 12;
const TAG_SYNC_STATE: u8 = 13;
const TAG_STEAL_REQUEST: u8 = 14;
const TAG_STEAL_GRANT: u8 = 15;
const TAG_STEAL_DENY: u8 = 16;
const TAG_LEAVE_NOTICE: u8 = 18;
const TAG_MERGE_REGIONS: u8 = 19;
const TAG_WHO_OWNS: u8 = 20;
const TAG_OWNER_IS: u8 = 21;
const TAG_DETACHED: u8 = 22;
const TAG_INSTALL: u8 = 23;
const TAG_REPLICATE: u8 = 24;

fn put_message(buf: &mut BytesMut, message: &Message) {
    match message {
        Message::JoinRequest { joiner, hops } => {
            buf.put_u8(TAG_JOIN_REQUEST);
            put_node_info(buf, *joiner);
            buf.put_u32_le(*hops);
        }
        Message::JoinDirected { joiner } => {
            buf.put_u8(TAG_JOIN_DIRECTED);
            put_node_info(buf, *joiner);
        }
        Message::Install {
            region,
            primary,
            secondary,
            neighbors,
            store,
        } => {
            buf.put_u8(TAG_INSTALL);
            put_region(buf, *region);
            put_node_info(buf, *primary);
            put_opt_node_info(buf, *secondary);
            put_neighbors(buf, neighbors);
            put_store(buf, store);
        }
        Message::NeighborUpdate { info } => {
            buf.put_u8(TAG_NEIGHBOR_UPDATE);
            put_neighbor(buf, info);
        }
        Message::Query {
            query,
            query_id,
            reply_to,
            hops,
            fanout,
        } => {
            buf.put_u8(TAG_QUERY);
            put_query(buf, query);
            buf.put_u64_le(*query_id);
            buf.put_u64_le(reply_to.as_u64());
            buf.put_u32_le(*hops);
            buf.put_u8(*fanout as u8);
        }
        Message::QueryReply { query_id, records } => {
            buf.put_u8(TAG_QUERY_REPLY);
            buf.put_u64_le(*query_id);
            buf.put_u32_le(records.len() as u32);
            for rec in records {
                put_record(buf, rec);
            }
        }
        Message::Replicate { record, stamp } => {
            buf.put_u8(TAG_REPLICATE);
            put_record(buf, record);
            put_stamp(buf, *stamp);
        }
        Message::Publish { record, hops } => {
            buf.put_u8(TAG_PUBLISH);
            put_record(buf, record);
            buf.put_u32_le(*hops);
        }
        Message::Subscribe { sub, hops, fanout } => {
            buf.put_u8(TAG_SUBSCRIBE);
            put_subscription(buf, sub);
            buf.put_u32_le(*hops);
            buf.put_u8(*fanout as u8);
        }
        Message::Notify { record } => {
            buf.put_u8(TAG_NOTIFY);
            put_record(buf, record);
        }
        Message::Heartbeat { info, index } => {
            buf.put_u8(TAG_HEARTBEAT);
            put_neighbor(buf, info);
            buf.put_f64_le(*index);
        }
        Message::SyncState { store, neighbors } => {
            buf.put_u8(TAG_SYNC_STATE);
            put_store(buf, store);
            put_neighbors(buf, neighbors);
        }
        Message::StealSecondaryRequest {
            requester,
            index,
            swap,
        } => {
            buf.put_u8(TAG_STEAL_REQUEST);
            put_node_info(buf, *requester);
            buf.put_f64_le(*index);
            buf.put_u8(*swap as u8);
        }
        Message::StealSecondaryGrant {
            secondary,
            donor_region,
            swap,
        } => {
            buf.put_u8(TAG_STEAL_GRANT);
            put_node_info(buf, *secondary);
            put_region(buf, *donor_region);
            buf.put_u8(*swap as u8);
        }
        Message::StealSecondaryDeny => {
            buf.put_u8(TAG_STEAL_DENY);
        }
        Message::LeaveNotice => {
            buf.put_u8(TAG_LEAVE_NOTICE);
        }
        Message::MergeRegions {
            region,
            store,
            neighbors,
        } => {
            buf.put_u8(TAG_MERGE_REGIONS);
            put_region(buf, *region);
            put_store(buf, store);
            put_neighbors(buf, neighbors);
        }
        Message::Detached => {
            buf.put_u8(TAG_DETACHED);
        }
        Message::WhoOwns { region } => {
            buf.put_u8(TAG_WHO_OWNS);
            put_region(buf, *region);
        }
        Message::OwnerIs { info } => {
            buf.put_u8(TAG_OWNER_IS);
            put_neighbor(buf, info);
        }
    }
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

fn get_message(r: &mut Reader<'_>) -> Result<Message, WireError> {
    match r.u8()? {
        TAG_JOIN_REQUEST => Ok(Message::JoinRequest {
            joiner: get_node_info(r)?,
            hops: r.u32()?,
        }),
        TAG_JOIN_DIRECTED => Ok(Message::JoinDirected {
            joiner: get_node_info(r)?,
        }),
        TAG_INSTALL => Ok(Message::Install {
            region: get_region(r)?,
            primary: get_node_info(r)?,
            secondary: get_opt_node_info(r)?,
            neighbors: get_neighbors(r)?,
            store: Box::new(get_store(r)?),
        }),
        TAG_NEIGHBOR_UPDATE => Ok(Message::NeighborUpdate {
            info: get_neighbor(r)?,
        }),
        TAG_QUERY => Ok(Message::Query {
            query: get_query(r)?,
            query_id: r.u64()?,
            reply_to: NodeId::new(r.u64()?),
            hops: r.u32()?,
            fanout: get_bool(r)?,
        }),
        TAG_QUERY_REPLY => {
            let query_id = r.u64()?;
            let n = r.u32()? as usize;
            if n > 10_000_000 {
                return Err(WireError::BadLength(n));
            }
            let records = (0..n).map(|_| get_record(r)).collect::<Result<_, _>>()?;
            Ok(Message::QueryReply { query_id, records })
        }
        TAG_PUBLISH => Ok(Message::Publish {
            record: get_record(r)?,
            hops: r.u32()?,
        }),
        TAG_SUBSCRIBE => Ok(Message::Subscribe {
            sub: get_subscription(r)?,
            hops: r.u32()?,
            fanout: get_bool(r)?,
        }),
        TAG_REPLICATE => Ok(Message::Replicate {
            record: get_record(r)?,
            stamp: get_stamp(r)?,
        }),
        TAG_NOTIFY => Ok(Message::Notify {
            record: get_record(r)?,
        }),
        TAG_HEARTBEAT => Ok(Message::Heartbeat {
            info: get_neighbor(r)?,
            index: {
                let v = r.f64()?;
                if v.is_finite() && v >= 0.0 {
                    v
                } else {
                    return Err(WireError::BadFloat);
                }
            },
        }),
        TAG_SYNC_STATE => Ok(Message::SyncState {
            store: Box::new(get_store(r)?),
            neighbors: get_neighbors(r)?,
        }),
        TAG_STEAL_REQUEST => Ok(Message::StealSecondaryRequest {
            requester: get_node_info(r)?,
            index: {
                let v = r.f64()?;
                if v.is_finite() && v >= 0.0 {
                    v
                } else {
                    return Err(WireError::BadFloat);
                }
            },
            swap: get_bool(r)?,
        }),
        TAG_STEAL_GRANT => Ok(Message::StealSecondaryGrant {
            secondary: get_node_info(r)?,
            donor_region: get_region(r)?,
            swap: get_bool(r)?,
        }),
        TAG_STEAL_DENY => Ok(Message::StealSecondaryDeny),
        TAG_LEAVE_NOTICE => Ok(Message::LeaveNotice),
        TAG_MERGE_REGIONS => Ok(Message::MergeRegions {
            region: get_region(r)?,
            store: Box::new(get_store(r)?),
            neighbors: get_neighbors(r)?,
        }),
        TAG_DETACHED => Ok(Message::Detached),
        TAG_WHO_OWNS => Ok(Message::WhoOwns {
            region: get_region(r)?,
        }),
        TAG_OWNER_IS => Ok(Message::OwnerIs {
            info: get_neighbor(r)?,
        }),
        t => Err(WireError::BadTag(t)),
    }
}

impl Envelope {
    /// Encodes the envelope to bytes (without the outer length prefix —
    /// [`crate::frame`] adds that).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(128);
        buf.put_u8(WIRE_VERSION);
        put_node_info(&mut buf, self.sender);
        put_string(&mut buf, &self.sender_addr.to_string());
        buf.put_u32_le(self.addrs.len() as u32);
        for (id, addr) in &self.addrs {
            buf.put_u64_le(id.as_u64());
            put_string(&mut buf, &addr.to_string());
        }
        put_message(&mut buf, &self.message);
        buf.freeze()
    }

    /// Decodes an envelope from bytes.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input; trailing bytes are rejected
    /// as [`WireError::BadLength`].
    pub fn decode(bytes: &[u8]) -> Result<Envelope, WireError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let sender = get_node_info(&mut r)?;
        let sender_addr: SocketAddr = r.string()?.parse().map_err(|_| WireError::BadAddr)?;
        let n = r.u32()? as usize;
        if n > 1_000_000 {
            return Err(WireError::BadLength(n));
        }
        let mut addrs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let id = NodeId::new(r.u64()?);
            let addr: SocketAddr = r.string()?.parse().map_err(|_| WireError::BadAddr)?;
            addrs.push((id, addr));
        }
        let message = get_message(&mut r)?;
        if !r.done() {
            return Err(WireError::BadLength(bytes.len()));
        }
        Ok(Envelope {
            sender,
            sender_addr,
            addrs,
            message,
        })
    }
}

/// Every node id referenced inside a message — the set the sender must
/// attach addresses for so the receiver can reach them.
pub fn referenced_nodes(message: &Message) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut push_entry = |n: &NeighborInfo| {
        out.push(n.primary.id());
        out.extend(n.secondary.map(|s| s.id()));
    };
    match message {
        Message::JoinRequest { joiner, .. } | Message::JoinDirected { joiner } => {
            out.push(joiner.id())
        }
        Message::Install {
            primary,
            secondary,
            neighbors,
            ..
        } => {
            neighbors.iter().for_each(push_entry);
            out.push(primary.id());
            out.extend(secondary.map(|s| s.id()));
        }
        Message::NeighborUpdate { info }
        | Message::Heartbeat { info, .. }
        | Message::OwnerIs { info } => push_entry(info),
        Message::MergeRegions { neighbors, .. } | Message::SyncState { neighbors, .. } => {
            neighbors.iter().for_each(push_entry)
        }
        Message::StealSecondaryRequest { requester, .. } => out.push(requester.id()),
        Message::StealSecondaryGrant { secondary, .. } => out.push(secondary.id()),
        Message::Query { reply_to, .. } => out.push(*reply_to),
        Message::Subscribe { sub, .. } => out.push(sub.subscriber()),
        Message::StealSecondaryDeny
        | Message::LeaveNotice
        | Message::Detached
        | Message::WhoOwns { .. }
        | Message::QueryReply { .. }
        | Message::Publish { .. }
        | Message::Replicate { .. }
        | Message::Notify { .. } => {}
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64) -> NodeInfo {
        NodeInfo::new(NodeId::new(id), Point::new(1.5, 2.5), 10.0)
    }

    fn envelope(message: Message) -> Envelope {
        Envelope {
            sender: node(1),
            sender_addr: "127.0.0.1:9000".parse().unwrap(),
            addrs: vec![(NodeId::new(2), "127.0.0.1:9001".parse().unwrap())],
            message,
        }
    }

    fn round_trip(message: Message) {
        let env = envelope(message);
        let bytes = env.encode();
        let back = Envelope::decode(&bytes).expect("decode");
        assert_eq!(back, env);
    }

    /// The sample after `m` in a walk over every message kind, `None`
    /// after the last. The match has no wildcard on purpose: a new
    /// `Message` variant does not compile until it is given a place in
    /// the walk, and so a round-trip case.
    fn next_sample(m: &Message) -> Option<Message> {
        let region = Region::new(0.0, 0.0, 32.0, 16.0);
        let neighbor = NeighborInfo {
            primary: node(3),
            secondary: Some(node(4)),
            region,
        };
        let record =
            LocationRecord::new(9, "traffic", Point::new(3.0, 4.0), b"x".to_vec()).with_expiry(777);
        let sub = Subscription::new(5, region, NodeId::new(6), 1_000).with_topic("parking");
        let mut store = RegionStore::new();
        store.subscribe(sub.clone(), 0);
        store.publish(record.clone(), 0);
        let store = Box::new(store);
        Some(match m {
            Message::JoinRequest { .. } => Message::JoinDirected { joiner: node(2) },
            Message::JoinDirected { .. } => Message::Install {
                region,
                primary: node(1),
                secondary: Some(node(9)),
                neighbors: vec![neighbor],
                store,
            },
            Message::Install { .. } => Message::NeighborUpdate { info: neighbor },
            Message::NeighborUpdate { .. } => Message::Query {
                query: LocationQuery::new(region, NodeId::new(7)).with_topic("traffic"),
                query_id: 77,
                reply_to: NodeId::new(8),
                hops: 2,
                fanout: true,
            },
            Message::Query { .. } => Message::QueryReply {
                query_id: 77,
                records: vec![record],
            },
            Message::QueryReply { .. } => Message::Publish { record, hops: 1 },
            Message::Publish { .. } => Message::Subscribe {
                sub,
                hops: 0,
                fanout: false,
            },
            Message::Subscribe { .. } => Message::Notify { record },
            Message::Notify { .. } => Message::Heartbeat {
                info: neighbor,
                index: 0.25,
            },
            Message::Heartbeat { .. } => Message::SyncState {
                store,
                neighbors: Vec::new(),
            },
            Message::SyncState { .. } => Message::StealSecondaryRequest {
                requester: node(2),
                index: 1.5,
                swap: true,
            },
            Message::StealSecondaryRequest { .. } => Message::StealSecondaryGrant {
                secondary: node(4),
                donor_region: region,
                swap: false,
            },
            Message::StealSecondaryGrant { .. } => Message::StealSecondaryDeny,
            Message::StealSecondaryDeny => Message::LeaveNotice,
            Message::LeaveNotice => Message::Detached,
            Message::Detached => Message::WhoOwns { region },
            Message::WhoOwns { .. } => Message::OwnerIs { info: neighbor },
            Message::OwnerIs { .. } => Message::MergeRegions {
                region,
                store,
                neighbors: vec![neighbor],
            },
            Message::MergeRegions { .. } => Message::Replicate {
                record,
                stamp: Hlc::new(12, 3, 4),
            },
            Message::Replicate { .. } => return None,
        })
    }

    #[test]
    fn round_trips_every_message_kind() {
        let mut next = Some(Message::JoinRequest {
            joiner: node(2),
            hops: 3,
        });
        let mut kinds = Vec::new();
        while let Some(m) = next {
            next = next_sample(&m);
            kinds.push(m.kind());
            round_trip(m);
        }
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 20, "the walk skipped or repeated a kind");
    }

    #[test]
    fn rejects_retired_tags_and_version_1() {
        // The four version-1 hand-off messages (tags 3, 4, 5, 17) are gone:
        // a peer still speaking them is refused, not misread.
        let env = envelope(Message::StealSecondaryDeny);
        let mut bytes = env.encode().to_vec();
        let tag_at = bytes.len() - 1; // a unit message's body is its tag
        for retired in [3u8, 4, 5, 17] {
            bytes[tag_at] = retired;
            assert_eq!(Envelope::decode(&bytes), Err(WireError::BadTag(retired)));
        }
        bytes[0] = 1;
        assert_eq!(Envelope::decode(&bytes), Err(WireError::BadVersion(1)));
    }

    #[test]
    fn rejects_bad_version() {
        let env = envelope(Message::JoinDirected { joiner: node(2) });
        let mut bytes = env.encode().to_vec();
        bytes[0] = 99;
        assert_eq!(Envelope::decode(&bytes), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let env = envelope(Message::Install {
            region: Region::new(0.0, 0.0, 1.0, 1.0),
            primary: node(2),
            secondary: None,
            neighbors: vec![NeighborInfo::new(node(3), Region::new(0.0, 0.0, 2.0, 2.0))],
            store: Box::new(RegionStore::new()),
        });
        let bytes = env.encode();
        for cut in 0..bytes.len() {
            assert!(
                Envelope::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let env = envelope(Message::JoinDirected { joiner: node(2) });
        let mut bytes = env.encode().to_vec();
        bytes.push(0);
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn rejects_non_finite_floats() {
        let env = envelope(Message::JoinDirected { joiner: node(2) });
        let mut bytes = env.encode().to_vec();
        // sender NodeInfo coord starts right after version + id.
        let nan = f64::NAN.to_le_bytes();
        bytes[9..17].copy_from_slice(&nan);
        assert_eq!(Envelope::decode(&bytes), Err(WireError::BadFloat));
    }

    #[test]
    fn referenced_nodes_covers_neighbors() {
        let region = Region::new(0.0, 0.0, 1.0, 1.0);
        let m = Message::Install {
            region,
            primary: node(6),
            secondary: Some(node(7)),
            neighbors: vec![
                NeighborInfo {
                    primary: node(3),
                    secondary: Some(node(4)),
                    region,
                },
                NeighborInfo::new(node(5), region),
            ],
            store: Box::new(RegionStore::new()),
        };
        let ids = referenced_nodes(&m);
        let expected: Vec<NodeId> = (3..=7).map(NodeId::new).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn referenced_nodes_dedups() {
        let m = Message::Query {
            query: LocationQuery::new(Region::new(0.0, 0.0, 1.0, 1.0), NodeId::new(2)),
            query_id: 1,
            reply_to: NodeId::new(2),
            hops: 0,
            fanout: false,
        };
        assert_eq!(referenced_nodes(&m), vec![NodeId::new(2)]);
    }
}
