//! The binary wire format.
//!
//! Hand-rolled, explicit, and versioned: every GeoGrid protocol message
//! encodes to a tagged binary body. Numbers are little-endian; strings,
//! blobs and sequences are prefixed with a `u32` length. The first byte
//! of every encoded envelope is the wire version ([`WIRE_VERSION`]).
//!
//! Each field type implements the private `Wire` trait once: how it is
//! written, read back and validated, and which node ids it names. The
//! `messages!` table at the bottom gives each message kind one row, its
//! tag and its fields in wire order, and expands to the encoder, the
//! decoder and the walk behind [`referenced_nodes`]. A new kind costs one
//! `Message` variant, one table row and one engine handler.
//!
//! No length prefix is trusted: a count that the remaining bytes cannot
//! hold, at `Wire::MIN_SIZE` bytes per element, is refused as
//! [`WireError::BadLength`] before anything is read or reserved.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::arithmetic_side_effects
    )
)]

use std::error::Error;
use std::fmt;
use std::net::SocketAddr;

use bytes::{BufMut, Bytes, BytesMut};
use geogrid_core::engine::{Message, NeighborInfo};
use geogrid_core::service::{Hlc, LocationQuery, LocationRecord, RegionStore, Subscription};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Region};

/// Current wire protocol version.
pub const WIRE_VERSION: u8 = 2;

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

impl Envelope {
    /// Encodes the envelope to bytes (without the outer length prefix —
    /// [`crate::frame`] adds that).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(128);
        WIRE_VERSION.put(&mut buf);
        self.sender.put(&mut buf);
        self.sender_addr.put(&mut buf);
        self.addrs.put(&mut buf);
        self.message.put(&mut buf);
        buf.freeze()
    }

    /// Decodes an envelope from bytes.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input; trailing bytes are rejected
    /// as [`WireError::BadLength`].
    pub fn decode(bytes: &[u8]) -> Result<Envelope, WireError> {
        let r = &mut Reader { buf: bytes };
        let version = u8::get(r)?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let envelope = Envelope {
            sender: Wire::get(r)?,
            sender_addr: Wire::get(r)?,
            addrs: Wire::get(r)?,
            message: Wire::get(r)?,
        };
        let done = r.buf.is_empty();
        done.then_some(envelope)
            .ok_or(WireError::BadLength(bytes.len()))
    }
}

/// Every node id referenced inside a message — the set the sender must
/// attach addresses for so the receiver can reach them.
pub fn referenced_nodes(message: &Message) -> Vec<NodeId> {
    let mut out = Vec::new();
    message.refs(&mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// The bytes still to decode.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    /// A `u32` count of elements that each take at least `min_size`
    /// bytes, refused unless the bytes left could hold them all.
    fn count(&mut self, min_size: usize) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        match self.buf.len().checked_div(min_size) {
            Some(room) if n <= room => Ok(n),
            _ => Err(WireError::BadLength(n)),
        }
    }

    /// A length-prefixed byte blob, borrowed from the input.
    fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(1)?;
        let (head, rest) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }
}

/// How one field type travels: written, read back and validated, and
/// searched for the node ids it names.
trait Wire {
    /// The fewest bytes a value that decodes can take. It bounds the
    /// element count a length prefix may claim.
    const MIN_SIZE: usize;

    /// Appends the encoding of `self`.
    fn put(&self, buf: &mut BytesMut);

    /// Reads one value, refusing one the protocol does not allow.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>
    where
        Self: Sized;

    /// Appends the node ids in `self` that a receiver may need to reach.
    fn refs(&self, _out: &mut Vec<NodeId>) {}
}

macro_rules! int_wire {
    ($($ty:ty => $put:ident),*) => {$(
        impl Wire for $ty {
            const MIN_SIZE: usize = std::mem::size_of::<$ty>();
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.array().map(<$ty>::from_le_bytes)
            }
        }
    )*};
}

int_wire!(u8 => put_u8, u32 => put_u32_le, u64 => put_u64_le);

/// Every float on the wire is finite.
impl Wire for f64 {
    const MIN_SIZE: usize = 8;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_f64_le(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = f64::from_le_bytes(r.array()?);
        v.is_finite().then_some(v).ok_or(WireError::BadFloat)
    }
}

impl Wire for bool {
    const MIN_SIZE: usize = 1;
    fn put(&self, buf: &mut BytesMut) {
        u8::from(*self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A presence flag, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_SIZE: usize = 1;
    fn put(&self, buf: &mut BytesMut) {
        put_opt(buf, self.as_ref());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        self.iter().for_each(|v| v.refs(out));
    }
}

/// `Option<T>`'s encoding for a borrowed value, such as a `&str` topic,
/// so that encoding it needs no owned copy.
fn put_opt<T: Wire + ?Sized>(buf: &mut BytesMut, value: Option<&T>) {
    value.is_some().put(buf);
    if let Some(v) = value {
        v.put(buf);
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        self.iter().for_each(|v| v.put(buf));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(T::MIN_SIZE)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        self.iter().for_each(|v| v.refs(out));
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_SIZE: usize = T::MIN_SIZE;
    fn put(&self, buf: &mut BytesMut) {
        (**self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        (**self).refs(out);
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_SIZE: usize = A::MIN_SIZE.saturating_add(B::MIN_SIZE);
    fn put(&self, buf: &mut BytesMut) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        self.0.refs(out);
        self.1.refs(out);
    }
}

/// A blob or string, written from a borrowed slice; [`Reader::blob`]
/// reads it back.
impl Wire for [u8] {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        buf.put_slice(self);
    }
}

impl Wire for String {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut BytesMut) {
        self.as_bytes().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.blob()?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// In text form, as `ip:port`.
impl Wire for SocketAddr {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut BytesMut) {
        self.to_string().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::get(r)?.parse().map_err(|_| WireError::BadAddr)
    }
}

impl Wire for NodeId {
    const MIN_SIZE: usize = 8;
    fn put(&self, buf: &mut BytesMut) {
        self.as_u64().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u64::get(r).map(NodeId::new)
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        out.push(*self);
    }
}

impl Wire for Point {
    const MIN_SIZE: usize = 16;
    fn put(&self, buf: &mut BytesMut) {
        self.x.put(buf);
        self.y.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Point::new(f64::get(r)?, f64::get(r)?))
    }
}

/// Origin, then extents, which must be positive.
impl Wire for Region {
    const MIN_SIZE: usize = 32;
    fn put(&self, buf: &mut BytesMut) {
        for v in [self.x(), self.y(), self.width(), self.height()] {
            v.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let [x, y, w, h] = [f64::get(r)?, f64::get(r)?, f64::get(r)?, f64::get(r)?];
        let positive = w > 0.0 && h > 0.0;
        positive
            .then(|| Region::new(x, y, w, h))
            .ok_or(WireError::BadFloat)
    }
}

/// Id, coordinate, then capacity, which must be positive.
impl Wire for NodeInfo {
    const MIN_SIZE: usize = 32;
    fn put(&self, buf: &mut BytesMut) {
        self.id().put(buf);
        self.coord().put(buf);
        self.capacity().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (id, coord, capacity) = (NodeId::get(r)?, Point::get(r)?, f64::get(r)?);
        let positive = capacity > 0.0;
        positive
            .then(|| NodeInfo::new(id, coord, capacity))
            .ok_or(WireError::BadFloat)
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        out.push(self.id());
    }
}

impl Wire for NeighborInfo {
    const MIN_SIZE: usize = 65;
    fn put(&self, buf: &mut BytesMut) {
        self.primary.put(buf);
        self.secondary.put(buf);
        self.region.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NeighborInfo {
            primary: Wire::get(r)?,
            secondary: Wire::get(r)?,
            region: Wire::get(r)?,
        })
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        self.primary.refs(out);
        self.secondary.refs(out);
    }
}

impl Wire for Hlc {
    const MIN_SIZE: usize = 20;
    fn put(&self, buf: &mut BytesMut) {
        self.physical().put(buf);
        self.logical().put(buf);
        self.node().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Hlc::new(u64::get(r)?, u32::get(r)?, u64::get(r)?))
    }
}

/// Id, topic (never empty), position, payload, optional expiry.
impl Wire for LocationRecord {
    const MIN_SIZE: usize = 34;
    fn put(&self, buf: &mut BytesMut) {
        self.id().put(buf);
        self.topic().as_bytes().put(buf);
        self.position().put(buf);
        self.payload().put(buf);
        self.expires_at().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = u64::get(r)?;
        let topic = String::get(r)?;
        if topic.is_empty() {
            return Err(WireError::BadLength(0));
        }
        let rec = LocationRecord::new(id, topic, Point::get(r)?, r.blob()?.to_vec());
        Ok(match Option::get(r)? {
            Some(at) => rec.with_expiry(at),
            None => rec,
        })
    }
}

impl Wire for Subscription {
    const MIN_SIZE: usize = 57;
    fn put(&self, buf: &mut BytesMut) {
        self.id().put(buf);
        self.area().put(buf);
        self.subscriber().put(buf);
        self.expires_at().put(buf);
        put_opt(buf, self.topic().map(str::as_bytes));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let sub = Subscription::new(u64::get(r)?, Region::get(r)?, NodeId::get(r)?, u64::get(r)?);
        Ok(match Option::<String>::get(r)? {
            Some(topic) => sub.with_topic(topic),
            None => sub,
        })
    }
    fn refs(&self, out: &mut Vec<NodeId>) {
        out.push(self.subscriber());
    }
}

/// The issuer is not a reference: results go to the carrying message's
/// `reply_to`.
impl Wire for LocationQuery {
    const MIN_SIZE: usize = 41;
    fn put(&self, buf: &mut BytesMut) {
        self.area().put(buf);
        self.issuer().put(buf);
        put_opt(buf, self.topic().map(str::as_bytes));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let query = LocationQuery::new(Region::get(r)?, NodeId::get(r)?);
        Ok(match Option::<String>::get(r)? {
            Some(topic) => query.with_topic(topic),
            None => query,
        })
    }
}

/// The records, each with its HLC stamp, then the subscriptions. The
/// receiver installs the records as replicas, so last-write-wins stays
/// coherent across the hand-off.
impl Wire for RegionStore {
    const MIN_SIZE: usize = 8;
    fn put(&self, buf: &mut BytesMut) {
        (self.record_count() as u32).put(buf);
        for (rec, stamp) in self.records_with_stamps() {
            rec.put(buf);
            stamp.put(buf);
        }
        (self.subscription_count() as u32).put(buf);
        self.subscriptions().for_each(|sub| sub.put(buf));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut store = RegionStore::new();
        for _ in 0..r.count(<(LocationRecord, Hlc)>::MIN_SIZE)? {
            let (rec, stamp) = Wire::get(r)?;
            store.insert_replica(rec, stamp);
        }
        for _ in 0..r.count(Subscription::MIN_SIZE)? {
            store.insert_sub_replica(Wire::get(r)?);
        }
        Ok(store)
    }
}

/// Expands the table below into `Message`'s [`Wire`] impl. A row is
/// `Variant = tag { fields in wire order }`; `name if check` also passes
/// the read field to `check`. No `match self` has a wildcard, so a variant
/// without a row does not compile. Clippy skips `unwrap`/`expect` in here.
macro_rules! messages {
    ($($kind:ident = $tag:literal { $($field:ident $(if $check:ident)?),* },)*) => {
        impl Wire for Message {
            const MIN_SIZE: usize = 1;
            fn put(&self, buf: &mut BytesMut) {
                match self {
                    $(Message::$kind { $($field),* } => {
                        buf.put_u8($tag);
                        $($field.put(buf);)*
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match u8::get(r)? {
                    $($tag => Message::$kind {
                        $($field: { let v = Wire::get(r)?; $($check(&v)?;)? v },)*
                    },)*
                    t => return Err(WireError::BadTag(t)),
                })
            }
            fn refs(&self, out: &mut Vec<NodeId>) {
                match self {
                    $(Message::$kind { $($field),* } => { $($field.refs(out);)* })*
                }
            }
        }
    };
}

/// A workload index is finite (as every float is) and not negative.
fn non_negative(index: &f64) -> Result<(), WireError> {
    (*index >= 0.0).then_some(()).ok_or(WireError::BadFloat)
}

// Tags 3, 4, 5 and 17 belonged to the four version-1 hand-off messages
// that `Install` replaced; they are not reused.
messages! {
    JoinRequest = 1 { joiner, hops },
    JoinDirected = 2 { joiner },
    NeighborUpdate = 6 { info },
    Query = 7 { query, query_id, reply_to, hops, fanout },
    QueryReply = 8 { query_id, records },
    Publish = 9 { record, hops },
    Subscribe = 10 { sub, hops, fanout },
    Notify = 11 { record },
    Heartbeat = 12 { info, index if non_negative },
    SyncState = 13 { store, neighbors },
    StealSecondaryRequest = 14 { requester, index if non_negative, swap },
    StealSecondaryGrant = 15 { secondary, donor_region, swap },
    StealSecondaryDeny = 16 {},
    LeaveNotice = 18 {},
    MergeRegions = 19 { region, store, neighbors },
    WhoOwns = 20 { region },
    OwnerIs = 21 { info },
    Detached = 22 {},
    Install = 23 { region, primary, secondary, neighbors, store },
    Replicate = 24 { record, stamp },
    Locate = 25 { target, reply_to, hops },
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
            Message::Replicate { .. } => Message::Locate {
                target: Point::new(3.0, 4.0),
                reply_to: NodeId::new(8),
                hops: 4,
            },
            Message::Locate { .. } => return None,
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
        assert_eq!(kinds.len(), 21, "the walk skipped or repeated a kind");
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Per sample kind: encoded envelope length, its 64-bit FNV-1a
    /// digest, and `referenced_nodes`. Recorded from the hand-written
    /// version 2 codec that the message table replaced, except `locate`,
    /// recorded from the table when the kind was added; a mismatch here
    /// is a wire format change.
    const GOLDEN: [(&str, usize, u64, &[u64]); 21] = [
        ("join_request", 118, 0xac6e405d49715758, &[2]),
        ("join_directed", 114, 0xfa446d11e86eace2, &[2]),
        ("install", 425, 0x9d6d14d22a510554, &[1, 3, 4, 9]),
        ("neighbor_update", 179, 0x5bbfcb0320f2469f, &[3, 4]),
        ("query", 155, 0x25edac70b8dd50a2, &[8]),
        ("query_reply", 143, 0x789711c1c19b63b0, &[]),
        ("publish", 135, 0xfd1f880d47f15da4, &[]),
        ("subscribe", 155, 0xeab842a6a04edd45, &[6]),
        ("notify", 131, 0x6f361edee0fb09df, &[]),
        ("heartbeat", 187, 0x78ea8109877a1654, &[3, 4]),
        ("sync_state", 231, 0x834f431ec7eaf40c, &[]),
        ("steal_secondary_request", 123, 0xc87900d64b076c02, &[2]),
        ("steal_secondary_grant", 147, 0x27ffbfabc25b5b0d, &[4]),
        ("steal_secondary_deny", 82, 0x3d8a5bfcfc1702cb, &[]),
        ("leave_notice", 82, 0x3d8a5dfcfc170631, &[]),
        ("detached", 82, 0x3d8a61fcfc170cfd, &[]),
        ("who_owns", 114, 0x6049c1e3e1458327, &[]),
        ("owner_is", 179, 0xf4ad821b020c067c, &[3, 4]),
        ("merge_regions", 360, 0x30d1750485fdd7a1, &[3, 4]),
        ("replicate", 151, 0x3f78cffe0d622767, &[]),
        ("locate", 110, 0x32ad144b52683b14, &[8]),
    ];

    #[test]
    fn golden_bytes_are_wire_version_2() {
        let mut next = Some(Message::JoinRequest {
            joiner: node(2),
            hops: 3,
        });
        let mut seen = 0;
        while let Some(m) = next {
            next = next_sample(&m);
            let (kind, len, digest, refs) = GOLDEN[seen];
            let bytes = envelope(m.clone()).encode();
            let ids: Vec<u64> = referenced_nodes(&m).iter().map(|id| id.as_u64()).collect();
            assert_eq!(m.kind(), kind, "the sample walk changed order");
            assert_eq!(bytes.len(), len, "{kind}: encoded length");
            assert_eq!(fnv1a(&bytes), digest, "{kind}: encoded bytes");
            assert_eq!(ids, refs, "{kind}: referenced nodes");
            seen += 1;
        }
        assert_eq!(seen, GOLDEN.len());
    }

    /// Overwrites `bytes` at `from_end` bytes before the end.
    fn patch_tail(bytes: &mut [u8], from_end: usize, with: &[u8]) {
        let at = bytes.len() - from_end;
        bytes[at..at + with.len()].copy_from_slice(with);
    }

    #[test]
    fn rejects_each_invalid_field() {
        let region = Region::new(0.0, 0.0, 1.0, 1.0);
        // Body: id 8, topic 4 + 1, position 16, empty payload 4, no expiry 1.
        let notify = Message::Notify {
            record: LocationRecord::new(9, "t", Point::new(1.0, 1.0), Vec::new()),
        };
        type Corrupt = fn(&mut Vec<u8>);
        let cases: [(&str, Message, Corrupt, WireError); 8] = [
            (
                "negative heartbeat index",
                Message::Heartbeat {
                    info: NeighborInfo::new(node(3), region),
                    index: -1.0,
                },
                |_| {},
                WireError::BadFloat,
            ),
            (
                "NaN steal index",
                Message::StealSecondaryRequest {
                    requester: node(2),
                    index: f64::NAN,
                    swap: false,
                },
                |_| {},
                WireError::BadFloat,
            ),
            (
                "zero-width region",
                Message::WhoOwns { region },
                |b| patch_tail(b, 16, &0.0f64.to_le_bytes()),
                WireError::BadFloat,
            ),
            (
                "zero-capacity node",
                Message::JoinDirected { joiner: node(2) },
                |b| patch_tail(b, 8, &0.0f64.to_le_bytes()),
                WireError::BadFloat,
            ),
            (
                "empty record topic",
                notify.clone(),
                |b| {
                    patch_tail(b, 26, &0u32.to_le_bytes());
                    b.remove(b.len() - 22);
                },
                WireError::BadLength(0),
            ),
            (
                "option tag 2",
                notify,
                |b| patch_tail(b, 1, &[2]),
                WireError::BadTag(2),
            ),
            (
                "bool byte 2",
                Message::StealSecondaryGrant {
                    secondary: node(4),
                    donor_region: region,
                    swap: true,
                },
                |b| patch_tail(b, 1, &[2]),
                WireError::BadTag(2),
            ),
            (
                "unparsable sender address",
                Message::LeaveNotice,
                // version 1, sender 32, address length 4: "127..." → "z27...".
                |b| b[37] = b'z',
                WireError::BadAddr,
            ),
        ];
        for (name, message, corrupt, expected) in cases {
            let mut bytes = envelope(message).encode().to_vec();
            corrupt(&mut bytes);
            assert_eq!(Envelope::decode(&bytes), Err(expected), "{name}");
        }
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
