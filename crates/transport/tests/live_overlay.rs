//! End-to-end tests: real GeoGrid nodes on localhost TCP.

use std::io::{BufReader, ErrorKind, Write};
use std::time::{Duration, Instant};

use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode, Message};
use geogrid_core::service::{LocationQuery, LocationRecord, Subscription};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Region, Space};
use geogrid_transport::frame::read_frame_blocking;
use geogrid_transport::{
    BootstrapClient, BootstrapServer, Envelope, NodeRuntime, RuntimeConfig, RuntimeHandle,
};

fn config(mode: EngineMode) -> RuntimeConfig {
    RuntimeConfig {
        engine: EngineConfig {
            mode,
            heartbeat_interval: 50,
            peer_timeout: 250,
            neighbor_timeout: 1_000,
            ..EngineConfig::default()
        },
        listen: "127.0.0.1:0".parse().unwrap(),
        tick_interval: Duration::from_millis(50),
    }
}

async fn settle() {
    tokio::time::sleep(Duration::from_millis(400)).await;
}

/// Four Basic nodes, one per quadrant, joined one at a time through
/// node 0.
async fn four_node_overlay() -> Vec<RuntimeHandle> {
    let space = Space::paper_evaluation();
    let coords = [
        Point::new(10.0, 10.0),
        Point::new(50.0, 10.0),
        Point::new(10.0, 50.0),
        Point::new(50.0, 50.0),
    ];
    let mut handles = Vec::new();
    for (i, c) in coords.iter().enumerate() {
        let h = NodeRuntime::start(
            NodeId::new(i as u64),
            *c,
            10.0,
            space,
            config(EngineMode::Basic),
        )
        .await
        .expect("start node");
        handles.push(h);
    }
    handles[0].bootstrap().await;
    settle().await;
    for i in 1..4 {
        let entry = handles[0].info().id();
        let addr = handles[0].local_addr();
        handles[i].join(entry, addr).await;
        settle().await;
    }
    handles
}

#[tokio::test]
async fn four_node_overlay_forms_and_serves_queries() {
    let space = Space::paper_evaluation();
    let mut handles = four_node_overlay().await;
    // All four own a region; primaries tile the space.
    let mut area = 0.0;
    for h in &handles {
        let view = h.owner_view().await.expect("owner view");
        area += view.region.area();
    }
    assert!((area - space.bounds().area()).abs() < 1e-6, "area {area}");

    // Publish at node 1's corner from node 2, query it from node 3.
    let spot = Point::new(50.0, 10.0);
    handles[2]
        .publish(LocationRecord::new(1, "traffic", spot, b"jam".to_vec()))
        .await;
    settle().await;
    handles[3]
        .query(LocationQuery::new(
            Region::new(spot.x - 1.0, spot.y - 1.0, 2.0, 2.0),
            handles[3].info().id(),
        ))
        .await;
    let mut found = false;
    for _ in 0..20 {
        match handles[3]
            .next_event_timeout(Duration::from_millis(500))
            .await
        {
            Some(ClientEvent::QueryResults { records, .. }) if !records.is_empty() => {
                assert_eq!(records[0].topic(), "traffic");
                found = true;
                break;
            }
            Some(_) => continue,
            None => break,
        }
    }
    assert!(found, "query results never arrived");
    for h in &handles {
        h.shutdown().await;
    }
}

/// A client whose own region overlaps the query range without covering
/// its centre is one of the fan-out targets: its partial result is a
/// message to itself, which must be delivered like any other.
#[tokio::test]
async fn client_receives_its_own_fanout_partial() {
    let space = Space::paper_evaluation();
    let mut handles = Vec::new();
    for (i, c) in [Point::new(10.0, 10.0), Point::new(50.0, 10.0)]
        .into_iter()
        .enumerate()
    {
        let h = NodeRuntime::start(
            NodeId::new(i as u64),
            c,
            10.0,
            space,
            config(EngineMode::Basic),
        )
        .await
        .expect("start node");
        handles.push(h);
    }
    handles[0].bootstrap().await;
    settle().await;
    handles[1]
        .join(handles[0].info().id(), handles[0].local_addr())
        .await;
    settle().await;
    let executor_region = handles[0].owner_view().await.expect("owner view").region;
    let client_region = handles[1].owner_view().await.expect("owner view").region;

    // The record sits just inside the client's region; the query is
    // centred just across the shared edge, in the other node's region.
    let edge = client_region.closest_point_to(executor_region.center());
    let inward = client_region.center();
    let spot = Point::new(
        edge.x + 0.5 * (inward.x - edge.x).signum(),
        edge.y + 0.5 * (inward.y - edge.y).signum(),
    );
    let centre = Point::new(2.0 * edge.x - spot.x, 2.0 * edge.y - spot.y);
    assert!(client_region.contains(spot) && !client_region.contains_closed(centre));
    assert!(executor_region.contains(centre));

    let client = &mut handles[1];
    client
        .publish(LocationRecord::new(7, "traffic", spot, b"jam".to_vec()))
        .await;
    settle().await;
    client
        .query(LocationQuery::new(
            Region::new(centre.x - 2.0, centre.y - 2.0, 4.0, 4.0),
            client.info().id(),
        ))
        .await;
    let mut found = false;
    while let Some(event) = client
        .next_event_timeout(Duration::from_millis(1_000))
        .await
    {
        if let ClientEvent::QueryResults { records, .. } = event {
            if records.iter().any(|r| r.id() == 7) {
                found = true;
                break;
            }
        }
    }
    assert!(
        found,
        "the client never received the record it holds itself"
    );
    for h in &handles {
        h.shutdown().await;
    }
}

#[tokio::test]
async fn dual_peer_overlay_pairs_and_fails_over() {
    let space = Space::paper_evaluation();
    let h0 = NodeRuntime::start(
        NodeId::new(0),
        Point::new(10.0, 10.0),
        10.0,
        space,
        config(EngineMode::DualPeer),
    )
    .await
    .unwrap();
    h0.bootstrap().await;
    settle().await;
    let mut h1 = NodeRuntime::start(
        NodeId::new(1),
        Point::new(50.0, 50.0),
        5.0,
        space,
        config(EngineMode::DualPeer),
    )
    .await
    .unwrap();
    h1.join(h0.info().id(), h0.local_addr()).await;
    settle().await;
    // Node 1 became the secondary of node 0's region.
    let v1 = h1.owner_view().await.expect("joined");
    assert_eq!(v1.region, space.bounds());
    assert_eq!(v1.peer.unwrap().id(), NodeId::new(0));

    // Kill the primary; the secondary must promote.
    h0.shutdown().await;
    let mut promoted = false;
    for _ in 0..40 {
        match h1.next_event_timeout(Duration::from_millis(500)).await {
            Some(ClientEvent::PromotedToPrimary { .. }) => {
                promoted = true;
                break;
            }
            Some(_) => continue,
            None => break,
        }
    }
    assert!(promoted, "secondary never promoted");
    h1.shutdown().await;
}

#[tokio::test]
async fn subscription_notifies_across_nodes() {
    let space = Space::paper_evaluation();
    let h0 = NodeRuntime::start(
        NodeId::new(0),
        Point::new(10.0, 10.0),
        10.0,
        space,
        config(EngineMode::Basic),
    )
    .await
    .unwrap();
    h0.bootstrap().await;
    settle().await;
    let mut h1 = NodeRuntime::start(
        NodeId::new(1),
        Point::new(50.0, 50.0),
        10.0,
        space,
        config(EngineMode::Basic),
    )
    .await
    .unwrap();
    h1.join(h0.info().id(), h0.local_addr()).await;
    settle().await;

    // Node 1 subscribes to an area owned by node 0; node 0 publishes.
    let area = Region::new(5.0, 5.0, 4.0, 4.0);
    h1.subscribe(Subscription::new(1, area, NodeId::new(1), u64::MAX))
        .await;
    settle().await;
    h0.publish(LocationRecord::new(
        9,
        "parking",
        Point::new(6.0, 6.0),
        vec![],
    ))
    .await;
    let mut notified = false;
    for _ in 0..20 {
        match h1.next_event_timeout(Duration::from_millis(500)).await {
            Some(ClientEvent::Notified { record }) => {
                assert_eq!(record.id(), 9);
                notified = true;
                break;
            }
            Some(_) => continue,
            None => break,
        }
    }
    assert!(notified, "subscriber never notified");
    h0.shutdown().await;
    h1.shutdown().await;
}

/// Waits for the next `QueryResults` at `handle`, at most `within`.
async fn query_answered(handle: &mut RuntimeHandle, within: Duration) -> bool {
    let deadline = Instant::now() + within;
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        match handle.next_event_timeout(left).await {
            Some(ClientEvent::QueryResults { .. }) => return true,
            Some(_) => continue,
            None => return false,
        }
    }
    false
}

/// A dead peer looks like lost datagrams: with one node of four stopped,
/// every query from a live node into its own or a live neighbour's region
/// is still answered promptly, for as long as the others keep sending
/// heartbeats into the broken links.
#[tokio::test]
async fn a_dead_peer_looks_like_lost_datagrams() {
    let mut handles = four_node_overlay().await;
    let dead = handles.pop().expect("four nodes");
    let dead_id = dead.info().id();
    dead.shutdown().await;
    let began = Instant::now();
    let mut answered = 0;
    while began.elapsed() < Duration::from_millis(1_500) {
        for i in 0..handles.len() {
            let view = handles[i].owner_view().await.expect("live node serves");
            let mut targets = vec![view.region.center()];
            targets.extend(
                view.neighbors
                    .iter()
                    .filter(|n| n.primary.id() != dead_id)
                    .map(|n| n.region.center()),
            );
            for spot in targets {
                while handles[i]
                    .next_event_timeout(Duration::ZERO)
                    .await
                    .is_some()
                {}
                let issuer = handles[i].info().id();
                let area = Region::new(spot.x - 0.5, spot.y - 0.5, 1.0, 1.0);
                handles[i].query(LocationQuery::new(area, issuer)).await;
                assert!(
                    query_answered(&mut handles[i], Duration::from_millis(500)).await,
                    "node {i}'s query at {spot:?} went unanswered"
                );
                answered += 1;
            }
        }
    }
    assert!(answered >= 6, "only {answered} queries ran");
    for h in &handles {
        h.shutdown().await;
    }
}

/// One framed `Query` envelope from the fake peer `fake`, asking for
/// `area` with the reply sent to `reply_addr`.
fn query_frame(
    fake: NodeInfo,
    reply_addr: std::net::SocketAddr,
    area: Region,
    query_id: u64,
) -> Vec<u8> {
    let env = Envelope {
        sender: fake,
        sender_addr: reply_addr,
        addrs: Vec::new(),
        message: Message::Query {
            query: LocationQuery::new(area, fake.id()),
            query_id,
            reply_to: fake.id(),
            hops: 0,
            fanout: false,
        },
    };
    let bytes = env.encode();
    let mut frame = (bytes.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&bytes);
    frame
}

/// Whether connects to `addr` are refused within 1 s.
#[expect(
    clippy::disallowed_methods,
    reason = "a std-socket probe, run under spawn_blocking"
)]
async fn refused_within_a_second(addr: std::net::SocketAddr) -> bool {
    tokio::task::spawn_blocking(move || {
        let give_up = Instant::now() + Duration::from_secs(1);
        while Instant::now() < give_up {
            match std::net::TcpStream::connect(addr) {
                Err(e) if e.kind() == ErrorKind::ConnectionRefused => return true,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        false
    })
    .await
    .unwrap()
}

/// A stopped node closes its listener: nothing is left accepting on its
/// port.
#[tokio::test]
async fn a_stopped_node_closes_its_listener() {
    let h = NodeRuntime::start(
        NodeId::new(0),
        Point::new(10.0, 10.0),
        10.0,
        Space::paper_evaluation(),
        config(EngineMode::Basic),
    )
    .await
    .unwrap();
    h.bootstrap().await;
    let addr = h.local_addr();
    h.shutdown().await;
    assert!(
        refused_within_a_second(addr).await,
        "{addr} still accepts connections 1 s after shutdown"
    );
}

/// Dropping the handle stops the node as `shutdown` does.
#[tokio::test]
async fn a_dropped_handle_stops_the_node() {
    let h = NodeRuntime::start(
        NodeId::new(0),
        Point::new(10.0, 10.0),
        10.0,
        Space::paper_evaluation(),
        config(EngineMode::Basic),
    )
    .await
    .unwrap();
    h.bootstrap().await;
    let addr = h.local_addr();
    drop(h);
    assert!(
        refused_within_a_second(addr).await,
        "{addr} still accepts connections 1 s after its handle was dropped"
    );
}

/// A peer that stops reading fills only its own link. A fake peer whose
/// listener never accepts asks a node holding 2,000 records for every
/// record 400 times, about 48 MB of replies, far more than loopback
/// buffers hold; the node still answers its own handle at once.
#[tokio::test]
#[expect(
    clippy::disallowed_methods,
    reason = "a std-socket fake peer; its blocking calls are brief"
)]
async fn a_peer_that_stops_reading_does_not_wedge_the_node() {
    const RECORDS: u64 = 2_000;
    const QUERIES: u64 = 400;
    let space = Space::paper_evaluation();
    let h = NodeRuntime::start(
        NodeId::new(0),
        Point::new(10.0, 10.0),
        10.0,
        space,
        config(EngineMode::Basic),
    )
    .await
    .unwrap();
    h.bootstrap().await;
    let b = space.bounds();
    for id in 0..RECORDS {
        let at = Point::new(
            b.x() + ((id % 40) as f64 + 0.5) * b.width() / 40.0,
            b.y() + ((id / 40) as f64 + 0.5) * b.height() / 50.0,
        );
        h.publish(LocationRecord::new(id, "t", at, vec![0; 8]))
            .await;
    }
    let held = h.owner_view().await.expect("owner view").records;
    assert_eq!(held, RECORDS as usize);

    // Bound, never accepted on: the node's connects complete in the
    // kernel's backlog, and nothing it writes is ever read.
    let deaf = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake = NodeInfo::new(NodeId::new(99), Point::new(1.0, 1.0), 1.0);
    let mut to_node = std::net::TcpStream::connect(h.local_addr()).unwrap();
    for query_id in 0..QUERIES {
        let frame = query_frame(fake, deaf.local_addr().unwrap(), space.bounds(), query_id);
        to_node.write_all(&frame).unwrap();
    }

    let views = tokio::spawn(async move {
        let mut served = 0;
        for _ in 0..5 {
            served += usize::from(h.owner_view().await.is_some());
        }
        (served, h)
    });
    let (served, h) = tokio::time::timeout(Duration::from_secs(1), views)
        .await
        .expect("five owner views took over 1 s: the node is wedged")
        .unwrap();
    assert_eq!(served, 5);
    h.shutdown().await;
    drop((deaf, to_node));
}

/// Replies to one peer share one connection and arrive in send order: a
/// raw-socket fake peer sends a node `K` queries and its listener accepts
/// exactly one connection carrying all `K` replies, in order.
#[tokio::test]
#[expect(
    clippy::disallowed_methods,
    reason = "a std-socket fake peer, run under spawn_blocking"
)]
async fn replies_to_one_peer_reuse_one_ordered_connection() {
    const K: u64 = 32;
    let h = NodeRuntime::start(
        NodeId::new(0),
        Point::new(10.0, 10.0),
        10.0,
        Space::paper_evaluation(),
        config(EngineMode::Basic),
    )
    .await
    .unwrap();
    h.bootstrap().await;
    settle().await;
    let node_addr = h.local_addr();
    let replies = tokio::task::spawn_blocking(move || {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let fake = NodeInfo::new(NodeId::new(99), Point::new(1.0, 1.0), 1.0);
        let mut to_node = std::net::TcpStream::connect(node_addr).unwrap();
        for query_id in 0..K {
            let area = Region::new(10.0, 10.0, 1.0, 1.0);
            let frame = query_frame(fake, listener.local_addr().unwrap(), area, query_id);
            to_node.write_all(&frame).unwrap();
        }
        listener.set_nonblocking(true).unwrap();
        let accept_within = |wait: Duration| {
            let give_up = Instant::now() + wait;
            loop {
                match listener.accept() {
                    Ok((link, _)) => return Some(link),
                    Err(_) if Instant::now() < give_up => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => return None,
                }
            }
        };
        let link = accept_within(Duration::from_secs(2)).expect("the node never connected");
        link.set_nonblocking(false).unwrap();
        link.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut link = BufReader::new(link);
        let mut ids = Vec::new();
        while ids.len() < K as usize {
            let Ok(Some(frame)) = read_frame_blocking(&mut link) else {
                break;
            };
            if let Message::QueryReply { query_id, .. } = Envelope::decode(&frame).unwrap().message
            {
                ids.push(query_id);
            }
        }
        // A second connection would have been opened before the last
        // reply was written.
        let extra = accept_within(Duration::from_millis(200)).is_some();
        (ids, extra)
    })
    .await
    .unwrap();
    let (ids, extra) = replies;
    assert_eq!(
        ids,
        (0..K).collect::<Vec<_>>(),
        "replies missing or reordered"
    );
    assert!(!extra, "replies opened more than one connection");
    h.shutdown().await;
}

#[tokio::test]
async fn bootstrap_directory_round_trip() {
    let server = BootstrapServer::bind("127.0.0.1:0".parse().unwrap())
        .await
        .unwrap();
    let client = BootstrapClient::new(server.local_addr());
    for i in 0..5u64 {
        client
            .register(
                NodeId::new(i),
                format!("127.0.0.1:{}", 7000 + i).parse().unwrap(),
            )
            .await
            .unwrap();
    }
    let listed = client.list().await.unwrap();
    assert_eq!(listed.len(), 5);
}
