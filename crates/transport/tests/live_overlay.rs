//! End-to-end tests: real GeoGrid nodes on localhost TCP.
//!
//! Requires the `live` feature (tokio runtime); see crates/transport/Cargo.toml.
#![cfg(feature = "live")]

use std::time::Duration;

use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode};
use geogrid_core::service::{LocationQuery, LocationRecord, Subscription};
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Region, Space};
use geogrid_transport::{BootstrapClient, BootstrapServer, NodeRuntime, RuntimeConfig};

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

#[tokio::test]
async fn four_node_overlay_forms_and_serves_queries() {
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
