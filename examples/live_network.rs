//! A live GeoGrid overlay on real TCP sockets.
//!
//! Starts a bootstrap directory and six nodes on localhost, forms the
//! overlay through the directory (exactly the paper's three-step
//! bootstrap), publishes a location record, and queries it from the far
//! side of the network.
//!
//! ```text
//! cargo run --example live_network
//! ```

use std::time::Duration;

use geogrid::core::engine::{ClientEvent, EngineConfig, EngineMode};
use geogrid::core::service::{LocationQuery, LocationRecord};
use geogrid::core::NodeId;
use geogrid::geometry::{Point, Region, Space};
use geogrid::transport::{BootstrapClient, BootstrapServer, NodeRuntime, RuntimeConfig};

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        engine: EngineConfig {
            mode: EngineMode::DualPeer,
            heartbeat_interval: 100,
            peer_timeout: 400,
            neighbor_timeout: 2_000,
            ..EngineConfig::default()
        },
        listen: "127.0.0.1:0".parse().expect("literal"),
    }
}

#[tokio::main]
async fn main() -> std::io::Result<()> {
    let space = Space::paper_evaluation();

    // Step 0: the bootstrap directory.
    let server = BootstrapServer::bind("127.0.0.1:0".parse().expect("literal")).await?;
    let directory = BootstrapClient::new(server.local_addr());
    println!("bootstrap directory on {}", server.local_addr());

    // Step 1: the first node owns the whole space.
    let coords = [
        Point::new(10.0, 10.0),
        Point::new(54.0, 10.0),
        Point::new(10.0, 54.0),
        Point::new(54.0, 54.0),
        Point::new(32.0, 32.0),
        Point::new(20.0, 40.0),
    ];
    let capacities = [100.0, 10.0, 10.0, 1.0, 1000.0, 10.0];
    let mut nodes = Vec::new();
    for (i, (&coord, &cap)) in coords.iter().zip(&capacities).enumerate() {
        let handle =
            NodeRuntime::start(NodeId::new(i as u64), coord, cap, space, runtime_config()).await?;
        directory
            .register(handle.info().id(), handle.local_addr())
            .await?;
        nodes.push(handle);
    }
    nodes[0].bootstrap().await;
    tokio::time::sleep(Duration::from_millis(300)).await;

    // Steps 2-3: every other node fetches the directory and joins via the
    // first listed entry.
    for node in &nodes[1..] {
        let listing = directory.list().await?;
        let (entry_id, entry_addr) = listing[0];
        node.join(entry_id, entry_addr).await;
        tokio::time::sleep(Duration::from_millis(400)).await;
        println!(
            "node {} joined (region: {:?})",
            node.info().id(),
            node.owner_view().await.map(|v| v.region.to_string())
        );
    }

    // Publish a parking record near node 3's corner from node 1.
    let lot = Point::new(52.0, 52.0);
    nodes[1]
        .publish(
            LocationRecord::new(1, "parking", lot, b"23 spaces free".to_vec())
                .with_expiry(u64::MAX),
        )
        .await;
    tokio::time::sleep(Duration::from_millis(400)).await;

    // Query it from node 0, across the overlay.
    nodes[0]
        .query(LocationQuery::new(
            Region::new(lot.x - 2.0, lot.y - 2.0, 4.0, 4.0),
            nodes[0].info().id(),
        ))
        .await;
    let mut handle0 = nodes.remove(0);
    let mut found = false;
    for _ in 0..20 {
        match handle0.next_event_timeout(Duration::from_millis(500)).await {
            Some(ClientEvent::QueryResults { records, .. }) if !records.is_empty() => {
                println!(
                    "query answered: {} -> {}",
                    records[0].position(),
                    String::from_utf8_lossy(records[0].payload())
                );
                found = true;
                break;
            }
            Some(_) => continue,
            None => break,
        }
    }
    if !found {
        eprintln!("no results arrived (try rerunning; sockets may be slow)");
    }

    handle0.shutdown().await;
    for node in &nodes {
        node.shutdown().await;
    }
    println!("live overlay shut down cleanly");
    Ok(())
}
