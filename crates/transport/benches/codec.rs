//! Criterion microbenches for the wire codec: encode/decode throughput of
//! representative GeoGrid messages.

use criterion::{criterion_group, criterion_main, Criterion};
use geogrid_core::engine::{Message, NeighborInfo};
use geogrid_core::service::{LocationRecord, RegionStore};
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Region};
use geogrid_transport::Envelope;
use std::hint::black_box;

fn node(id: u64) -> NodeInfo {
    NodeInfo::new(NodeId::new(id), Point::new(1.0, 2.0), 10.0)
}

fn heartbeat_envelope() -> Envelope {
    Envelope {
        sender: node(1),
        sender_addr: "127.0.0.1:9000".parse().unwrap(),
        addrs: vec![(NodeId::new(2), "127.0.0.1:9001".parse().unwrap())],
        message: Message::Heartbeat {
            info: NeighborInfo::new(node(1), Region::new(0.0, 0.0, 32.0, 32.0)),
            index: 0.25,
        },
    }
}

fn install_envelope(neighbors: usize, records: usize) -> Envelope {
    let region = Region::new(0.0, 0.0, 32.0, 32.0);
    let mut store = RegionStore::new();
    for i in 0..records {
        store.publish(
            LocationRecord::new(
                i as u64,
                "traffic",
                Point::new(1.0 + i as f64 * 0.01, 2.0),
                vec![0u8; 64],
            ),
            0,
        );
    }
    Envelope {
        sender: node(1),
        sender_addr: "127.0.0.1:9000".parse().unwrap(),
        addrs: Vec::new(),
        message: Message::Install {
            region,
            primary: node(2),
            secondary: None,
            neighbors: (0..neighbors)
                .map(|i| NeighborInfo::new(node(10 + i as u64), region))
                .collect(),
            store: Box::new(store),
        },
    }
}

fn bench_codec(c: &mut Criterion) {
    let heartbeat = heartbeat_envelope();
    c.bench_function("encode_heartbeat", |b| {
        b.iter(|| black_box(heartbeat.encode()))
    });
    let hb_bytes = heartbeat.encode();
    c.bench_function("decode_heartbeat", |b| {
        b.iter(|| black_box(Envelope::decode(&hb_bytes).unwrap()))
    });

    let install = install_envelope(8, 100);
    c.bench_function("encode_install_8n_100r", |b| {
        b.iter(|| black_box(install.encode()))
    });
    let install_bytes = install.encode();
    c.bench_function("decode_install_8n_100r", |b| {
        b.iter(|| black_box(Envelope::decode(&install_bytes).unwrap()))
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
