//! The bootstrap directory.
//!
//! §2.1: a joining node "obtains a list of existing nodes in GeoGrid from
//! a bootstrapping server or a local host cache" and picks a random entry
//! node. This module implements that server and its client.
//!
//! Protocol (framed like the node protocol, 1 request frame → 1 response
//! frame per connection):
//!
//! * `R <id> <addr>` — register a node; response `OK`.
//! * `L` — list registered nodes; response `<id> <addr>` per line.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use geogrid_core::NodeId;
use parking_lot::Mutex;
use tokio::net::{TcpListener, TcpStream};

use crate::frame::{read_frame, write_frame};

/// A running bootstrap server.
///
/// # Examples
///
/// ```no_run
/// # async fn demo() -> std::io::Result<()> {
/// use geogrid_transport::{BootstrapClient, BootstrapServer};
/// use geogrid_core::NodeId;
///
/// let server = BootstrapServer::bind("127.0.0.1:0".parse().unwrap()).await?;
/// let client = BootstrapClient::new(server.local_addr());
/// client.register(NodeId::new(1), "127.0.0.1:9000".parse().unwrap()).await?;
/// let nodes = client.list().await?;
/// assert_eq!(nodes.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BootstrapServer {
    local_addr: SocketAddr,
    nodes: Arc<Mutex<BTreeMap<NodeId, SocketAddr>>>,
}

impl BootstrapServer {
    /// Binds and starts serving.
    ///
    /// # Errors
    ///
    /// The bind error, if any.
    pub async fn bind(addr: SocketAddr) -> io::Result<BootstrapServer> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let nodes: Arc<Mutex<BTreeMap<NodeId, SocketAddr>>> = Arc::default();
        let shared = Arc::clone(&nodes);
        tokio::spawn(async move {
            loop {
                let Ok((stream, _)) = listener.accept().await else {
                    break;
                };
                let shared = Arc::clone(&shared);
                tokio::spawn(async move {
                    let _ = serve_one(stream, shared).await;
                });
            }
        });
        Ok(BootstrapServer { local_addr, nodes })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registered nodes (for inspection).
    pub fn registered(&self) -> Vec<(NodeId, SocketAddr)> {
        self.nodes.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }
}

async fn serve_one(
    mut stream: TcpStream,
    nodes: Arc<Mutex<BTreeMap<NodeId, SocketAddr>>>,
) -> io::Result<()> {
    while let Some(frame) = read_frame(&mut stream).await? {
        let text = String::from_utf8_lossy(&frame).into_owned();
        let reply = handle_request(&text, &nodes);
        write_frame(&mut stream, reply.as_bytes()).await?;
    }
    Ok(())
}

fn handle_request(text: &str, nodes: &Mutex<BTreeMap<NodeId, SocketAddr>>) -> String {
    let mut parts = text.split_whitespace();
    match parts.next() {
        Some("R") => {
            let Some(id) = parts.next().and_then(|s| s.parse::<u64>().ok()) else {
                return "ERR bad id".to_string();
            };
            let Some(addr) = parts.next().and_then(|s| s.parse::<SocketAddr>().ok()) else {
                return "ERR bad addr".to_string();
            };
            nodes.lock().insert(NodeId::new(id), addr);
            "OK".to_string()
        }
        Some("L") => {
            let nodes = nodes.lock();
            let mut out = String::new();
            for (id, addr) in nodes.iter() {
                out.push_str(&format!("{} {}\n", id.as_u64(), addr));
            }
            out
        }
        _ => "ERR unknown".to_string(),
    }
}

/// Client for the bootstrap protocol.
#[derive(Debug, Clone)]
pub struct BootstrapClient {
    server: SocketAddr,
}

impl BootstrapClient {
    /// Creates a client targeting `server`.
    pub fn new(server: SocketAddr) -> Self {
        Self { server }
    }

    /// Registers a node with the directory.
    ///
    /// # Errors
    ///
    /// Connection/IO errors, or `InvalidData` if the server rejects the
    /// request.
    pub async fn register(&self, id: NodeId, addr: SocketAddr) -> io::Result<()> {
        let mut stream = TcpStream::connect(self.server).await?;
        write_frame(
            &mut stream,
            format!("R {} {}", id.as_u64(), addr).as_bytes(),
        )
        .await?;
        let reply = read_frame(&mut stream)
            .await?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"))?;
        if &reply[..] == b"OK" {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                String::from_utf8_lossy(&reply).into_owned(),
            ))
        }
    }

    /// Fetches all registered nodes.
    ///
    /// # Errors
    ///
    /// Connection/IO errors, or `InvalidData` on a malformed listing.
    pub async fn list(&self) -> io::Result<Vec<(NodeId, SocketAddr)>> {
        let mut stream = TcpStream::connect(self.server).await?;
        write_frame(&mut stream, b"L").await?;
        let reply = read_frame(&mut stream)
            .await?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"))?;
        let text = String::from_utf8_lossy(&reply);
        let mut out = Vec::new();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let id = parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad id"))?;
            let addr = parts
                .next()
                .and_then(|s| s.parse::<SocketAddr>().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad addr"))?;
            out.push((NodeId::new(id), addr));
        }
        Ok(out)
    }
}

/// Writes a host cache file: one `<id> <addr>` line per known node.
///
/// §2.1's bootstrap alternative: a node may use "a local host cache
/// carried from its last session of activity" instead of the server.
///
/// # Errors
///
/// Any I/O error from creating parent directories or writing the file.
#[expect(
    clippy::disallowed_methods,
    reason = "blocking file IO by design: geogrid-node calls this under spawn_blocking"
)]
pub fn save_host_cache(path: &std::path::Path, nodes: &[(NodeId, SocketAddr)]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::new();
    for (id, addr) in nodes {
        out.push_str(&format!("{} {}\n", id.as_u64(), addr));
    }
    std::fs::write(path, out)
}

/// Reads a host cache file written by [`save_host_cache`]. Unparseable
/// lines are skipped (a stale cache should degrade, not fail).
///
/// # Errors
///
/// Only the I/O error of reading the file itself.
#[expect(
    clippy::disallowed_methods,
    reason = "blocking file IO by design: geogrid-node calls this under spawn_blocking"
)]
pub fn load_host_cache(path: &std::path::Path) -> io::Result<Vec<(NodeId, SocketAddr)>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(id), Some(addr)) = (parts.next(), parts.next()) else {
            continue;
        };
        let (Ok(id), Ok(addr)) = (id.parse::<u64>(), addr.parse::<SocketAddr>()) else {
            continue;
        };
        out.push((NodeId::new(id), addr));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a plain #[test] thread, outside any async runtime"
    )]
    fn host_cache_round_trips_and_skips_garbage() {
        let dir = std::env::temp_dir().join("geogrid_host_cache_test");
        let path = dir.join("hosts.txt");
        let nodes = vec![
            (NodeId::new(1), "127.0.0.1:7001".parse().unwrap()),
            (NodeId::new(2), "127.0.0.1:7002".parse().unwrap()),
        ];
        save_host_cache(&path, &nodes).unwrap();
        // Append a garbage line; loading must skip it.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not a line\n3 alsobad\n");
        std::fs::write(&path, text).unwrap();
        let back = load_host_cache(&path).unwrap();
        assert_eq!(back, nodes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[tokio::test]
    async fn register_and_list() {
        let server = BootstrapServer::bind("127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let client = BootstrapClient::new(server.local_addr());
        assert!(client.list().await.unwrap().is_empty());
        client
            .register(NodeId::new(7), "127.0.0.1:9999".parse().unwrap())
            .await
            .unwrap();
        client
            .register(NodeId::new(3), "127.0.0.1:8888".parse().unwrap())
            .await
            .unwrap();
        let nodes = client.list().await.unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].0, NodeId::new(3)); // BTreeMap order
        assert_eq!(server.registered().len(), 2);
    }

    #[tokio::test]
    async fn reregistration_updates_address() {
        let server = BootstrapServer::bind("127.0.0.1:0".parse().unwrap())
            .await
            .unwrap();
        let client = BootstrapClient::new(server.local_addr());
        client
            .register(NodeId::new(1), "127.0.0.1:1000".parse().unwrap())
            .await
            .unwrap();
        client
            .register(NodeId::new(1), "127.0.0.1:2000".parse().unwrap())
            .await
            .unwrap();
        let nodes = client.list().await.unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].1, "127.0.0.1:2000".parse().unwrap());
    }

    #[test]
    fn malformed_requests_get_errors() {
        let nodes = Mutex::new(BTreeMap::new());
        assert!(handle_request("R x y", &nodes).starts_with("ERR"));
        assert!(handle_request("R 1 nonsense", &nodes).starts_with("ERR"));
        assert!(handle_request("Z", &nodes).starts_with("ERR"));
        assert_eq!(handle_request("R 1 127.0.0.1:80", &nodes), "OK");
    }
}
