//! `geogrid-node` — run one GeoGrid proxy node from the command line.
//!
//! ```text
//! # terminal 1: a bootstrap directory + the first node
//! geogrid-node --first --listen 127.0.0.1:7100 --coord 10,10 --capacity 100 \
//!              --serve-bootstrap 127.0.0.1:7000
//!
//! # terminal 2+: join through the directory
//! geogrid-node --bootstrap 127.0.0.1:7000 --listen 127.0.0.1:7101 \
//!              --coord 50,50 --capacity 10
//! ```
//!
//! Once running, the node accepts line commands on stdin:
//!
//! ```text
//! view                             show region / role / peer / neighbors
//! publish <topic> <x> <y> <text>   publish a location record
//! query <x> <y> <r> [topic]        circular location query
//! subscribe <x> <y> <r> <ms> [t]   standing subscription
//! leave                            graceful departure (then quit)
//! quit
//! ```
//!
//! Client events (query results, notifications, promotions) print as they
//! arrive.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use geogrid_core::engine::{ClientEvent, EngineConfig, EngineMode};
use geogrid_core::service::{LocationQuery, LocationRecord, Subscription};
use geogrid_core::NodeId;
use geogrid_geometry::{Point, Space};
use geogrid_transport::{
    load_host_cache, save_host_cache, BootstrapClient, BootstrapServer, NodeRuntime, RuntimeConfig,
    RuntimeHandle,
};
use tokio::io::{AsyncBufReadExt, BufReader};

#[derive(Debug)]
struct Args {
    listen: SocketAddr,
    coord: Point,
    capacity: f64,
    space_side: f64,
    id: Option<u64>,
    first: bool,
    basic: bool,
    bootstrap: Option<SocketAddr>,
    serve_bootstrap: Option<SocketAddr>,
    host_cache: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: geogrid-node --coord X,Y [--listen ADDR] [--capacity C] [--space SIDE]\n\
         \x20                  [--id N] [--first] [--basic] [--bootstrap ADDR]\n\
         \x20                  [--serve-bootstrap ADDR] [--host-cache FILE]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        listen: "127.0.0.1:0".parse().expect("literal"),
        coord: Point::new(0.0, 0.0),
        capacity: 10.0,
        space_side: 64.0,
        id: None,
        first: false,
        basic: false,
        bootstrap: None,
        serve_bootstrap: None,
        host_cache: None,
    };
    let mut coord_seen = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--first" => args.first = true,
            "--basic" => args.basic = true,
            _ => {
                let value = it.next()?;
                match flag.as_str() {
                    "--listen" => args.listen = value.parse().ok()?,
                    "--coord" => {
                        let (x, y) = value.split_once(',')?;
                        args.coord = Point::new(x.parse().ok()?, y.parse().ok()?);
                        coord_seen = true;
                    }
                    "--capacity" => args.capacity = value.parse().ok()?,
                    "--space" => args.space_side = value.parse().ok()?,
                    "--id" => args.id = Some(value.parse().ok()?),
                    "--bootstrap" => args.bootstrap = Some(value.parse().ok()?),
                    "--serve-bootstrap" => args.serve_bootstrap = Some(value.parse().ok()?),
                    "--host-cache" => args.host_cache = Some(PathBuf::from(value)),
                    _ => return None,
                }
            }
        }
    }
    coord_seen.then_some(args)
}

fn print_event(event: &ClientEvent) {
    match event {
        ClientEvent::Joined { region, role } => println!("<- joined {region} as {role}"),
        ClientEvent::PromotedToPrimary { region } => {
            println!("<- promoted to primary of {region}")
        }
        ClientEvent::PeerLost { region } => println!("<- dual peer lost for {region}"),
        ClientEvent::QueryResults { records, .. } => {
            println!("<- {} result(s)", records.len());
            for r in records {
                println!(
                    "   [{}] at {}: {}",
                    r.topic(),
                    r.position(),
                    String::from_utf8_lossy(r.payload())
                );
            }
        }
        ClientEvent::Notified { record } => {
            println!(
                "<- notification [{}] at {}: {}",
                record.topic(),
                record.position(),
                String::from_utf8_lossy(record.payload())
            );
        }
        ClientEvent::AdaptationExecuted { mechanism } => {
            println!("<- executed load-balance mechanism ({mechanism})")
        }
        ClientEvent::Left => println!("<- left the overlay"),
        ClientEvent::LeaveDeferred => {
            println!("<- cannot leave yet (no peer or mergeable neighbor); retry later")
        }
    }
}

async fn handle_command(handle: &RuntimeHandle, line: &str, next_sub: &mut u64) -> bool {
    let mut parts = line.split_whitespace();
    let me = handle.info().id();
    match parts.next() {
        Some("quit") | Some("exit") => return false,
        Some("leave") => {
            handle.leave().await;
            println!("-> leave requested");
        }
        Some("view") => match handle.owner_view().await {
            Some(v) => {
                println!(
                    "region {} role {:?} peer {:?}",
                    v.region,
                    v.role,
                    v.peer.map(|p| p.id().to_string())
                );
                for n in &v.neighbors {
                    println!("  neighbor {} owned by {}", n.region, n.primary.id());
                }
            }
            None => println!("not an owner yet"),
        },
        Some("publish") => {
            let (Some(topic), Some(x), Some(y)) = (parts.next(), parts.next(), parts.next()) else {
                println!("usage: publish <topic> <x> <y> <text...>");
                return true;
            };
            let (Ok(x), Ok(y)) = (x.parse(), y.parse()) else {
                println!("bad coordinates");
                return true;
            };
            let payload: String = parts.collect::<Vec<_>>().join(" ");
            let id = rand_id();
            handle
                .publish(LocationRecord::new(
                    id,
                    topic,
                    Point::new(x, y),
                    payload.into_bytes(),
                ))
                .await;
            println!("-> published record #{id}");
        }
        Some("query") => {
            let (Some(x), Some(y), Some(r)) = (parts.next(), parts.next(), parts.next()) else {
                println!("usage: query <x> <y> <radius> [topic]");
                return true;
            };
            let (Ok(x), Ok(y), Ok(r)) = (x.parse(), y.parse(), r.parse::<f64>()) else {
                println!("bad numbers");
                return true;
            };
            let mut q = LocationQuery::circular(Point::new(x, y), r.max(1e-6), me);
            if let Some(topic) = parts.next() {
                q = q.with_topic(topic);
            }
            handle.query(q).await;
            println!("-> query sent");
        }
        Some("subscribe") => {
            let (Some(x), Some(y), Some(r), Some(ms)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                println!("usage: subscribe <x> <y> <radius> <ttl_ms> [topic]");
                return true;
            };
            let (Ok(x), Ok(y), Ok(r), Ok(ms)) =
                (x.parse(), y.parse(), r.parse::<f64>(), ms.parse::<u64>())
            else {
                println!("bad numbers");
                return true;
            };
            *next_sub += 1;
            let area =
                geogrid_geometry::Circle::new(Point::new(x, y), r.max(1e-6)).bounding_region();
            let mut sub = Subscription::new(*next_sub, area, me, now_ms() + ms);
            if let Some(topic) = parts.next() {
                sub = sub.with_topic(topic);
            }
            handle.subscribe(sub).await;
            println!("-> subscription #{next_sub} registered");
        }
        Some(other) => {
            println!("unknown command {other:?} (view/publish/query/subscribe/leave/quit)")
        }
        None => {}
    }
    true
}

fn rand_id() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
}

fn now_ms() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[tokio::main]
async fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let space = Space::square(args.space_side);
    let id = NodeId::new(args.id.unwrap_or_else(rand_id));

    // Optionally host the bootstrap directory ourselves.
    let server = match args.serve_bootstrap {
        Some(addr) => match BootstrapServer::bind(addr).await {
            Ok(s) => {
                println!("bootstrap directory serving on {}", s.local_addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("cannot bind bootstrap directory: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let config = RuntimeConfig {
        engine: EngineConfig {
            mode: if args.basic {
                EngineMode::Basic
            } else {
                EngineMode::DualPeer
            },
            ..EngineConfig::default()
        },
        listen: args.listen,
    };
    let mut handle = match NodeRuntime::start(id, args.coord, args.capacity, space, config).await {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start node: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "node {} listening on {} (coord {}, capacity {})",
        handle.info().id(),
        handle.local_addr(),
        args.coord,
        args.capacity
    );

    // Entry discovery: bootstrap server, then host cache.
    let directory = args
        .bootstrap
        .or(server.as_ref().map(|s| s.local_addr()))
        .map(BootstrapClient::new);
    let mut known: Vec<(NodeId, SocketAddr)> = Vec::new();
    if let Some(dir) = &directory {
        if let Err(e) = dir.register(handle.info().id(), handle.local_addr()).await {
            eprintln!("bootstrap registration failed: {e}");
        }
        match dir.list().await {
            Ok(list) => known = list,
            Err(e) => eprintln!("bootstrap listing failed: {e}"),
        }
    }
    if known.is_empty() {
        if let Some(cache) = &args.host_cache {
            // File IO runs on the blocking pool so the async entry task
            // (which already services transport events) is never stalled.
            let path = cache.clone();
            if let Ok(Ok(list)) = tokio::task::spawn_blocking(move || load_host_cache(&path)).await
            {
                println!(
                    "using {} cached host(s) from {}",
                    list.len(),
                    cache.display()
                );
                known = list;
            }
        }
    }

    if args.first {
        handle.bootstrap().await;
        println!("bootstrapped: this node owns the whole space");
    } else {
        let me = handle.info().id();
        match known.iter().find(|(id, _)| *id != me) {
            Some(&(entry, addr)) => {
                println!("joining via {entry} at {addr}");
                handle.join(entry, addr).await;
            }
            None => {
                eprintln!(
                    "no entry node found (use --first for the first node, or provide \
                     --bootstrap/--host-cache)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(cache) = &args.host_cache {
        let mut entries = known.clone();
        entries.retain(|(id, _)| *id != handle.info().id());
        entries.push((handle.info().id(), handle.local_addr()));
        let path = cache.clone();
        match tokio::task::spawn_blocking(move || save_host_cache(&path, &entries)).await {
            Ok(Err(e)) => eprintln!("could not write host cache: {e}"),
            Err(e) => eprintln!("host cache writer panicked: {e}"),
            Ok(Ok(())) => {}
        }
    }

    // REPL: stdin commands + async events.
    let stdin = BufReader::new(tokio::io::stdin());
    let mut lines = stdin.lines();
    let mut next_sub = 0u64;
    loop {
        tokio::select! {
            line = lines.next_line() => {
                match line {
                    Ok(Some(line)) => {
                        if !handle_command(&handle, line.trim(), &mut next_sub).await {
                            break;
                        }
                    }
                    _ => break, // EOF
                }
            }
            event = handle.next_event() => {
                match event {
                    Some(event) => print_event(&event),
                    None => break,
                }
            }
        }
    }
    handle.shutdown().await;
    println!("bye");
    ExitCode::SUCCESS
}
