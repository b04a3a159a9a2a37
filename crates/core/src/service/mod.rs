//! The location-service layer.
//!
//! GeoGrid's purpose is serving location-based information: "Inform me of
//! the traffic around Exit 89 on I-85 in the next 30 minutes". Region
//! owners store **location records** published by information sources
//! (traffic cameras, parking-lot owners, users sharing their position),
//! answer **location queries** over rectangular areas, and hold standing
//! **subscriptions** that match future publications — the pub-sub style
//! requests of the paper's motivating examples.
//!
//! The stores are per-region: when a region splits, its store partitions
//! by record/subscription position; when the dual peer takes over after a
//! failure, it activates its replica of the same store.

mod hlc;
mod query;
mod record;
mod store;
mod subscription;

pub use hlc::{Hlc, HlcClock};
pub use query::LocationQuery;
pub use record::LocationRecord;
pub use store::RegionStore;
pub use subscription::Subscription;
