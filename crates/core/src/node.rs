//! Node descriptors and ownership roles.

use std::fmt;

use geogrid_geometry::Point;

use crate::NodeId;

/// Descriptor of a GeoGrid node.
///
/// The paper identifies a node by the tuple
/// `<x, y, IP, port, properties>`; the protocol-relevant parts are the
/// geographic coordinate and the capacity property (the amount of resources
/// the node dedicates to serving others — network bandwidth in the paper).
/// Transport endpoints (IP/port) live in the transport layer, which maps
/// [`NodeId`]s to socket addresses.
///
/// # Examples
///
/// ```
/// use geogrid_core::{NodeId, NodeInfo};
/// use geogrid_geometry::Point;
///
/// let node = NodeInfo::new(NodeId::new(1), Point::new(10.0, 20.0), 100.0);
/// assert_eq!(node.capacity(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeInfo {
    id: NodeId,
    coord: Point,
    capacity: f64,
}

impl NodeInfo {
    /// Creates a node descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is non-finite or the capacity is not
    /// strictly positive and finite.
    pub fn new(id: NodeId, coord: Point, capacity: f64) -> Self {
        assert!(coord.is_finite(), "node coordinate must be finite");
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "node capacity must be positive, got {capacity}"
        );
        Self {
            id,
            coord,
            capacity,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's geographic coordinate (e.g. from GPS).
    pub fn coord(&self) -> Point {
        self.coord
    }

    /// The node's capacity (resources dedicated to serving others).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }
}

impl fmt::Display for NodeInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} cap={}", self.id, self.coord, self.capacity)
    }
}

/// The role a node holds in the region it co-owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Handles all requests mapped to the region.
    Primary,
    /// Holds replicas and takes over when the primary departs or fails.
    Secondary,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Primary => write!(f, "primary"),
            Role::Secondary => write!(f, "secondary"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let n = NodeInfo::new(NodeId::new(3), Point::new(1.0, 2.0), 10.0);
        assert_eq!(n.id(), NodeId::new(3));
        assert_eq!(n.coord(), Point::new(1.0, 2.0));
        assert_eq!(n.capacity(), 10.0);
        assert!(!format!("{n}").is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        NodeInfo::new(NodeId::new(1), Point::new(0.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "coordinate must be finite")]
    fn rejects_nan_coord() {
        NodeInfo::new(NodeId::new(1), Point::new(f64::NAN, 0.0), 1.0);
    }
}
