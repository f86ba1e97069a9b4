//! The SCION control plane.
//!
//! Implements the routing machinery of §2 of the paper:
//!
//! * [`graph`] — the inter-AS topology as the control plane sees it: ASes,
//!   interfaces, and link types (core, parent/child, peering).
//! * [`segment`] — path segments: per-AS entries with hop fields whose MACs
//!   are chained through the segment identifier `beta`, plus per-AS
//!   signatures binding the segment to the control-plane PKI.
//! * [`beacon`] — path exploration ("beaconing"): core ASes originate
//!   path-construction beacons (PCBs) over core links and down parent-child
//!   links; every AS extends, selects and re-propagates a diverse subset,
//!   and registers the resulting up/down/core segments.
//! * [`store`] — the path-server segment database: registration and lookup
//!   by `<ISD-AS>` as the paper describes.
//! * [`combine`] — end-to-end path combination: up × core × down joins,
//!   same-core joins, non-core *shortcuts* and *peering-link* shortcuts —
//!   the machinery behind the ">100 path options" of Fig. 8.
//! * [`fullpath`] — the combined path object: analysis views (interface
//!   sets, disjointness, AS hops) and assembly into a verifiable data-plane
//!   [`scion_proto::path::ScionPath`].
//! * [`policy`] — path policies: hop-predicate sequences, AS/ISD ACLs, the
//!   §4.9 no-commercial-transit rule, and preference sorting orders.
//! * [`epoch`] — the memoized path database: readers combine against
//!   immutable published store snapshots (no global lock), a single
//!   writer mutates a master copy and republishes, and warm lookups hit a
//!   sharded topology-proportional LRU revalidated by the store's
//!   generation counter and bucket fingerprints, with incremental
//!   recombination when only core buckets moved.
//! * [`pool`] — a bounded scoped-thread worker pool data-parallelizing
//!   beacon verification and path recombination (the `parallel` feature
//!   turns its call sites on; the pool itself is plain `std`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod combine;
pub mod epoch;
pub mod fullpath;
pub mod graph;
pub mod policy;
pub mod pool;
pub mod segment;
pub mod store;

pub use beacon::BeaconEngine;
pub use combine::combine_paths;
pub use epoch::{EpochConfig, EpochPathDb, PathSnapshot};
pub use fullpath::{FullPath, PathHop};
pub use graph::{ControlGraph, LinkType};
pub use pool::WorkerPool;
pub use segment::{AsEntry, PathSegment, SegmentType};
pub use store::{BucketDep, SegmentHandle, SegmentStore};

/// Errors from control-plane operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The topology is inconsistent (dangling interface, bad reciprocity).
    BadTopology(String),
    /// A segment failed verification.
    BadSegment(String),
    /// No path satisfies the query/policy.
    NoPath(String),
    /// Unknown AS.
    UnknownAs(String),
}

impl core::fmt::Display for ControlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ControlError::BadTopology(s) => write!(f, "bad topology: {s}"),
            ControlError::BadSegment(s) => write!(f, "bad segment: {s}"),
            ControlError::NoPath(s) => write!(f, "no path: {s}"),
            ControlError::UnknownAs(s) => write!(f, "unknown AS: {s}"),
        }
    }
}

impl std::error::Error for ControlError {}
