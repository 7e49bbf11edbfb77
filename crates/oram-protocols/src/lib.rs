//! Baseline ORAM protocols for the H-ORAM reproduction.
//!
//! This crate implements every ORAM scheme the paper discusses, all against
//! the deterministic device simulator in `oram-storage`:
//!
//! * [`path_oram::PathOram`] — Path ORAM on a single device (§2.1.2); also
//!   the engine of H-ORAM's in-memory cache layer.
//! * [`tree_top_cache`] — the paper's **baseline** (§3.1): a Path ORAM tree
//!   whose top levels live in memory and whose bottom levels extend onto
//!   storage, so every access pays several slow I/O bucket transfers.
//! * [`square_root::SquareRootOram`] — the Goldreich–Ostrovsky flat scheme
//!   (§2.1.3): shelter + permuted layout + full periodic reshuffle.
//! * [`partition_oram::PartitionOram`] — √N partitions with per-partition
//!   reshuffles (§2.1.4), the scheme H-ORAM's shuffle security reduces to.
//!
//! All protocols share the [`Oram`] trait, the sealed uniform-size block
//! wire format ([`types::BlockContent`]), the trusted-side structures
//! ([`position_map::PositionMap`], [`stash::Stash`]) and the tree geometry
//! ([`bucket_tree::TreeGeometry`]), so the evaluation compares protocols —
//! not incidental implementation choices.
#![deny(missing_docs)]

pub mod backend;
pub mod bucket_tree;
pub mod error;
pub mod oram_trait;
pub mod partition_oram;
pub mod path_oram;
pub mod position_map;
pub mod square_root;
pub mod stash;
pub mod tree_top_cache;
pub mod types;

pub use backend::{SingleDeviceBackend, SplitBackend, TreeBackend};
pub use bucket_tree::TreeGeometry;
pub use error::OramError;
pub use oram_trait::Oram;
pub use partition_oram::{PartitionOram, PartitionStats};
pub use path_oram::{AccessReceipt, PathOram, PathOramConfig, PathOramCore, PathOramStats};
pub use position_map::PositionMap;
pub use square_root::{SquareRootOram, SquareRootStats};
pub use stash::{Stash, StashEntry};
pub use tree_top_cache::{build_tree_top_cache, TreeTopCachePathOram, TreeTopSplit};
pub use types::{BlockContent, BlockContentRef, BlockId, Request, RequestOp};
