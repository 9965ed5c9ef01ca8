//! Cycle-accurate 3D network-on-chip with dTDMA vertical bus pillars.
//!
//! This crate is the communication substrate of the network-in-memory
//! architecture (paper §3): wormhole-switched 2D meshes on every device
//! layer — single-stage routers, 3 virtual channels per physical channel,
//! dimension-order routing, 128-bit flits — joined vertically by dTDMA
//! bus *communication pillars* that give single-hop transfer between any
//! two layers. The rejected 7-port full-3D-mesh router is also available
//! ([`VerticalMode::Mesh3d`]) so the paper's design-search comparison can
//! be reproduced.
//!
//! # Examples
//!
//! ```
//! use nim_noc::{Network, SendRequest, TrafficClass, VerticalMode};
//! use nim_topology::ChipLayout;
//! use nim_types::{Coord, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::default();
//! let layout = ChipLayout::new(&cfg)?;
//! let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
//!
//! // A 64 B cache line crosses from layer 0 to layer 1 as one 4-flit packet.
//! let src = Coord::new(3, 3, 0);
//! let dst = Coord::new(5, 2, 1);
//! net.send(SendRequest {
//!     src,
//!     dst,
//!     via: layout.nearest_pillar(src),
//!     class: TrafficClass::Data,
//!     flits: 4,
//!     token: 0,
//! });
//! net.run_until_idle(1_000).expect("uncongested traffic drains");
//! assert_eq!(net.stats().packets_delivered, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dtdma;
mod latency;
mod network;
mod packet;
mod router;
mod routing;
mod stats;
mod vc;

pub use dtdma::BusStats;
pub use latency::{zero_load_path, ZeroLoadPath};
pub use network::Network;
pub use packet::{Delivered, FlitKind, SendRequest, TrafficClass};
pub use routing::VerticalMode;
pub use stats::{LatencyHistogram, NetworkStats};
