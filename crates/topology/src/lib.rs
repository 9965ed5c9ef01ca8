//! 3D chip topology: stacked meshes, clusters, pillars, CPU placement.
//!
//! The chip is a stack of `layers` identical 2D meshes. Every mesh node
//! hosts one L2 cache bank and its router; banks are grouped into
//! rectangular *clusters*, each with its own tag array (paper §4.1).
//! Vertical *pillars* — dTDMA buses — connect the layers at a small number
//! of `(x, y)` positions (paper §3.1). CPUs are seated on or near pillars
//! with thermally-aware offsets (paper §3.3, Algorithm 1).
//!
//! * [`layout`] — [`ChipLayout`]: all geometry derived from a
//!   [`SystemConfig`](nim_types::SystemConfig).
//! * [`placement`] — [`PlacementPolicy`] and the seating of CPUs.
//! * [`floorplan`] — physical dimensions for the thermal model.
//! * [`topology`] — the [`Topology`] trait, O(1) [`RouteMap`]s, and the
//!   `--topology` spec grammar ([`TopoSpec`]).
//!
//! # Examples
//!
//! ```
//! use nim_topology::{ChipLayout, PlacementPolicy};
//! use nim_types::SystemConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::default();
//! let layout = ChipLayout::new(&cfg)?;
//! assert_eq!(layout.layers(), 2);
//! let seats = PlacementPolicy::MaximalOffset.place(&layout, cfg.num_cpus)?;
//! assert_eq!(seats.len(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod floorplan;
pub mod layout;
pub mod placement;
pub mod topology;

pub use floorplan::Floorplan;
pub use layout::{ChipLayout, TopologyError};
pub use placement::{CpuSeat, PlacementError, PlacementPolicy};
pub use topology::{MeshTopology, RouteMap, TopoSpec, TopoSpecError, Topology};
