//! Configuration and assembly of a [`System`].
//!
//! The builder is where the scheme stops mattering: it resolves the
//! [`Scheme`] into a concrete [`ProtocolPolicy`](crate::policy), builds
//! the [`Engine`](crate::protocol::Engine) around it, and wires the real
//! [`SimFabric`](crate::fabric::SimFabric) underneath. After `build()`,
//! nothing in the simulation dispatches on `Scheme` again.

use nim_cache::{NucaL2, SearchPlan};
use nim_coherence::{Directory, WritePolicy};
use nim_cpu::InOrderCore;
use nim_noc::{Network, VerticalMode};
use nim_obs::Obs;
use nim_topology::{ChipLayout, MeshTopology, TopoSpec};
use nim_types::{FxHashMap, PillarPlacement, SystemConfig};

use crate::error::BuildError;
use crate::fabric::{FabricKind, LatencyModel, SimFabric};
use crate::policy::{policy_for, PolicyKnobs};
use crate::protocol::Engine;
use crate::report::Counters;
use crate::scheme::Scheme;
use crate::system::{SampleBuf, System};
use crate::timing::{Banks, MemoryChannels, TagArrays};
use crate::txn::TxnTable;

/// Configures and creates a [`System`].
///
/// ```
/// use nim_core::{Scheme, SystemBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system = SystemBuilder::new(Scheme::CmpSnuca3d)
///     .seed(7)
///     .sampled_transactions(500)
///     .build()?;
/// assert_eq!(system.scheme(), Scheme::CmpSnuca3d);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    scheme: Scheme,
    cfg: SystemConfig,
    seed: u64,
    warmup: u64,
    sample: u64,
    prewarm: bool,
    vicinity_stop: bool,
    replication: bool,
    edge_memory: bool,
    fabric: FabricKind,
    obs: Obs,
}

impl SystemBuilder {
    /// Starts from the paper's Table 4 configuration.
    pub fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            cfg: SystemConfig::default(),
            seed: 42,
            warmup: 1_000,
            sample: 10_000,
            prewarm: true,
            vicinity_stop: true,
            replication: false,
            edge_memory: false,
            fabric: FabricKind::default(),
            obs: Obs::disabled(),
        }
    }

    /// Replaces the whole system configuration.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Number of device layers (3D schemes only; 2D schemes always
    /// flatten to one layer).
    pub fn layers(mut self, layers: u8) -> Self {
        self.cfg.network.layers = layers;
        self
    }

    /// Number of vertical pillars.
    pub fn pillars(mut self, pillars: u16) -> Self {
        self.cfg.network.pillars = pillars;
        self
    }

    /// Number of CPUs seated on the chip.
    pub fn cpus(mut self, n: u32) -> Self {
        self.cfg.num_cpus = n;
        self
    }

    /// Where the vertical pillars land on each layer's mesh (spread,
    /// corners, or diagonal — see [`PillarPlacement`]).
    pub fn pillar_placement(mut self, placement: PillarPlacement) -> Self {
        self.cfg.network.pillar_placement = placement;
        self
    }

    /// Applies a parsed topology override (layer count, pillar count,
    /// pillar placement — see [`TopoSpec`]) on top of the current
    /// configuration. Later explicit knobs still win.
    pub fn topology(mut self, spec: &TopoSpec) -> Self {
        spec.apply(&mut self.cfg);
        self
    }

    /// Selects the interconnect substrate: the cycle-accurate flit-level
    /// network (default), the analytic latency-table fabric, or the
    /// ideal contention-free fabric — see [`FabricKind`].
    pub fn fabric(mut self, kind: FabricKind) -> Self {
        self.fabric = kind;
        self
    }

    /// Scales the L2 capacity by a power-of-two factor (Fig. 16: wider
    /// clusters, same cluster count and associativity).
    pub fn l2_scale(mut self, factor: u32) -> Self {
        self.cfg.l2 = self.cfg.l2.scaled(factor);
        self
    }

    /// Workload seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Transactions to complete before measurement starts.
    pub fn warmup_transactions(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Transactions measured after warm-up.
    pub fn sampled_transactions(mut self, n: u64) -> Self {
        self.sample = n;
        self
    }

    /// Whether to pre-install the workload's working set in the L2 and
    /// the hot/code sets in the L1s before simulating (replaces the
    /// paper's 500 M-cycle cache warm-up phase; default on).
    pub fn prewarm(mut self, on: bool) -> Self {
        self.prewarm = on;
        self
    }

    /// Ablation knob: when disabled, lines migrate on *every* access by a
    /// non-local CPU, even when they already sit inside the accessor's
    /// search vicinity. The paper's policy (default on) skips those
    /// migrations — "the increased locality" is why 3D migrates less
    /// (§5.2, Fig. 14).
    pub fn vicinity_stop(mut self, on: bool) -> Self {
        self.vicinity_stop = on;
        self
    }

    /// Extension: replicate read-shared lines into the reader's local
    /// cluster (the NuRapid / victim-replication alternative the paper's
    /// §1–§2 discusses). Replicas serve subsequent local reads; any write
    /// invalidates them. Off by default — the paper's design relies on
    /// migration alone.
    pub fn replication(mut self, on: bool) -> Self {
        self.replication = on;
        self
    }

    /// Extension: route L2 misses over the network to edge memory
    /// controllers with per-channel bandwidth limits
    /// (`SystemConfig::{memory_controllers, memory_interval}`), instead
    /// of the paper's flat 260-cycle memory latency. Off by default so
    /// the headline experiments match the paper's memory model.
    pub fn edge_memory_controllers(mut self, on: bool) -> Self {
        self.edge_memory = on;
        self
    }

    /// Accepts and ignores a shard count. The network is one unsharded
    /// engine; this shim exists only for the frozen `perfbench/`
    /// benchmark, which still calls `.shards(1)`, and goes in the next
    /// benchmark change.
    #[doc(hidden)]
    pub fn shards(self, _n: usize) -> Self {
        self
    }

    /// Attaches an observability handle (see [`nim_obs::Obs`]): the
    /// network, NUCA L2, directory, and the system's own transaction
    /// machinery all emit trace events and metrics through it. The
    /// default is a disabled handle costing one branch per site.
    pub fn observability(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the configuration, topology, or CPU
    /// placement is invalid.
    pub fn build(self) -> Result<System, BuildError> {
        let cfg = if self.scheme.is_3d() {
            self.cfg
        } else {
            self.cfg.flattened()
        };
        cfg.validate()?;
        let layout = ChipLayout::new(&cfg)?;
        let share_pillars =
            cfg.network.layers > 1 && u32::from(layout.num_pillars()) < cfg.num_cpus;
        let placement = self.scheme.placement(share_pillars);
        let seats = placement.place(&layout, cfg.num_cpus)?;
        let plans = seats
            .iter()
            .map(|s| SearchPlan::new(&layout, layout.cluster_of(s.coord)))
            .collect();
        let mut cluster_cpus = vec![0u64; layout.num_clusters() as usize];
        let mut cpu_at = FxHashMap::default();
        for seat in &seats {
            cluster_cpus[layout.cluster_of(seat.coord).index()] |= 1 << seat.cpu.index();
            cpu_at.insert(seat.coord, seat.cpu);
        }
        let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        net.set_obs(self.obs.clone());
        let mut l2 = NucaL2::new(&cfg.l2);
        l2.set_obs(self.obs.clone());
        let mut dir = Directory::new(cfg.num_cpus, WritePolicy::WriteThrough);
        dir.set_obs(self.obs.clone());
        let cores = seats
            .iter()
            .map(|s| InOrderCore::new(s.cpu, &cfg.l1))
            .collect();
        let policy = policy_for(
            self.scheme,
            PolicyKnobs {
                vicinity_stop: self.vicinity_stop,
                replication: self.replication,
                edge_memory: self.edge_memory,
                memory_latency: u64::from(cfg.memory_latency),
            },
        );
        let model = match self.fabric {
            FabricKind::Sim => None,
            FabricKind::LatencyTable => Some(LatencyModel::latency_table(
                MeshTopology::new(layout.clone(), cfg.network.router_latency),
                &cfg.network,
            )),
            FabricKind::Ideal => Some(LatencyModel::ideal(
                MeshTopology::new(layout.clone(), cfg.network.router_latency),
                &cfg.network,
            )),
        };
        let fabric = SimFabric::new(
            net,
            model,
            TagArrays::new(
                layout.num_clusters() as usize,
                u64::from(cfg.l2.tag_latency),
            ),
            Banks::new(layout.num_nodes(), u64::from(cfg.l2.bank_latency)),
            MemoryChannels::new(
                cfg.memory_controllers as usize,
                u64::from(cfg.memory_interval),
                u64::from(cfg.memory_latency),
            ),
            self.obs.clone(),
        );
        let engine = Engine {
            seats,
            plans,
            cluster_cpus,
            cpu_at,
            l2,
            dir,
            cores,
            txns: TxnTable::default(),
            last_accessor: FxHashMap::default(),
            mc_coords: layout.memory_controller_coords(cfg.memory_controllers),
            counters: Counters::default(),
            policy,
            line_bytes: u64::from(cfg.l2.line_bytes),
            data_flits: cfg.network.data_packet_flits,
            layout,
        };
        Ok(System {
            scheme: self.scheme,
            cfg,
            engine,
            fabric,
            sample_buf: SampleBuf::default(),
            seed: self.seed,
            warmup: self.warmup,
            sample: self.sample,
            prewarm: self.prewarm,
            obs: self.obs,
            knobs: crate::system::RebuildKnobs {
                vicinity_stop: self.vicinity_stop,
                replication: self.replication,
                edge_memory: self.edge_memory,
                fabric: self.fabric,
            },
            progress: None,
        })
    }
}
