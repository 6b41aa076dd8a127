//! The benchmark's workloads, built here from the public constructors of
//! `aitf-scenario` and `aitf-core` so that editing an experiment in
//! `aitf-bench` can never silently redefine what the benchmark measures.
//!
//! Every random choice a workload makes (topology shape, host placement,
//! crowd rates, the run seed) derives from the one workload seed.

use aitf_core::{AitfConfig, Contract, DefensePolicy, HostPolicy, NetId, WorldBuilder};
use aitf_engine::{splitmix, Params};
use aitf_netsim::SimDuration;
use aitf_scenario::{
    leak_ratio, BuiltWorld, HostSel, PowerLawSpec, Role, Scenario, Side, TargetSel, TopologySpec,
    TrafficSpec,
};

/// One benchmark workload. Why each exists is recorded in
/// `BENCHMARK.json`; which metrics it is meant to move, in `run.py`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// E20-shaped flash crowd over 100k power-law nets.
    Crowd100k,
    /// E18-shaped 23×23 tree, 200 hosts per leaf.
    Megatree105k,
    /// E19-shaped 8-spoke star, every bake-off policy.
    StarBakeoff,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Crowd100k,
        Workload::Megatree105k,
        Workload::StarBakeoff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Crowd100k => "crowd_100k",
            Workload::Megatree105k => "megatree_105k",
            Workload::StarBakeoff => "star_bakeoff",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sweep workers: the bake-off's four independent points share the
    /// host's two cores; single-point workloads need one.
    pub fn workers(self) -> usize {
        match self {
            Workload::StarBakeoff => 2,
            _ => 1,
        }
    }

    /// The sweep points, each named by its `point` parameter. Bake-off
    /// points share one seed group so they differ only in the policy.
    pub fn points(self) -> Vec<Params> {
        match self {
            Workload::StarBakeoff => DefensePolicy::BAKEOFF
                .iter()
                .map(|p| {
                    Params::new()
                        .with("point", p.name())
                        .with("_seed_group", 0u64)
                })
                .collect(),
            _ => vec![Params::new().with("point", "aitf")],
        }
    }

    /// The scenario of one point. `seed` is the workload seed; the run
    /// seed the engine hands the point derives from it too.
    pub fn scenario(self, point: &Params, seed: u64) -> Scenario {
        match self {
            Workload::Crowd100k => crowd(seed),
            Workload::Megatree105k => megatree(seed),
            Workload::StarBakeoff => {
                let policy = DefensePolicy::from_name(point.str("point"))
                    .expect("bake-off points are named by policy");
                star(policy)
            }
        }
    }

    /// Reads the point's simulated outputs: the values the checks judge
    /// and the deterministic per-layer counts. Runs after the event loop,
    /// as an end probe in the untraced run and directly in the traced one,
    /// so both runs report through the same code.
    pub fn measure(self, w: &BuiltWorld, m: &mut Params) {
        m.set("leak_r", leak_ratio(w));
        let offered: u64 = w
            .hosts_with(Role::Legit)
            .iter()
            .map(|&h| w.world.host(h).counters().tx_bytes)
            .sum();
        let received = w.world.host(w.victim()).counters().rx_legit_bytes;
        m.set(
            "legit_frac",
            if offered == 0 {
                0.0
            } else {
                received as f64 / offered as f64
            },
        );
        let mut sums = [0u64; 9];
        for i in 0..w.world.net_count() {
            let r = w.world.router(NetId(i));
            let c = r.counters();
            let f = r.filters().stats();
            for (s, v) in sums.iter_mut().zip([
                c.data_forwarded,
                c.spoofed_dropped,
                c.requests_received,
                c.requests_accepted,
                c.filters_installed,
                f.hits,
                f.misses,
                f.evictions,
                r.defense_footprint() as u64,
            ]) {
                *s += v;
            }
        }
        let names = [
            "core.data_forwarded",
            "core.spoofed_dropped",
            "core.requests_received",
            "core.requests_accepted",
            "core.filters_installed",
            "filter.hits",
            "filter.misses",
            "filter.evictions",
            "defense.footprint",
        ];
        for (name, v) in names.into_iter().zip(sums) {
            m.set(name, v);
        }
        let attackers = w.hosts_with(Role::Attacker);
        let tx: u64 = attackers
            .iter()
            .map(|&h| w.world.host(h).counters().tx_pkts)
            .sum();
        m.set("attack.tx_pkts", tx);
        if self == Workload::Megatree105k {
            m.set("zombies", attackers.len() as u64);
            let leaf: u64 = w
                .nets_on(Side::Attacker)
                .iter()
                .map(|&n| w.world.router(n).counters().filters_installed)
                .sum();
            m.set("leaf_filters", leaf);
            m.set(
                "hub_filters",
                w.world.router(w.net("hub")).filters().stats().installs,
            );
        }
    }
}

/// A sub-seed for one random choice of a workload.
fn derive(seed: u64, purpose: u64) -> u64 {
    splitmix(seed ^ splitmix(purpose))
}

/// Contracts and timers sized for Internet-scale armies, as in E18/E20:
/// the question these worlds ask is scale, not gateway throttling.
fn internet_config() -> AitfConfig {
    AitfConfig {
        t_long: SimDuration::from_secs(30),
        detection_delay: SimDuration::from_millis(10),
        grace: SimDuration::from_secs(3600),
        filter_capacity: 4096,
        client_contract: Contract::new(1000.0, 1000),
        peer_contract: Contract::new(100.0, 500),
        ..AitfConfig::default()
    }
}

const CROWD_NETS: usize = 100_000;
const CROWD_HOSTS: usize = 400;
const CROWD_ZOMBIES: usize = 32;

fn crowd(seed: u64) -> Scenario {
    let mut topo = TopologySpec::power_law(&PowerLawSpec {
        n_nets: CROWD_NETS,
        skew: 0.8,
        max_depth: 5,
        peering_fraction: 0.002,
        victim_tail_bps: 10_000_000,
        seed: derive(seed, 1),
    });
    // Generated nets start at index 2, after `core` and `victim_net`. The
    // crowd lives in the first half, the zombies in the second, whose own
    // routers do not ingress-filter (as in E20).
    let total = topo.nets.len();
    let half = 2 + (total - 2) / 2;
    for net in &mut topo.nets[half..] {
        net.policy.ingress_filtering = false;
    }
    let link = WorldBuilder::default_host_link();
    topo.scatter_hosts(
        2..half,
        CROWD_HOSTS,
        Role::Legit,
        HostPolicy::Compliant,
        link,
        derive(seed, 2),
    );
    topo.scatter_hosts(
        half..total,
        CROWD_ZOMBIES,
        Role::Attacker,
        HostPolicy::Malicious,
        link,
        derive(seed, 3),
    );
    let pool: aitf_packet::Prefix = "172.16.0.0/16".parse().expect("valid prefix");
    Scenario::new(topo)
        .config(internet_config())
        .duration(SimDuration::from_secs(3))
        .traffic(TrafficSpec::legit_pareto(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            1,
            30,
            1.2,
            1000,
            derive(seed, 4),
        ))
        .traffic(
            // 137 µs is coprime to the 4 ms send period, so no two
            // zombies ever share a timestamp.
            TrafficSpec::spoof(
                HostSel::Role(Role::Attacker),
                TargetSel::Victim,
                250,
                500,
                pool,
                50,
            )
            .staggered(SimDuration::from_micros(137)),
        )
}

const TREE_BRANCHING: usize = 23;
const TREE_HOSTS_PER_LEAF: usize = 200;
const TREE_ZOMBIES: usize = 500;

fn megatree(seed: u64) -> Scenario {
    let mut topo = TopologySpec::tree(
        2,
        TREE_BRANCHING,
        TREE_HOSTS_PER_LEAF,
        HostPolicy::Malicious,
        10_000_000,
    );
    // Seeded placement: a partial Fisher–Yates shuffle picks which leaf
    // hosts are zombies; the rest stay idle.
    let mut pool: Vec<usize> = (0..topo.hosts.len())
        .filter(|&i| topo.hosts[i].role == Role::Attacker)
        .collect();
    let mut rng = derive(seed, 5);
    for i in 0..TREE_ZOMBIES {
        rng = splitmix(rng);
        let j = i + (rng % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    for &h in &pool[TREE_ZOMBIES..] {
        topo.hosts[h].role = Role::Aux;
    }
    Scenario::new(topo)
        .config(internet_config())
        .duration(SimDuration::from_secs(2))
        .traffic(
            TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 50, 500)
                .staggered(SimDuration::from_millis(1)),
        )
}

const STAR_SPOKES: usize = 8;

fn star(policy: DefensePolicy) -> Scenario {
    let mut topo = TopologySpec::star(STAR_SPOKES, 2, HostPolicy::Malicious, 10_000_000);
    // The second host of every spoke is a legitimate client, so a defense
    // that punishes a whole spoke shows up in `legit_frac`.
    let spokes: Vec<usize> = (0..topo.hosts.len())
        .filter(|&i| topo.hosts[i].role == Role::Attacker)
        .collect();
    for pair in spokes.chunks(2) {
        let &i = pair.last().expect("two hosts per spoke");
        topo.hosts[i].policy = HostPolicy::Compliant;
        topo.hosts[i].role = Role::Legit;
    }
    Scenario::new(topo)
        .config(AitfConfig {
            t_long: SimDuration::from_secs(30),
            ..AitfConfig::default()
        })
        .defense(policy)
        .duration(SimDuration::from_secs(60))
        .traffic(TrafficSpec::legit(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            100,
            1000,
        ))
        .traffic(
            TrafficSpec::flood(HostSel::Role(Role::Attacker), TargetSel::Victim, 1000, 500)
                .staggered(SimDuration::from_millis(10)),
        )
}
