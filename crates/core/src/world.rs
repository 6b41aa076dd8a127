//! World builder: assembles AITF networks, hosts and routing into a
//! runnable simulation.
//!
//! An *AITF network* (Section II-A) is an Autonomous Domain fronted by one
//! border router, with filtering contracts towards its end-hosts and its
//! neighbour ADs. The builder mirrors the paper's Figure 1: networks form
//! a provider hierarchy (`G_net ⊂ G_isp ⊂ G_wan`), top-level ADs peer with
//! each other, and end hosts hang off their network's border router
//! through a tail circuit.
//!
//! # Examples
//!
//! ```
//! use aitf_core::{AitfConfig, WorldBuilder};
//! use aitf_netsim::SimDuration;
//!
//! let mut b = WorldBuilder::new(42, AitfConfig::default());
//! let wan = b.network("wan", "10.100.0.0/16", None);
//! let net = b.network("net", "10.1.0.0/16", Some(wan));
//! let host = b.host(net);
//! let mut world = b.build();
//! world.sim.run_for(SimDuration::from_secs(1));
//! assert!(world.host_addr(host).to_string().starts_with("10.1."));
//! ```

use std::collections::{BTreeMap, HashMap};

use aitf_netsim::{
    LinkDirection, LinkId, LinkParams, NetworkBuilder, NextHops, NodeId, PartitionSpec,
    SimDuration, Simulator,
};
use aitf_packet::{Addr, LpmTable, Prefix};

use crate::config::{AitfConfig, HostPolicy, RouterPolicy};
use crate::host::{EndHost, TrafficApp};
use crate::router::{BorderRouter, RouterSpec};

/// How forwarding tables are derived from the declared topology.
///
/// [`RoutingMode::AllPairs`] runs a shortest-path computation over the
/// router backbone and gives every router one route per remote network —
/// correct for arbitrary graphs, but O(n²) time *and* memory, which is
/// prohibitive past a few thousand networks. [`RoutingMode::Hierarchical`]
/// exploits the provider-tree structure the builder already enforces:
/// each router gets a default route up its provider uplink, one route per
/// child subtree down, and subtree shortcut routes across each declared
/// peering — O(n·depth) state total, no all-pairs pass. On any
/// tree-plus-peering topology (stars, trees, the power-law generators)
/// both modes forward every packet over the same links; hierarchical
/// simply refuses to route graphs with cross-links it cannot see.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RoutingMode {
    /// All-pairs shortest paths over the router backbone (the default).
    #[default]
    AllPairs,
    /// Provider-tree routing: default-up, subtree-down, peering shortcuts.
    Hierarchical,
}

/// Handle to a network (AD) in a [`WorldBuilder`] / [`World`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NetId(pub usize);

/// Handle to an end host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HostId(pub usize);

struct NetSpec {
    name: String,
    prefix: Prefix,
    parent: Option<usize>,
    policy: RouterPolicy,
    uplink_params: LinkParams,
}

struct HostSpec {
    net: usize,
    policy: HostPolicy,
    link_params: LinkParams,
}

/// Builder for an AITF world.
pub struct WorldBuilder {
    seed: u64,
    cfg: AitfConfig,
    nets: Vec<NetSpec>,
    hosts: Vec<HostSpec>,
    peerings: Vec<(usize, usize, LinkParams)>,
    routing: RoutingMode,
    /// Exact-duplicate guard for hierarchical mode, where the O(n²)
    /// pairwise overlap scan is skipped (generated prefixes come from a
    /// disjoint allocator; reuse of an identical prefix is the realistic
    /// bug to catch).
    prefix_seen: std::collections::HashSet<Prefix>,
}

impl WorldBuilder {
    /// Default inter-network link: 1 Gbit/s, 10 ms, fat queue.
    pub fn default_net_link() -> LinkParams {
        LinkParams::ethernet(1_000_000_000, SimDuration::from_millis(10)).with_queue_bytes(1 << 20)
    }

    /// Default tail circuit: 10 Mbit/s, 5 ms, shallow queue — the paper's
    /// introduction example of a link an attacker can congest.
    pub fn default_host_link() -> LinkParams {
        LinkParams::ethernet(10_000_000, SimDuration::from_millis(5))
    }

    /// Creates a builder.
    pub fn new(seed: u64, cfg: AitfConfig) -> Self {
        WorldBuilder {
            seed,
            cfg,
            nets: Vec::new(),
            hosts: Vec::new(),
            peerings: Vec::new(),
            routing: RoutingMode::default(),
            prefix_seen: std::collections::HashSet::new(),
        }
    }

    /// Selects the routing mode. Set this before declaring networks:
    /// hierarchical mode replaces the per-network overlap scan with an
    /// exact-duplicate check, and only prefixes declared after the switch
    /// skip the scan.
    pub fn routing(&mut self, mode: RoutingMode) -> &mut Self {
        self.routing = mode;
        self
    }

    /// Declares a network with the default router policy and uplink.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` does not parse or overlaps an existing network.
    pub fn network(&mut self, name: &str, prefix: &str, parent: Option<NetId>) -> NetId {
        self.network_with(
            name,
            prefix,
            parent,
            RouterPolicy::default(),
            Self::default_net_link(),
        )
    }

    /// Declares a network with explicit policy and uplink parameters.
    pub fn network_with(
        &mut self,
        name: &str,
        prefix: &str,
        parent: Option<NetId>,
        policy: RouterPolicy,
        uplink_params: LinkParams,
    ) -> NetId {
        let prefix: Prefix = prefix.parse().expect("invalid network prefix");
        assert!(
            self.prefix_seen.insert(prefix),
            "prefix {prefix} duplicates an existing network"
        );
        if self.routing == RoutingMode::AllPairs {
            for n in &self.nets {
                assert!(
                    !n.prefix.overlaps(prefix),
                    "prefix {prefix} overlaps existing network {}",
                    n.name
                );
            }
        }
        let id = NetId(self.nets.len());
        self.nets.push(NetSpec {
            name: name.to_string(),
            prefix,
            parent: parent.map(|p| p.0),
            policy,
            uplink_params,
        });
        id
    }

    /// Overrides a network's router policy before building.
    pub fn set_router_policy(&mut self, net: NetId, policy: RouterPolicy) {
        self.nets[net.0].policy = policy;
    }

    /// Adds a compliant host with the default tail circuit.
    pub fn host(&mut self, net: NetId) -> HostId {
        self.host_with(net, HostPolicy::Compliant, Self::default_host_link())
    }

    /// Adds a host with explicit policy and tail-circuit parameters.
    pub fn host_with(&mut self, net: NetId, policy: HostPolicy, link_params: LinkParams) -> HostId {
        let id = HostId(self.hosts.len());
        self.hosts.push(HostSpec {
            net: net.0,
            policy,
            link_params,
        });
        id
    }

    /// Connects two (typically top-level) networks as peers.
    pub fn peer(&mut self, a: NetId, b: NetId, params: LinkParams) {
        self.peerings.push((a.0, b.0, params));
    }

    /// Assembles the simulator, routing tables and protocol nodes, with
    /// [`BorderRouter`]s at every network. Which defense the routers run
    /// is the configuration's [`crate::AitfConfig::defense`] policy — the
    /// pushback baseline and the other bake-off defenses reuse all the
    /// topology, addressing and routing machinery through their hook
    /// chains instead of substituting a different node type.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent input: a network with more than 250 hosts,
    /// or a disconnected topology being asked to route.
    pub fn build(self) -> World {
        let mut nb = NetworkBuilder::new(self.seed);

        // One node per router, one per host.
        let router_nodes: Vec<NodeId> = self.nets.iter().map(|_| nb.add_node()).collect();
        let host_nodes: Vec<NodeId> = self.hosts.iter().map(|_| nb.add_node()).collect();

        // Links: child → parent uplinks, host tail circuits, peerings.
        let mut uplinks: Vec<Option<LinkId>> = vec![None; self.nets.len()];
        for (i, net) in self.nets.iter().enumerate() {
            if let Some(p) = net.parent {
                uplinks[i] = Some(nb.connect(router_nodes[i], router_nodes[p], net.uplink_params));
            }
        }
        let tail_links: Vec<LinkId> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| nb.connect(host_nodes[i], router_nodes[h.net], h.link_params))
            .collect();
        let peer_links: Vec<LinkId> = self
            .peerings
            .iter()
            .map(|&(a, b, params)| nb.connect(router_nodes[a], router_nodes[b], params))
            .collect();

        let mut sim = nb.build();

        // Routing runs over the router backbone only. Hosts are leaves on
        // their tail circuit — they can never be transit — so an all-pairs
        // computation over every node would produce the same router paths
        // at O((routers+hosts)²) cost, which is prohibitive at 100k hosts.
        debug_assert!(router_nodes.iter().enumerate().all(|(i, n)| n.0 == i));
        let mut router_links: Vec<(NodeId, NodeId, LinkId, u64)> = Vec::new();
        for (i, net) in self.nets.iter().enumerate() {
            if let Some(p) = net.parent {
                router_links.push((
                    router_nodes[i],
                    router_nodes[p],
                    uplinks[i].expect("child has an uplink"),
                    1,
                ));
            }
        }
        for (k, &(a, b, _)) in self.peerings.iter().enumerate() {
            router_links.push((router_nodes[a], router_nodes[b], peer_links[k], 1));
        }
        let mut hosts_of_net: Vec<Vec<usize>> = vec![Vec::new(); self.nets.len()];
        for (h, hspec) in self.hosts.iter().enumerate() {
            hosts_of_net[hspec.net].push(h);
        }

        // Address assignment: router = .254 of the first /24, hosts from 1.
        let router_addr: Vec<Addr> = self.nets.iter().map(|n| n.prefix.host_at(254)).collect();
        let mut hosts_in_net: HashMap<usize, u32> = HashMap::new();
        let host_addr: Vec<Addr> = self
            .hosts
            .iter()
            .map(|h| {
                let k = hosts_in_net.entry(h.net).or_insert(0);
                *k += 1;
                assert!(*k <= 250, "more than 250 hosts in one network");
                self.nets[h.net].prefix.host_at(*k)
            })
            .collect();

        // Subtree prefixes (self + all descendants) per network.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.nets.len()];
        for (i, net) in self.nets.iter().enumerate() {
            if let Some(p) = net.parent {
                children[p].push(i);
            }
        }
        fn collect_subtree(
            i: usize,
            children: &[Vec<usize>],
            nets: &[NetSpec],
            out: &mut Vec<Prefix>,
        ) {
            out.push(nets[i].prefix);
            for &c in &children[i] {
                collect_subtree(c, children, nets, out);
            }
        }
        let subtree: Vec<Vec<Prefix>> = (0..self.nets.len())
            .map(|i| {
                let mut v = Vec::new();
                collect_subtree(i, &children, &self.nets, &mut v);
                v
            })
            .collect();

        // Longest-prefix-match forwarding, one table per router, plus /32
        // routes for the hosts of a router's own network. Only the gateway
        // carries its clients' /32s: remote routers reach a host through a
        // covering prefix route along the same path.
        //
        // - AllPairs: one route per remote network prefix towards its
        //   border router, from a shortest-path pass over the backbone —
        //   the aggregation a real AS-level forwarding table has, at O(n²)
        //   build cost.
        // - Hierarchical: a len-0 default route up the provider uplink,
        //   each child's subtree prefixes down its uplink, and each
        //   peering's far-side subtree across the peering link — O(n·depth)
        //   total state, no all-pairs pass, identical forwarding on any
        //   tree-plus-peering topology.
        let mut fwd_tables: Vec<LpmTable<LinkId>> = match self.routing {
            RoutingMode::AllPairs => {
                let next_hops = NextHops::compute(self.nets.len(), &router_links);
                (0..self.nets.len())
                    .map(|n_idx| {
                        let node = router_nodes[n_idx];
                        let mut table = LpmTable::new();
                        for (n, net) in self.nets.iter().enumerate() {
                            if n == n_idx {
                                continue;
                            }
                            if let Some(link) = next_hops.next_hop(node, router_nodes[n]) {
                                table.insert(net.prefix, link);
                            }
                        }
                        table
                    })
                    .collect()
            }
            RoutingMode::Hierarchical => {
                let mut tables: Vec<LpmTable<LinkId>> =
                    (0..self.nets.len()).map(|_| LpmTable::new()).collect();
                for (i, _) in self.nets.iter().enumerate() {
                    if let Some(up) = uplinks[i] {
                        tables[i].insert(Prefix::ANY, up);
                    }
                    for &c in &children[i] {
                        let link = uplinks[c].expect("child has an uplink");
                        for &p in &subtree[c] {
                            tables[i].insert(p, link);
                        }
                    }
                }
                for (k, &(a, b, _)) in self.peerings.iter().enumerate() {
                    for &p in &subtree[b] {
                        tables[a].insert(p, peer_links[k]);
                    }
                    for &p in &subtree[a] {
                        tables[b].insert(p, peer_links[k]);
                    }
                }
                tables
            }
        };
        for (n_idx, table) in fwd_tables.iter_mut().enumerate() {
            for &h in &hosts_of_net[n_idx] {
                table.insert(Prefix::host(host_addr[h]), tail_links[h]);
            }
        }

        // Deployment view seeded at build time: which border routers do
        // not participate in AITF (the capability "advertisement" every
        // router sees), plus each router's full ancestor chain so
        // escalation can skip legacy parents to the nearest AITF node.
        let legacy_peers: Vec<Addr> = self
            .nets
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.policy.aitf_enabled)
            .map(|(i, _)| router_addr[i])
            .collect();
        let ancestors_of = |i: usize| -> Vec<Addr> {
            let mut chain = Vec::new();
            let mut cur = self.nets[i].parent;
            while let Some(p) = cur {
                chain.push(router_addr[p]);
                cur = self.nets[p].parent;
            }
            chain
        };

        // Install routers.
        for (i, net) in self.nets.iter().enumerate() {
            let mut client_links: BTreeMap<LinkId, Vec<Prefix>> = BTreeMap::new();
            for &c in &children[i] {
                let link = uplinks[c].expect("child has an uplink");
                client_links.insert(link, subtree[c].clone());
            }
            for &h in &hosts_of_net[i] {
                // Ingress filtering is at network granularity (Section
                // III-A: a provider keeps spoofed flows from *exiting
                // its network*); spoofing inside one's own prefix is
                // exactly what ingress filtering cannot catch.
                client_links.insert(tail_links[h], vec![net.prefix]);
            }
            let spec = RouterSpec {
                addr: router_addr[i],
                fwd: std::mem::take(&mut fwd_tables[i]),
                uplink: uplinks[i],
                ancestors: ancestors_of(i),
                legacy_peers: legacy_peers.clone(),
                client_links,
                config: self.cfg.clone(),
                policy: net.policy,
            };
            sim.install(router_nodes[i], Box::new(BorderRouter::new(spec)));
        }

        // Hand every router a clone of one shared tracer so escalation
        // spans parent across routers.
        let tracer = aitf_trace::Tracer::new();
        for &node in &router_nodes {
            if let Some(r) = sim.node_mut::<BorderRouter>(node) {
                // With tracing off the Tracer is zero-sized Copy and this
                // clone is free; with it on, it is the sharing Rc clone.
                #[allow(clippy::clone_on_copy)]
                r.set_tracer(tracer.clone());
            }
        }

        // Install hosts.
        for (h, hspec) in self.hosts.iter().enumerate() {
            let host = EndHost::new(
                host_addr[h],
                router_addr[hspec.net],
                tail_links[h],
                self.cfg.clone(),
                hspec.policy,
            );
            sim.install(host_nodes[h], Box::new(host));
        }

        World {
            sim,
            cfg: self.cfg,
            net_names: self.nets.iter().map(|n| n.name.clone()).collect(),
            net_prefixes: self.nets.iter().map(|n| n.prefix).collect(),
            router_nodes,
            router_addr,
            host_nodes,
            host_addr,
            host_net: self.hosts.iter().map(|h| h.net).collect(),
            net_parent: self.nets.iter().map(|n| n.parent).collect(),
            net_cooperating: self
                .nets
                .iter()
                .map(|n| n.policy.aitf_enabled && n.policy.cooperating)
                .collect(),
            tail_links,
            uplinks,
            tracer,
        }
    }
}

/// A built AITF world: the simulator plus the name/address bookkeeping the
/// experiment harness needs.
pub struct World {
    /// The underlying simulator; run it with `run_for`/`run_until`.
    pub sim: Simulator,
    /// The configuration the world was built with.
    pub cfg: AitfConfig,
    net_names: Vec<String>,
    net_prefixes: Vec<Prefix>,
    router_nodes: Vec<NodeId>,
    router_addr: Vec<Addr>,
    host_nodes: Vec<NodeId>,
    host_addr: Vec<Addr>,
    host_net: Vec<usize>,
    net_parent: Vec<Option<usize>>,
    /// Build-time `aitf_enabled && cooperating` per network; drives the
    /// shard-hint merging of [`World::shard_hints`].
    net_cooperating: Vec<bool>,
    tail_links: Vec<LinkId>,
    uplinks: Vec<Option<LinkId>>,
    /// Shared across all AITF routers; zero-sized unless `trace` is on.
    tracer: aitf_trace::Tracer,
}

impl World {
    /// Number of networks.
    pub fn net_count(&self) -> usize {
        self.router_nodes.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.host_nodes.len()
    }

    /// A network's display name.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// A network's prefix.
    pub fn net_prefix(&self, net: NetId) -> Prefix {
        self.net_prefixes[net.0]
    }

    /// A network's border-router address.
    pub fn router_addr(&self, net: NetId) -> Addr {
        self.router_addr[net.0]
    }

    /// A network's border-router node id.
    pub fn router_node(&self, net: NetId) -> NodeId {
        self.router_nodes[net.0]
    }

    /// A host's address.
    pub fn host_addr(&self, host: HostId) -> Addr {
        self.host_addr[host.0]
    }

    /// A host's node id.
    pub fn host_node(&self, host: HostId) -> NodeId {
        self.host_nodes[host.0]
    }

    /// The network a host belongs to.
    pub fn host_net(&self, host: HostId) -> NetId {
        NetId(self.host_net[host.0])
    }

    /// The world-wide escalation tracer (a no-op handle unless the `trace`
    /// feature is enabled).
    pub fn tracer(&self) -> &aitf_trace::Tracer {
        &self.tracer
    }

    /// Closes any still-open spans at the current sim time and returns every
    /// recorded escalation span. Always empty without the `trace` feature.
    pub fn trace_spans(&self) -> Vec<aitf_trace::SpanRecord> {
        self.tracer.finish(self.sim.now().0);
        self.tracer.spans()
    }

    /// A network's uplink towards its provider.
    pub fn uplink(&self, net: NetId) -> Option<LinkId> {
        self.uplinks[net.0]
    }

    /// Shard hints for [`aitf_netsim::Simulator::apply_shards`]: one group
    /// per network (its border router plus its hosts), parented along the
    /// provider tree, so the partitioner only ever cuts inter-network
    /// links — whose propagation delay provides the conservative
    /// lookahead.
    ///
    /// A network that does not fully participate in AITF (legacy or
    /// non-cooperating gateway) is merged into its provider's group:
    /// escalation disconnects such children at the provider's side of the
    /// uplink, and keeping that uplink intra-shard keeps the blocking
    /// action local. Non-escalating defense policies (pushback, rate
    /// limiting, path stamping — see
    /// [`crate::DefensePolicy::escalates`]) have no disconnection
    /// lever, so every network keeps its own group there.
    pub fn shard_hints(&self) -> PartitionSpec {
        let n = self.net_count();
        let escalating = self.cfg.defense.escalates();
        // Resolve each net to its merge target. Parents are declared
        // before children in WorldBuilder, so target[parent] is final by
        // the time a child reads it.
        let mut target: Vec<usize> = (0..n).collect();
        for i in 0..n {
            if escalating && !self.net_cooperating[i] {
                if let Some(p) = self.net_parent[i] {
                    target[i] = target[p];
                }
            }
        }
        let mut group_of: Vec<usize> = vec![usize::MAX; n];
        let mut roots: Vec<usize> = Vec::new();
        for i in 0..n {
            if target[i] == i {
                group_of[i] = roots.len();
                roots.push(i);
            }
        }
        for i in 0..n {
            group_of[i] = group_of[target[i]];
        }
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); roots.len()];
        for i in 0..n {
            groups[group_of[i]].push(self.router_nodes[i]);
        }
        for (h, &net) in self.host_net.iter().enumerate() {
            groups[group_of[net]].push(self.host_nodes[h]);
        }
        let parents: Vec<Option<usize>> = roots
            .iter()
            .map(|&r| self.net_parent[r].map(|p| group_of[p]))
            .collect();
        PartitionSpec::new(groups, parents)
    }

    /// Read access to a border router.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a [`BorderRouter`] (cannot happen for ids
    /// from this world).
    pub fn router(&self, net: NetId) -> &BorderRouter {
        self.sim
            .node_ref::<BorderRouter>(self.router_nodes[net.0])
            .expect("router node")
    }

    /// Mutable access to a border router.
    pub fn router_mut(&mut self, net: NetId) -> &mut BorderRouter {
        self.sim
            .node_mut::<BorderRouter>(self.router_nodes[net.0])
            .expect("router node")
    }

    /// Read access to a host.
    pub fn host(&self, host: HostId) -> &EndHost {
        self.sim
            .node_ref::<EndHost>(self.host_nodes[host.0])
            .expect("host node")
    }

    /// Mutable access to a host.
    pub fn host_mut(&mut self, host: HostId) -> &mut EndHost {
        self.sim
            .node_mut::<EndHost>(self.host_nodes[host.0])
            .expect("host node")
    }

    /// Installs a traffic application on a host (before the run starts).
    pub fn add_app(&mut self, host: HostId, app: Box<dyn TrafficApp>) {
        self.host_mut(host).add_app(app);
    }

    // ------------------------------------------------------------------
    // Dynamic-world hooks: runtime attach / detach / activate.
    //
    // These are the mutation points churn layers drive between `run_*`
    // segments. All of them act at the current virtual time and touch only
    // schedule-independent state, so a run that interleaves them at fixed
    // times stays bit-deterministic.
    // ------------------------------------------------------------------

    /// Installs a traffic application on a host at any time. Before the
    /// simulation starts this is [`World::add_app`]; after, the app is
    /// installed *and started immediately* (its `starting_after` window
    /// counts from now) — how late-arriving hosts begin sending mid-run.
    pub fn activate_app(&mut self, host: HostId, app: Box<dyn TrafficApp>) {
        if !self.sim.is_started() {
            self.add_app(host, app);
            return;
        }
        let node = self.host_nodes[host.0];
        self.sim.with_node_ctx(node, |n, ctx| {
            n.as_any_mut()
                .downcast_mut::<EndHost>()
                .expect("host node")
                .install_app_now(app, ctx);
        });
    }

    /// Detaches a host from the network: its tail circuit is blocked in
    /// both directions and its traffic apps go quiet (timer chains are
    /// dropped, so a retired attacker stops *offering* traffic). Safe to
    /// call before the run starts — the host then begins the simulation
    /// offline.
    pub fn detach_host(&mut self, host: HostId) {
        let link = self.tail_links[host.0];
        self.sim.set_link_blocked(link, LinkDirection::AToB, true);
        self.sim.set_link_blocked(link, LinkDirection::BToA, true);
        self.host_mut(host).set_attached(false);
    }

    /// Reattaches a previously detached host: unblocks the tail circuit
    /// and restarts every installed app (their `starting_after` delays now
    /// count from the reattachment instant). Attaching an already-attached
    /// host is a no-op — its running apps are left untouched, so an
    /// overlapping churn selection cannot restart (and thereby duplicate)
    /// live traffic.
    pub fn attach_host(&mut self, host: HostId) {
        if self.host(host).is_attached() {
            return;
        }
        let link = self.tail_links[host.0];
        self.sim.set_link_blocked(link, LinkDirection::AToB, false);
        self.sim.set_link_blocked(link, LinkDirection::BToA, false);
        self.host_mut(host).set_attached(true);
        if self.sim.is_started() {
            let node = self.host_nodes[host.0];
            self.sim.with_node_ctx(node, |n, ctx| {
                n.as_any_mut()
                    .downcast_mut::<EndHost>()
                    .expect("host node")
                    .restart_apps(ctx);
            });
        }
    }

    /// Whether a host is currently attached.
    pub fn host_attached(&self, host: HostId) -> bool {
        self.host(host).is_attached()
    }

    /// Replaces a network's router policy at any time — before the run
    /// starts or mid-simulation — and broadcasts the AITF-participation
    /// change to every other border router's deployment view, so
    /// escalation immediately routes around a provider that just left
    /// AITF (and back through one that rejoined). This is the network
    /// counterpart of [`World::detach_host`] / [`World::attach_host`]:
    /// the runtime hook `ChurnAction::SetRouterPolicy` compiles onto.
    pub fn set_router_policy(&mut self, net: NetId, policy: RouterPolicy) {
        let addr = self.router_addr[net.0];
        let enabled = policy.aitf_enabled;
        self.router_mut(net).set_policy(policy);
        for (i, &node) in self.router_nodes.iter().enumerate() {
            if i == net.0 {
                continue;
            }
            let router = self
                .sim
                .node_mut::<BorderRouter>(node)
                .expect("router node");
            router.set_peer_aitf_enabled(addr, enabled);
        }
    }

    /// A network's current router policy.
    pub fn router_policy(&self, net: NetId) -> RouterPolicy {
        self.router(net).policy()
    }

    /// Attack bytes delivered to a host so far (the victim's effective
    /// bandwidth numerator).
    pub fn attack_bytes_at(&self, host: HostId) -> u64 {
        self.host(host).counters().rx_attack_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_world() -> (World, NetId, NetId, HostId, HostId) {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let g_net = b.network("g_net", "10.1.0.0/16", Some(wan));
        let b_net = b.network("b_net", "10.9.0.0/16", Some(wan));
        let v = b.host(g_net);
        let a = b.host(b_net);
        (b.build(), g_net, b_net, v, a)
    }

    #[test]
    fn addresses_follow_prefixes() {
        let (w, g_net, b_net, v, a) = two_level_world();
        assert_eq!(w.router_addr(g_net), Addr::new(10, 1, 0, 254));
        assert_eq!(w.router_addr(b_net), Addr::new(10, 9, 0, 254));
        assert_eq!(w.host_addr(v), Addr::new(10, 1, 0, 1));
        assert_eq!(w.host_addr(a), Addr::new(10, 9, 0, 1));
        assert!(w.net_prefix(g_net).contains(w.host_addr(v)));
    }

    #[test]
    fn world_accessors_are_consistent() {
        let (w, g_net, _, v, _) = two_level_world();
        assert_eq!(w.net_count(), 3);
        assert_eq!(w.host_count(), 2);
        assert_eq!(w.host_net(v), g_net);
        assert_eq!(w.net_name(g_net), "g_net");
        assert_eq!(w.router(g_net).addr(), w.router_addr(g_net));
        assert_eq!(w.host(v).addr(), w.host_addr(v));
        assert!(w.uplink(g_net).is_some());
        assert!(w.uplink(NetId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps existing network")]
    fn overlapping_prefixes_rejected() {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        b.network("a", "10.0.0.0/8", None);
        b.network("b", "10.1.0.0/16", None);
    }

    #[test]
    fn empty_world_runs() {
        let (mut w, ..) = two_level_world();
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(w.sim.now().as_secs_f64(), 1.0);
    }

    /// A minimal constant-rate sender for the dynamic-world tests (the
    /// real sources live in `aitf-attack`, which this crate cannot
    /// depend on).
    struct TestTicker {
        to: Addr,
    }

    impl crate::TrafficApp for TestTicker {
        fn on_start(&mut self, api: &mut crate::HostApi<'_, '_>) {
            api.set_timer(SimDuration::from_millis(10), 0);
        }

        fn on_timer(&mut self, _token: u32, api: &mut crate::HostApi<'_, '_>) {
            api.send_from_self(
                self.to,
                aitf_packet::Protocol::Udp,
                80,
                aitf_packet::TrafficClass::Legit,
                100,
            );
            api.set_timer(SimDuration::from_millis(10), 0);
        }
    }

    #[test]
    fn detach_silences_a_host_and_attach_revives_it() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, Box::new(TestTicker { to: victim_addr }));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx_before = w.host(a).counters().tx_pkts;
        let rx_before = w.host(v).counters().rx_legit_pkts;
        assert!(tx_before > 50, "sender must be running");
        assert!(rx_before > 50, "victim must be receiving");

        w.detach_host(a);
        assert!(!w.host_attached(a));
        w.sim.run_for(SimDuration::from_secs(1));
        // Fully quiet: the app's timer chain died, nothing was offered.
        assert_eq!(w.host(a).counters().tx_pkts, tx_before);

        w.attach_host(a);
        assert!(w.host_attached(a));
        w.sim.run_for(SimDuration::from_secs(1));
        assert!(
            w.host(a).counters().tx_pkts > tx_before + 50,
            "reattached host must resume sending"
        );
        assert!(w.host(v).counters().rx_legit_pkts > rx_before + 50);
    }

    #[test]
    fn host_detached_before_start_joins_on_attach() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, Box::new(TestTicker { to: victim_addr }));
        w.detach_host(a);
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(w.host(a).counters().tx_pkts, 0, "dormant until attach");
        w.attach_host(a);
        w.sim.run_for(SimDuration::from_secs(1));
        assert!(w.host(a).counters().tx_pkts > 50);
    }

    #[test]
    fn same_instant_detach_attach_does_not_double_the_rate() {
        // The stale-chain hazard: a detach→attach with no simulated time
        // in between leaves the pre-detach timer still queued. The epoch
        // stamp must kill it, or restart_apps doubles the send rate.
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, Box::new(TestTicker { to: victim_addr }));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx_before = w.host(a).counters().tx_pkts;
        w.detach_host(a);
        w.attach_host(a); // same instant: old timer chain still pending
        w.sim.run_for(SimDuration::from_secs(1));
        let delta = w.host(a).counters().tx_pkts - tx_before;
        // One 10 ms chain ≈ 100 pkts/s; a resurrected second chain ≈ 200.
        assert!((90..=101).contains(&delta), "rate doubled? delta = {delta}");
    }

    #[test]
    fn attaching_an_attached_host_is_a_no_op() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.add_app(a, Box::new(TestTicker { to: victim_addr }));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx_before = w.host(a).counters().tx_pkts;
        // Never detached: attach must not restart (and duplicate) the
        // live app chains of an overlapping churn selection.
        w.attach_host(a);
        w.sim.run_for(SimDuration::from_secs(1));
        let delta = w.host(a).counters().tx_pkts - tx_before;
        assert!((90..=101).contains(&delta), "rate doubled? delta = {delta}");
    }

    #[test]
    fn shard_hints_group_each_net_with_its_hosts() {
        let (w, g_net, b_net, v, a) = two_level_world();
        let spec = w.shard_hints();
        assert_eq!(spec.groups().len(), 3, "one group per network");
        // wan is the root; both leaf nets parent to it.
        assert_eq!(spec.parents()[0], None);
        assert_eq!(spec.parents()[g_net.0], Some(0));
        assert_eq!(spec.parents()[b_net.0], Some(0));
        assert!(spec.groups()[g_net.0].contains(&w.host_node(v)));
        assert!(spec.groups()[b_net.0].contains(&w.host_node(a)));
        // Every node lands in exactly one group.
        let total: usize = spec.groups().iter().map(Vec::len).sum();
        assert_eq!(total, w.sim.node_count());
    }

    #[test]
    fn shard_hints_merge_non_cooperating_nets_into_their_provider() {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        let wan = b.network("wan", "10.100.0.0/16", None);
        let coop = b.network("coop", "10.1.0.0/16", Some(wan));
        let legacy = b.network_with(
            "legacy",
            "10.9.0.0/16",
            Some(wan),
            RouterPolicy {
                aitf_enabled: false,
                ..RouterPolicy::default()
            },
            WorldBuilder::default_net_link(),
        );
        let h = b.host(legacy);
        let w = b.build();
        let spec = w.shard_hints();
        assert_eq!(spec.groups().len(), 2, "legacy merges into wan's group");
        // Group 0 is wan's: it holds both wan and legacy routers plus the
        // legacy host; coop keeps its own group.
        assert!(spec.groups()[0].contains(&w.router_node(wan)));
        assert!(spec.groups()[0].contains(&w.router_node(legacy)));
        assert!(spec.groups()[0].contains(&w.host_node(h)));
        assert!(spec.groups()[1].contains(&w.router_node(coop)));
        assert_eq!(spec.parents(), &[None, Some(0)]);
    }

    #[test]
    fn shard_hints_partition_and_run() {
        // End-to-end: hints → partition → sharded run matches single.
        let run = |shards: usize| {
            let (mut w, _, _, v, a) = two_level_world();
            let victim_addr = w.host_addr(v);
            w.add_app(a, Box::new(TestTicker { to: victim_addr }));
            if shards > 1 {
                let spec = w.shard_hints();
                let part = w.sim.apply_shards(shards, &spec).expect("partition");
                assert_eq!(part.shards, shards);
            }
            w.sim.run_for(SimDuration::from_secs(2));
            (
                w.sim.dispatched_events(),
                w.host(v).counters().rx_legit_pkts,
                w.host(a).counters().tx_pkts,
            )
        };
        let single = run(1);
        assert_eq!(run(2), single);
        assert_eq!(run(3), single);
    }

    #[test]
    fn hierarchical_routing_matches_all_pairs_on_a_tree_with_peering() {
        // Same topology, both routing modes: a two-level tree with a
        // peering shortcut. Every packet must traverse the same links, so
        // the event counts and delivery counters agree exactly.
        let run = |mode: RoutingMode| {
            let mut b = WorldBuilder::new(1, AitfConfig::default());
            b.routing(mode);
            let wan = b.network("wan", "10.100.0.0/16", None);
            let isp_a = b.network("isp_a", "10.1.0.0/16", Some(wan));
            let isp_b = b.network("isp_b", "10.9.0.0/16", Some(wan));
            let leaf = b.network("leaf", "10.20.0.0/16", Some(isp_b));
            b.peer(isp_a, isp_b, WorldBuilder::default_net_link());
            let v = b.host(isp_a);
            let a = b.host(leaf);
            let mut w = b.build();
            let victim_addr = w.host_addr(v);
            w.add_app(a, Box::new(TestTicker { to: victim_addr }));
            w.sim.run_for(SimDuration::from_secs(2));
            (
                w.sim.dispatched_events(),
                w.host(v).counters().rx_legit_pkts,
            )
        };
        let all_pairs = run(RoutingMode::AllPairs);
        assert!(all_pairs.1 > 100, "traffic must flow: {all_pairs:?}");
        assert_eq!(run(RoutingMode::Hierarchical), all_pairs);
    }

    #[test]
    #[should_panic(expected = "duplicates an existing network")]
    fn duplicate_prefixes_rejected_in_hierarchical_mode() {
        let mut b = WorldBuilder::new(1, AitfConfig::default());
        b.routing(RoutingMode::Hierarchical);
        b.network("a", "10.1.0.0/16", None);
        b.network("b", "10.1.0.0/16", None);
    }

    #[test]
    fn activate_app_mid_run_starts_immediately() {
        let (mut w, _, _, v, a) = two_level_world();
        let victim_addr = w.host_addr(v);
        w.sim.run_for(SimDuration::from_secs(1));
        assert_eq!(w.host(a).counters().tx_pkts, 0);
        w.activate_app(a, Box::new(TestTicker { to: victim_addr }));
        w.sim.run_for(SimDuration::from_secs(1));
        let tx = w.host(a).counters().tx_pkts;
        assert!((90..=101).contains(&tx), "tx = {tx}");
    }
}
