//! The hop-by-hop pushback policy ([MBF+01], §V of the paper), exercised
//! end to end through [`DefensePolicy::Pushback`]'s router hooks — the
//! ported behavioral suite of the former `aitf-baseline` crate.

use aitf_core::{AitfConfig, DefensePolicy, HostId, HostPolicy, NetId, World, WorldBuilder};
use aitf_netsim::SimDuration;
use aitf_packet::{Addr, Protocol, TrafficClass};

fn pushback_config() -> AitfConfig {
    AitfConfig {
        defense: DefensePolicy::Pushback,
        ..AitfConfig::default()
    }
}

/// Minimal flood app (mirrors aitf-attack's FloodSource without the
/// dependency, to keep the crate graph acyclic).
struct Flood {
    target: Addr,
    period: SimDuration,
}

impl aitf_core::TrafficApp for Flood {
    fn on_start(&mut self, api: &mut aitf_core::HostApi<'_, '_>) {
        api.set_timer(self.period, 0);
    }

    fn on_timer(&mut self, _t: u32, api: &mut aitf_core::HostApi<'_, '_>) {
        api.send_from_self(self.target, Protocol::Udp, 80, TrafficClass::Attack, 500);
        api.set_timer(self.period, 0);
    }
}

fn chain_world(
    depth: usize,
    rogue_level: Option<usize>,
) -> (World, Vec<NetId>, Vec<NetId>, HostId, HostId) {
    let mut b = WorldBuilder::new(9, pushback_config());
    let mut g_chain = Vec::new();
    let mut b_chain = Vec::new();
    for side in 0..2usize {
        let mut parent = None;
        let chain = if side == 0 {
            &mut g_chain
        } else {
            &mut b_chain
        };
        for level in (0..depth).rev() {
            let name = format!("{side}-{level}");
            let prefix = format!("10.{}.0.0/16", 1 + side * 100 + level);
            let id = b.network(&name, &prefix, parent);
            parent = Some(id);
            chain.push(id);
        }
        chain.reverse();
    }
    b.peer(
        g_chain[depth - 1],
        b_chain[depth - 1],
        WorldBuilder::default_net_link(),
    );
    if let Some(level) = rogue_level {
        b.set_router_policy(b_chain[level], aitf_core::RouterPolicy::non_cooperating());
    }
    let v = b.host(g_chain[0]);
    let a = b.host_with(
        b_chain[0],
        HostPolicy::Malicious,
        WorldBuilder::default_host_link(),
    );
    (b.build(), g_chain, b_chain, v, a)
}

#[test]
fn pushback_walks_hop_by_hop_to_the_attacker_edge() {
    let (mut w, g_chain, b_chain, v, a) = chain_world(3, None);
    let target = w.host_addr(v);
    w.add_app(
        a,
        Box::new(Flood {
            target,
            period: SimDuration::from_millis(1),
        }),
    );
    w.sim.run_for(SimDuration::from_secs(5));

    // EVERY router on the path ends up holding a filter — the paper's
    // "filtering bottleneck" contrast with AITF's 2 filters.
    let mut holding = 0;
    for &net in g_chain.iter().chain(b_chain.iter()) {
        if w.router(net).counters().filters_installed > 0 {
            holding += 1;
        }
    }
    assert_eq!(holding, 6, "all six routers hold pushback filters");

    // The flood is dead at the victim.
    let before = w.host(v).counters().rx_attack_pkts;
    w.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(w.host(v).counters().rx_attack_pkts, before);
}

#[test]
fn one_rogue_hop_silently_breaks_the_chain() {
    // The middle attacker-side router ignores pushback.
    let (mut w, _g, b_chain, v, a) = chain_world(3, Some(1));
    let target = w.host_addr(v);
    w.add_app(
        a,
        Box::new(Flood {
            target,
            period: SimDuration::from_millis(1),
        }),
    );
    w.sim.run_for(SimDuration::from_secs(5));

    // Nothing upstream of the rogue ever installs a filter: pushback
    // has no disconnection lever (Section V's "relies on good will").
    let edge = w.router(b_chain[0]);
    assert_eq!(
        edge.counters().filters_installed,
        0,
        "the attacker's edge router is never reached"
    );
    let rogue = w.router(b_chain[1]);
    assert!(rogue.pushback().pushback_ignored > 0);
    assert_eq!(rogue.counters().filters_installed, 0);
    // The chain stalled at the first cooperating router above the
    // rogue: the flood keeps burning bandwidth on every hop below it
    // (attacker edge and the rogue keep forwarding forever), instead of
    // being cut at the source as AITF would enforce.
    assert!(
        rogue.counters().data_forwarded > 2000,
        "rogue keeps carrying the flood: {}",
        rogue.counters().data_forwarded
    );
    let top = w.router(b_chain[2]);
    assert!(
        top.counters().data_filtered_pkts > 2000,
        "the first cooperating hop above the rogue absorbs the flood: {}",
        top.counters().data_filtered_pkts
    );
}

#[test]
fn victim_side_still_blocks_under_pushback() {
    let (mut w, _g, _b, v, a) = chain_world(2, None);
    let target = w.host_addr(v);
    w.add_app(
        a,
        Box::new(Flood {
            target,
            period: SimDuration::from_millis(1),
        }),
    );
    w.sim.run_for(SimDuration::from_secs(3));
    let c = w.host(v).counters();
    assert!(c.rx_attack_pkts < 400, "victim leak {}", c.rx_attack_pkts);
    assert!(c.requests_sent >= 1);
}

#[test]
fn pushback_world_builds_and_runs() {
    let mut b = WorldBuilder::new(1, pushback_config());
    let wan = b.network("wan", "10.100.0.0/16", None);
    let net = b.network("net", "10.1.0.0/16", Some(wan));
    let host = b.host(net);
    let mut w = b.build();
    w.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(w.host(host).counters().rx_attack_pkts, 0);
    // The router slots hold BorderRouters whose hooks run the pushback
    // stages, not the AITF ones.
    assert_eq!(w.router(wan).defense(), DefensePolicy::Pushback);
}
