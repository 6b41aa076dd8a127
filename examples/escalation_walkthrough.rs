//! Walkthrough of Section II-D: what happens when gateways refuse.
//!
//! Runs the Figure 1 scenario four times with 0–3 non-cooperating
//! attacker-side gateways and narrates where the filtering ends up each
//! time — from "blocked at the attacker's gateway" to the worst case
//! where `G_gw3` disconnects from `B_gw3` entirely.
//!
//! Run with `cargo run --example escalation_walkthrough`; add
//! `--features aitf-core/trace` to also print the first escalation spans
//! the victim's gateway recorded in each run.

use aitf_attack::FloodSource;
use aitf_core::{AitfConfig, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{Role, TopologySpec};

fn main() {
    println!("=== escalation walkthrough (Fig. 1, Section II-D) ===");
    for rogues in 0..=3 {
        let mut f =
            TopologySpec::fig1(HostPolicy::Malicious).build(1000 + rogues, AitfConfig::default());
        let (victim, attacker) = (f.victim(), f.first_with(Role::Attacker));
        let b_side = [
            ("B_gw1", f.net("B_net")),
            ("B_gw2", f.net("B_isp")),
            ("B_gw3", f.net("B_wan")),
        ];
        for &(_, net) in b_side.iter().take(rogues as usize) {
            f.world
                .router_mut(net)
                .set_policy(RouterPolicy::non_cooperating());
        }
        let target = f.world.host_addr(victim);
        f.world
            .add_app(attacker, Box::new(FloodSource::new(target, 1000, 500)));
        f.world.sim.run_for(SimDuration::from_secs(15));

        println!("\n--- {rogues} non-cooperating attacker-side gateway(s) ---");
        for (name, net) in b_side {
            let c = f.world.router(net).counters();
            let role = if c.filters_installed > 0 {
                format!(
                    "BLOCKED the flow (filters: {}, disconnects: {})",
                    c.filters_installed, c.disconnects_client
                )
            } else if c.requests_ignored > 0 {
                format!("ignored {} request(s)", c.requests_ignored)
            } else {
                "not involved".to_string()
            };
            println!("  {name}: {role}");
        }
        let g3 = f.world.router(f.net("G_wan")).counters();
        if g3.disconnects_peer > 0 {
            println!("  G_gw3: DISCONNECTED the peering to B_gw3 (worst case)");
        }
        let v = f.world.host(victim).counters();
        println!(
            "  victim: {} attack packets leaked of {} sent",
            v.rx_attack_pkts,
            f.world.host(attacker).counters().tx_pkts
        );
        println!("  G_gw1 escalation spans:");
        let g_gw1 = f.world.router(f.net("G_net")).addr().raw();
        let spans: Vec<_> = f
            .world
            .trace_spans()
            .into_iter()
            .filter(|s| s.router == g_gw1)
            .collect();
        if spans.is_empty() {
            println!("    no escalation spans recorded: rerun with --features aitf-core/trace");
        }
        for span in spans.iter().take(6) {
            println!("    {span}");
        }
    }
    println!(
        "\nEach extra rogue gateway costs one escalation round; the flood \
         is always cut, and the rogue side pays with connectivity."
    );
}
