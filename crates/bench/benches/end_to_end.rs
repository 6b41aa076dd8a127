//! Macrobenchmark: whole-protocol round on the Figure 1 world.
//!
//! One iteration builds the paper's topology, launches a flood and runs
//! two seconds of virtual time — covering detection, request propagation,
//! the 3-way handshake and the attacker-side block. This is the number
//! that says how much AITF world a wall-clock second simulates.

use aitf_attack::FloodSource;
use aitf_core::{AitfConfig, HostPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{Role, TopologySpec};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_cooperative_round(c: &mut Criterion) {
    c.bench_function("end_to_end_fig1_2s", |b| {
        b.iter(|| {
            let mut f = TopologySpec::fig1(HostPolicy::Compliant).build(42, AitfConfig::default());
            let (victim, attacker) = (f.victim(), f.first_with(Role::Attacker));
            let target = f.world.host_addr(victim);
            f.world
                .add_app(attacker, Box::new(FloodSource::new(target, 1000, 500)));
            f.world.sim.run_for(SimDuration::from_secs(2));
            black_box(f.world.host(victim).counters().rx_attack_pkts)
        });
    });
}

fn bench_forwarding_throughput(c: &mut Criterion) {
    // Pure data-plane: no attack, just a CBR stream across 6 routers.
    c.bench_function("end_to_end_forwarding_5k_pkts", |b| {
        b.iter(|| {
            let mut f = TopologySpec::fig1(HostPolicy::Compliant).build(42, AitfConfig::default());
            let (victim, attacker) = (f.victim(), f.first_with(Role::Attacker));
            let target = f.world.host_addr(victim);
            f.world.add_app(
                attacker,
                Box::new(aitf_attack::LegitClient::new(target, 5000, 500)),
            );
            f.world.sim.run_for(SimDuration::from_secs(1));
            black_box(f.world.host(victim).counters().rx_legit_pkts)
        });
    });
}

fn quick_config() -> Criterion {
    // Short, stable runs: the suite has many benchmarks and CI time is
    // better spent on breadth than on sub-nanosecond precision.
    Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(name = benches; config = quick_config(); targets = bench_cooperative_round, bench_forwarding_throughput);
criterion_main!(benches);
