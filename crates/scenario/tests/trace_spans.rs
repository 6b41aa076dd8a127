//! Span cause-chain regression for one full escalation (trace builds only).
//!
//! Runs the paper's Figure 1 world — a malicious flood with every
//! attacker-side gateway non-cooperating, so escalation walks the whole
//! ladder — and pins the recorded span tree: each escalation round opens a
//! `Round` span with the right cause (`detection` for round 1, escalation
//! or temp-filter expiry afterwards), the handshake and filter spans
//! parent under their round even though they happen on *different
//! routers*, and the chain terminates in a disconnect.
//!
//! Also pins the per-subsystem profile attribution of every defense
//! policy's datapath on one small flooded star: which bucket each event
//! is charged to is part of the profile's meaning, so it must not drift
//! when the datapath is restructured.

#![cfg(feature = "trace")]

use aitf_core::{DefensePolicy, HostPolicy, RouterPolicy};
use aitf_netsim::SimDuration;
use aitf_scenario::{HostSel, Role, Scenario, TargetSel, TopologySpec, TrafficSpec};
use aitf_trace::{Cause, SpanKind, SpanRecord, Subsystem};

fn fig1_spans() -> Vec<SpanRecord> {
    // The attacker's own gateway shirks, so round 1's request is ignored,
    // the temporary filter expires, and the ladder climbs to round 2 where
    // the next gateway up (B_isp) cooperates: handshake, long filter, and
    // the policing disconnect of the shirking client below it.
    let mut topo = TopologySpec::fig1(HostPolicy::Malicious);
    topo.set_net_policy("B_net", RouterPolicy::non_cooperating());
    let scenario = Scenario::new(topo)
        .duration(SimDuration::from_secs(8))
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            1000,
            500,
        ));
    let outcome = scenario.run(42);
    outcome
        .trace
        .expect("trace feature is on; every outcome carries a report")
        .spans
        .clone()
}

fn find(spans: &[SpanRecord], kind: SpanKind, cause: Cause, round: u8) -> Option<&SpanRecord> {
    spans
        .iter()
        .find(|s| s.kind == kind && s.cause == cause && s.round == round)
}

#[test]
fn one_full_escalation_pins_its_parent_and_cause_chain() {
    let spans = fig1_spans();
    assert!(!spans.is_empty(), "a traced escalation must record spans");

    // Every span is closed (run finished) and well-formed.
    for s in &spans {
        assert!(s.end_ns >= s.start_ns, "open or time-reversed span: {s:?}");
    }

    // Round 1 exists, caused by detection, and is a root span.
    let r1 = find(&spans, SpanKind::Round, Cause::Detection, 1)
        .expect("round 1 opens on the victim's gateway after detection");
    assert_eq!(r1.parent, None, "rounds are roots of the cause chain");

    // Work committed in round 1: the victim-side temporary filter, a
    // child of the round on the same router. (No handshake yet — the
    // shirking B_net gateway ignores the round-1 request.)
    let tmp = find(&spans, SpanKind::TempFilter, Cause::Protocol, 1)
        .expect("temporary filter installs in round 1");
    assert_eq!(tmp.parent, Some(r1.id));
    assert_eq!(tmp.router, r1.router, "temp filter is victim-gateway work");

    // The attack outlives round 1, so round 2 opens — via escalation or
    // temp-filter expiry — and the virtual-time clock orders it strictly
    // after round 1 began.
    let r2 = spans
        .iter()
        .find(|s| {
            s.kind == SpanKind::Round
                && s.round == 2
                && matches!(s.cause, Cause::Escalated | Cause::TempFilterExpired)
        })
        .expect("the flood escalates to round 2");
    assert_eq!(r2.parent, None, "rounds are roots of the cause chain");
    assert_eq!(r2.flow, r1.flow);
    assert!(r2.start_ns > r1.start_ns, "rounds advance in virtual time");

    // Round 2's verification handshake parents under a round-2 Round span
    // — and runs on a *different router* (the attacker-side gateway; the
    // round opened victim-side), which is exactly what the shared world
    // tracer exists for.
    let hs = find(&spans, SpanKind::Handshake, Cause::Protocol, 2)
        .expect("verification handshake inside round 2");
    let hs_round = spans
        .iter()
        .find(|s| Some(s.id) == hs.parent)
        .expect("handshake parents under a span");
    assert_eq!(hs_round.kind, SpanKind::Round);
    assert_eq!(hs_round.round, 2);
    assert_eq!(hs.flow, hs_round.flow, "same escalation, same flow key");
    assert_ne!(
        hs.router, hs_round.router,
        "handshake happens on the attacker side, round opened on the victim side"
    );

    // The confirmed handshake commits the attacker-side long filter,
    // parented under the same round-2 span.
    let long = find(&spans, SpanKind::LongFilter, Cause::HandshakeConfirmed, 2)
        .expect("long filter installs once the handshake confirms");
    assert_eq!(long.parent, Some(hs_round.id));
    assert_eq!(long.router, hs.router, "long filter is attacker-side work");

    // The ladder terminates: the shirking client below gets disconnected.
    let disc = spans
        .iter()
        .find(|s| s.kind == SpanKind::Disconnect)
        .expect("Figure 1's endgame with a shirking gateway is a disconnection");
    assert!(disc.round >= 2, "disconnection only after escalation");

    // Determinism: span records are virtual-time data, so a second run of
    // the same seed reproduces the tree exactly.
    assert_eq!(spans, fig1_spans());
}

/// Per-subsystem event counts of a 4-spoke flooded star (one zombie and
/// one legitimate client per spoke) run for 3 s under `policy`, in
/// [`Subsystem::ALL`] order.
fn star_profile_events(policy: DefensePolicy) -> Vec<(&'static str, u64)> {
    let mut topo = TopologySpec::star(4, 2, HostPolicy::Malicious, 10_000_000);
    let zombies: Vec<usize> = (0..topo.hosts.len())
        .filter(|&i| topo.hosts[i].role == Role::Attacker)
        .collect();
    for pair in zombies.chunks(2) {
        let &i = pair.last().expect("two hosts per spoke");
        topo.hosts[i].policy = HostPolicy::Compliant;
        topo.hosts[i].role = Role::Legit;
    }
    let outcome = Scenario::new(topo)
        .defense(policy)
        .duration(SimDuration::from_secs(3))
        .traffic(TrafficSpec::legit(
            HostSel::Role(Role::Legit),
            TargetSel::Victim,
            100,
            1000,
        ))
        .traffic(TrafficSpec::flood(
            HostSel::Role(Role::Attacker),
            TargetSel::Victim,
            1000,
            500,
        ))
        .run(7);
    let profile = outcome
        .trace
        .expect("trace feature is on; every outcome carries a report")
        .subsystems;
    profile
        .rows()
        .into_iter()
        .map(|(s, b)| (s.name(), b.events))
        .collect()
}

#[test]
fn every_defense_policy_charges_its_events_to_the_same_subsystems() {
    let got: Vec<_> = DefensePolicy::BAKEOFF
        .iter()
        .map(|&p| (p.name(), star_profile_events(p)))
        .collect();
    // Columns: netsim_queue, link, host_app, router_datapath,
    // defense_hook, escalation, detector. Only AITF charges control work
    // to `escalation`; every other policy's control plane is part of its
    // defense hook.
    let expected: [(&str, [u64; 7]); 4] = [
        ("aitf", [33012, 9904, 14733, 5858, 2485, 28, 4]),
        ("pushback", [49706, 18265, 14737, 5154, 11546, 0, 4]),
        (
            "ingress_ratelimit",
            [49012, 17918, 14710, 4776, 11604, 0, 4],
        ),
        ("path_stamp", [92894, 39897, 13593, 26798, 12602, 0, 4]),
    ];
    for ((name, rows), (want_name, want)) in got.iter().zip(expected) {
        assert_eq!(*name, want_name);
        let names: Vec<_> = Subsystem::ALL.iter().map(|s| s.name()).collect();
        let want: Vec<_> = names.into_iter().zip(want).collect();
        assert_eq!(rows, &want, "{name}: per-subsystem event counts drifted");
    }
}
