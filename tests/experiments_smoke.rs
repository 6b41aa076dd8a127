//! Runs experiments from the spec registry in quick mode and checks each
//! produced records with simulator events — the experiments' own modules
//! assert the substantive claims; this test guarantees the registered
//! specs `all_experiments` drives never bit-rot.

use aitf_engine::Runner;

/// Selects `ids` from the quick registry, runs them, and checks every
/// spec returned records that carry simulator events.
fn run_quick(ids: &[&str]) {
    let filters: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
    let specs = aitf_bench::registry(true).select(&filters);
    let selected: Vec<&str> = specs.iter().map(|s| s.id).collect();
    assert_eq!(selected, ids, "each id selects exactly its own spec");
    let grouped = Runner::default().quick(true).run_all(&specs);
    for (spec, records) in specs.iter().zip(&grouped) {
        assert!(!records.is_empty(), "{} produced no records", spec.id);
        assert!(
            records.iter().all(|r| r.events > 0),
            "{}: every record must report simulator events",
            spec.id
        );
    }
}

#[test]
fn all_experiments_run_quick() {
    run_quick(&[
        "e1_escalation",
        "e3_protection_capacity",
        "e5_attacker_gw_resources",
        "e6_handshake_security",
        "e7_onoff_attacks",
        "e9_ingress_incentive",
        "e12_mixed_workload",
        "e14_td_tr_grid",
        "e15_host_churn",
        "e16_deployment_incentive",
        "e17_provider_churn",
    ]);
}

#[test]
fn figures_spec_emits_series_metrics() {
    let spec = aitf_bench::figures::spec(true);
    let records = Runner::new(2).quick(true).run(&spec);
    assert_eq!(records.len(), 2, "defended + undefended");
    for r in &records {
        assert!(r.events > 0, "figures runs must report simulator events");
        let series = r.metrics.f64_list("_series_goodput_mbps");
        assert!(!series.is_empty());
        assert_eq!(series.len(), r.metrics.f64_list("_series_time_s").len());
        // Series are JSON-only: the table keeps the summary columns.
        assert!(r.to_json().contains("\"_series_goodput_mbps\":["));
    }
    // Paired seeds: the defended/undefended rows differ only in the knob.
    assert_eq!(records[0].seed, records[1].seed);
}

#[test]
fn heavy_experiments_run_quick() {
    // Split out so the long sweeps can run in parallel with the rest.
    run_quick(&[
        "e2_effective_bandwidth",
        "e4_victim_gw_resources",
        "e8_vs_pushback",
        "e8b_rogue_hop",
        "e10_scaling",
        "e13_filter_pressure",
    ]);
}
