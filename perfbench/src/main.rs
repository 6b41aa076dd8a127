//! Point runner of the AITF benchmark; `run.py` drives it.
//!
//! ```text
//! aitf-perfbench --workload <crowd_100k|megatree_105k|star_bakeoff> --seed <n>
//! ```
//!
//! One process runs one workload once, through `aitf_engine::Runner`, and
//! prints one JSON object on stdout: per-point simulated outputs, the
//! sweep's wall time, the process's peak RSS and per-point timings.
//!
//! - Untraced build (`cargo build --release`): every point runs through
//!   `Scenario::run`; a setup hook stamps the moment the world is built
//!   and compiled, which gives the point's set-up time from outside.
//! - Traced build (`--profile traced --features trace`): every point runs
//!   the same phases by hand — spec, `TopologySpec::build`,
//!   `WorkloadSpec::compile`, `Simulator::run_for`, the end probe, the
//!   drops — each inside a span with its own allocation count (the
//!   counting allocator is installed only here), plus the simulator's
//!   per-subsystem loop profile. Spans stay in memory until the sweep
//!   has ended.
//!
//! Both builds read the simulated outputs through
//! [`workloads::Workload::measure`], so `run.py` can require them to agree.

mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aitf_engine::params::json_string;
use aitf_engine::{Outcome, Params, Runner, ScenarioSpec};

use workloads::Workload;

#[cfg(feature = "trace")]
#[global_allocator]
static GLOBAL: aitf_packet::alloc_probe::CountingAlloc = aitf_packet::alloc_probe::CountingAlloc;

/// One timed phase of a point: name, start and end in seconds since the
/// process epoch, and the allocations made inside it (traced build only).
struct Phase {
    name: &'static str,
    start: f64,
    end: f64,
    allocs: u64,
}

/// What a point reports besides its simulated outputs.
#[derive(Default)]
struct Timing {
    start: f64,
    end: f64,
    /// Set-up time: spec construction until the world is runnable.
    setup_s: f64,
    /// Networks plus hosts of the built world.
    nodes: u64,
    phases: Vec<Phase>,
    /// `(subsystem, events, wall nanos)` of the event loop.
    subsystems: Vec<(&'static str, u64, u64)>,
}

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: aitf-perfbench --workload <{}> --seed <n>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--workload", Some(v)) => workload = Workload::from_name(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage();
    };
    println!("{}", run(workload, seed));
    ExitCode::SUCCESS
}

/// Runs the workload's sweep once and renders the report.
fn run(workload: Workload, seed: u64) -> String {
    let epoch = Instant::now();
    let timings: Arc<Mutex<Vec<(String, Timing)>>> = Arc::default();
    let sink = Arc::clone(&timings);
    let spec = ScenarioSpec::new("perfbench", workload.name(), "benchmark")
        .points(workload.points())
        .runner(move |point, ctx| {
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_point(workload, point, seed, ctx.seed, epoch)
            }));
            let (outcome, timing) = result.unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                let timing = Timing {
                    start: secs(epoch, start),
                    end: secs(epoch, Instant::now()),
                    ..Timing::default()
                };
                (
                    Outcome::new(Params::new().with("panic", msg.to_string())),
                    timing,
                )
            });
            sink.lock()
                .expect("timing sink poisoned")
                .push((point.str("point").to_string(), timing));
            outcome
        });
    let runner = Runner::new(workload.workers()).base_seed(seed);
    let sweep_start = secs(epoch, Instant::now());
    let records = runner.run(&spec);
    let sweep_end = secs(epoch, Instant::now());

    let mut timings = std::mem::take(&mut *timings.lock().expect("timing sink poisoned"));
    let mut points = Vec::new();
    for r in &records {
        let name = r.params.str("point");
        let i = timings
            .iter()
            .position(|(n, _)| n == name)
            .expect("every point reported its timing");
        let (_, t) = timings.swap_remove(i);
        let phases: Vec<String> = t
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":{},\"start\":{},\"end\":{},\"allocs\":{}}}",
                    json_string(p.name),
                    p.start,
                    p.end,
                    p.allocs
                )
            })
            .collect();
        let subsystems: Vec<String> = t
            .subsystems
            .iter()
            .map(|(n, e, ns)| format!("{}:{{\"events\":{e},\"nanos\":{ns}}}", json_string(n)))
            .collect();
        points.push(format!(
            "{{\"point\":{},\"seed\":{},\"events\":{},\"nodes\":{},\"start\":{},\"end\":{},\
             \"setup_s\":{},\"outcome\":{},\"phases\":[{}],\"subsystems\":{{{}}}}}",
            json_string(name),
            r.seed,
            r.events,
            t.nodes,
            t.start,
            t.end,
            t.setup_s,
            r.metrics.to_json(),
            phases.join(","),
            subsystems.join(",")
        ));
    }
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"traced\":{},\"workers\":{},\
         \"sweep_start\":{sweep_start},\"sweep_end\":{sweep_end},\"peak_rss_kb\":{},\
         \"points\":[{}]}}",
        json_string(workload.name()),
        cfg!(feature = "trace"),
        runner.threads(),
        peak_rss_kb(),
        points.join(",")
    )
}

fn secs(epoch: Instant, t: Instant) -> f64 {
    t.duration_since(epoch).as_secs_f64()
}

/// The process's peak resident set (`VmHWM`), in KiB; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One point through `Scenario::run`, timed from outside.
#[cfg(not(feature = "trace"))]
fn run_point(
    workload: Workload,
    point: &Params,
    seed: u64,
    run_seed: u64,
    epoch: Instant,
) -> (Outcome, Timing) {
    use std::cell::Cell;
    use std::rc::Rc;

    let start = Instant::now();
    let ready = Rc::new(Cell::new(None));
    let stamp = Rc::clone(&ready);
    let nodes = Rc::new(Cell::new(0u64));
    let count = Rc::clone(&nodes);
    let probes = aitf_scenario::ProbeSet::new()
        .setup(move |w| {
            stamp.set(Some(Instant::now()));
            count.set((w.world.net_count() + w.world.host_count()) as u64);
        })
        .end(move |w, m| workload.measure(w, m));
    let outcome = workload.scenario(point, seed).probes(probes).run(run_seed);
    let end = Instant::now();
    let ready = ready.get().expect("Scenario::run ran the setup hook");
    let timing = Timing {
        start: secs(epoch, start),
        end: secs(epoch, end),
        setup_s: ready.duration_since(start).as_secs_f64(),
        nodes: nodes.get(),
        ..Timing::default()
    };
    (outcome, timing)
}

/// One point split into its phases by hand, each timed and
/// allocation-counted by the benchmark around a public call. Mirrors
/// `Scenario::run` for a full-deployment, single-shard scenario without
/// churn or sampled probes — which is what every workload is; `run.py`
/// checks the outputs against the untraced run.
#[cfg(feature = "trace")]
fn run_point(
    workload: Workload,
    point: &Params,
    seed: u64,
    run_seed: u64,
    epoch: Instant,
) -> (Outcome, Timing) {
    let mut phases = Vec::new();
    let start = Instant::now();
    let scenario = timed(&mut phases, epoch, "scenario.spec", || {
        workload.scenario(point, seed)
    });
    assert!(
        scenario.deployment.is_full() && scenario.churn.events.is_empty() && scenario.shards == 1,
        "the hand-split run mirrors only full-deployment, static, single-shard scenarios"
    );
    let aitf_scenario::Scenario {
        config,
        topology,
        workload: traffic,
        duration,
        ..
    } = scenario;
    let mut world = timed(&mut phases, epoch, "core.build", || {
        topology.build(run_seed, config)
    });
    timed(&mut phases, epoch, "attack.compile", || {
        traffic.compile(&mut world)
    });
    timed(&mut phases, epoch, "netsim.loop", || {
        world.world.sim.run_for(duration)
    });
    let metrics = timed(&mut phases, epoch, "scenario.probes", || {
        let mut m = Params::new();
        workload.measure(&world, &mut m);
        m
    });
    let events = world.world.sim.dispatched_events();
    let nodes = (world.world.net_count() + world.world.host_count()) as u64;
    let subsystems = world
        .world
        .sim
        .subsystem_profile()
        .rows()
        .into_iter()
        .map(|(s, b)| (s.name(), b.events, b.nanos))
        .collect();
    timed(&mut phases, epoch, "core.teardown", || drop(world));
    timed(&mut phases, epoch, "scenario.drop", || {
        drop((topology, traffic))
    });
    let end = Instant::now();
    let timing = Timing {
        start: secs(epoch, start),
        end: secs(epoch, end),
        setup_s: phases[..3].iter().map(|p| p.end - p.start).sum(),
        nodes,
        phases,
        subsystems,
    };
    (Outcome::new(metrics).with_events(events), timing)
}

/// Runs `f` as the phase `name`, recording its span and allocations.
#[cfg(feature = "trace")]
fn timed<T>(
    phases: &mut Vec<Phase>,
    epoch: Instant,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let (out, allocs) = aitf_packet::alloc_probe::CountingAlloc::count(f);
    phases.push(Phase {
        name,
        start: secs(epoch, start),
        end: secs(epoch, Instant::now()),
        allocs,
    });
    out
}
