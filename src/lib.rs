//! # aitf — Active Internet Traffic Filtering, reproduced in Rust
//!
//! Umbrella crate for the reproduction of Argyraki & Cheriton's *Active
//! Internet Traffic Filtering: Real-time Response to Denial-of-Service
//! Attacks*. It re-exports the workspace crates so applications can depend
//! on one name:
//!
//! - [`core`] (`aitf-core`) — the AITF protocol: border routers, end
//!   hosts, contracts, the 3-way handshake and escalation, plus the
//!   `DefensePolicy` axis (AITF, pushback, rate-limiting, path stamps).
//! - [`netsim`] (`aitf-netsim`) — the deterministic discrete-event network
//!   simulator the protocol runs on.
//! - [`packet`] (`aitf-packet`) — addresses, flow labels, messages and the
//!   route-record shim.
//! - [`filter`] (`aitf-filter`) — bounded filter tables, the DRAM shadow
//!   cache and contract rate limiters.
//! - [`traceback`] (`aitf-traceback`) — route-record and sampling
//!   traceback providers.
//! - [`attack`] (`aitf-attack`) — attack and legitimate traffic sources.
//! - [`scenario`] (`aitf-scenario`) — the declarative scenario API:
//!   topology × workload × probes, with generators for the Figure 1
//!   world, stars, chains, provider trees and power-law graphs.
//!
//! See `examples/quickstart.rs` for a complete end-to-end run and the
//! `aitf-bench` crate for the experiment suite that regenerates the
//! paper's evaluation.

pub use aitf_attack as attack;
pub use aitf_core as core;
pub use aitf_filter as filter;
pub use aitf_netsim as netsim;
pub use aitf_packet as packet;
pub use aitf_scenario as scenario;
pub use aitf_traceback as traceback;
