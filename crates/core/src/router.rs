//! The AITF border router.
//!
//! Border routers are the only routers that speak AITF (Section II-C:
//! "Internal routers do not participate"). One [`BorderRouter`] node plays
//! every role the paper describes, depending on the request it receives:
//!
//! - **victim's gateway** — polices its client's requests, installs the
//!   temporary filter for `Ttmp`, logs the shadow for `T`, and propagates
//!   the request to the attacker's gateway (or escalates to its own
//!   gateway when the attacker side does not cooperate);
//! - **attacker's gateway** — verifies the request with the 3-way
//!   handshake, installs the long (`T`) filter, tells its client to stop,
//!   and disconnects the client after the grace period if it does not;
//! - **escalation relay** — both of the above, one level up, in later
//!   rounds;
//! - **plain forwarder** — stamps the route-record shim (or probabilistic
//!   marks) on transit data packets and enforces ingress filtering.

use std::collections::{BTreeMap, HashMap};

use aitf_defense::{DefensePolicy, ReadStage, Verdict, WriteStage};
use aitf_filter::{FilterTable, InstallError, RateLimiterBank, ShadowCache};
use aitf_netsim::{impl_node_any, Context, LinkId, Node, SimTime, Subsystem};
use aitf_packet::{
    Addr, AitfMessage, FilteringRequest, FlowLabel, LpmTable, Nonce, Packet, PayloadKind, Prefix,
    PushbackRequest, RequestDestination, TracebackMark, TrafficClass, VerificationQuery,
    VerificationReply,
};
use aitf_trace::{Cause, SpanId, SpanKind, Tracer};
use rand::Rng;

use crate::config::{AitfConfig, RouterPolicy, TracebackMode};
use crate::pipeline::{self, PolicyChains, StageId};
use crate::pushback::{PushbackCounters, PushbackState, LINK_LOCAL, MAX_PUSHBACK_DEPTH};

/// Everything a border router counts; read by experiments after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterCounters {
    /// Data packets forwarded.
    pub data_forwarded: u64,
    /// Data packets dropped by a wire-speed filter.
    pub data_filtered_pkts: u64,
    /// Bytes dropped by a wire-speed filter.
    pub data_filtered_bytes: u64,
    /// Client packets dropped by ingress filtering (spoofed source).
    pub spoofed_dropped: u64,
    /// Packets dropped for TTL exhaustion or no route.
    pub undeliverable: u64,
    /// Filtering requests received (before policing).
    pub requests_received: u64,
    /// Filtering requests dropped by contract policing.
    pub requests_policed: u64,
    /// Requests ignored because this router is non-cooperating or legacy.
    pub requests_ignored: u64,
    /// Victim-gateway-role requests rejected as invalid (wrong direction,
    /// destination not behind the requesting client).
    pub requests_invalid: u64,
    /// Damped duplicate requests whose temporary filter was refreshed in
    /// place.
    pub requests_refreshed: u64,
    /// Requests this router accepted and committed work to (temporary
    /// filter installed, handshake started, or long filter attempted) —
    /// together with the policed/ignored/invalid/refreshed/unsatisfiable
    /// counters, every received request lands in exactly one bucket.
    pub requests_accepted: u64,
    /// Requests this router satisfied by installing a filter.
    pub filters_installed: u64,
    /// Requests that failed because the filter table was full.
    pub requests_unsatisfiable: u64,
    /// Escalations that could not go anywhere: no AITF-enabled ancestor
    /// to forward to, or no identifiable neighbour to disconnect.
    pub escalations_dropped: u64,
    /// Escalations that dead-ended at this router's own uplink: severing
    /// it would disconnect this network, not the attacker, so the flow is
    /// filtered locally instead.
    pub local_filter_fallbacks: u64,
    /// Verification handshakes started.
    pub handshakes_started: u64,
    /// Handshakes that confirmed the request.
    pub handshakes_confirmed: u64,
    /// Handshakes denied by the victim.
    pub handshakes_denied: u64,
    /// Handshakes that timed out.
    pub handshakes_timed_out: u64,
    /// Escalated requests sent to this router's own gateway.
    pub escalations_sent: u64,
    /// Shadow-cache reactivations (on-off flows caught).
    pub reactivations: u64,
    /// Clients (hosts or client networks) disconnected after the grace
    /// period.
    pub disconnects_client: u64,
    /// Peers disconnected at the top of the escalation chain.
    pub disconnects_peer: u64,
    /// `dest=Attacker` notices sent towards the attacker.
    pub attacker_notices_sent: u64,
    /// Verification queries snooped and forged (compromised router only).
    pub handshakes_forged: u64,
    /// Deferred handshake-confirm installs that found the table full. The
    /// request was already counted `accepted` when its handshake started,
    /// so this is *outside* the received-request identity — it records
    /// committed work that could not be completed.
    pub deferred_unsatisfied: u64,
}

/// Timer meanings, keyed by token through `token_map`.
#[derive(Debug)]
enum TimerAction {
    HandshakeTimeout { nonce: u64 },
    GraceCheck { watch: u64 },
}

#[derive(Debug)]
struct PendingHandshake {
    request: FilteringRequest,
    nonce: Nonce,
    /// The open handshake span ([`SpanId::NONE`] when tracing is off).
    span: SpanId,
}

#[derive(Debug)]
struct GraceWatch {
    flow: FlowLabel,
    round: u8,
    client_link: Option<LinkId>,
    armed_at: SimTime,
}

/// A victim-gateway request waiting for an attack-path sample.
#[derive(Debug)]
struct PendingPath {
    request: FilteringRequest,
    expires: SimTime,
}

/// Static wiring a router needs from the world builder.
#[derive(Debug, Clone)]
pub struct RouterSpec {
    /// This router's control-plane address.
    pub addr: Addr,
    /// Longest-prefix-match forwarding table: network prefixes towards
    /// remote networks plus /32 routes for this router's own clients.
    pub fwd: LpmTable<LinkId>,
    /// Link towards this router's provider; `None` at the top level.
    pub uplink: Option<LinkId>,
    /// Addresses of this router's ancestor gateways, nearest first —
    /// escalation walks this chain, skipping ancestors known not to run
    /// AITF. Empty at the top level.
    pub ancestors: Vec<Addr>,
    /// Border routers known (via capability advertisement at build time)
    /// not to participate in AITF. Kept current at runtime through
    /// [`BorderRouter::set_peer_aitf_enabled`].
    pub legacy_peers: Vec<Addr>,
    /// Client links (to end-hosts and client networks) with the set of
    /// prefixes legitimately sourced behind each.
    pub client_links: BTreeMap<LinkId, Vec<Prefix>>,
    /// Protocol parameters.
    pub config: AitfConfig,
    /// Behaviour knobs.
    pub policy: RouterPolicy,
}

/// An AITF border router node.
///
/// Since the hook-pipeline refactor the datapath is organised as three
/// hook points — **Ingress** (packet entering the forwarding path),
/// **Egress** (just before route lookup + transmit) and **Escalate**
/// (control packets addressed to this router) — each running a
/// DAG-ordered chain of defense stages selected by
/// [`AitfConfig::defense`]. Stage logic is implemented on this type via
/// [`aitf_defense::ReadStage`] / [`aitf_defense::WriteStage`] and
/// dispatched statically through [`StageId`], so swapping the defense
/// never costs an allocation or a virtual call on the per-packet path.
pub struct BorderRouter {
    addr: Addr,
    cfg: AitfConfig,
    policy: RouterPolicy,
    /// Which defense populates the chains (copied from the config).
    defense: DefensePolicy,
    /// Resolved per-hook stage chains for `defense`.
    chains: PolicyChains,
    /// Pushback baseline state (arrival-link memory + counters); inert
    /// under every other policy.
    pushback: PushbackState,
    /// Per-source-prefix policer, populated only under
    /// [`DefensePolicy::IngressRateLimit`].
    prefix_limiter: Option<RateLimiterBank>,
    /// Revoked path-stamp origins `(first-hop router, expiry)`, populated
    /// only under [`DefensePolicy::PathStamp`].
    stamp_blocks: Vec<(Addr, SimTime)>,
    fwd: LpmTable<LinkId>,
    uplink: Option<LinkId>,
    ancestors: Vec<Addr>,
    /// The deployment view: peers currently known not to run AITF.
    disabled_peers: std::collections::HashSet<Addr>,
    client_links: BTreeMap<LinkId, Vec<Prefix>>,
    filters: FilterTable,
    shadow: ShadowCache,
    limiter: RateLimiterBank,
    pending_handshakes: HashMap<u64, PendingHandshake>,
    pending_paths: Vec<PendingPath>,
    grace_watches: HashMap<u64, GraceWatch>,
    token_map: HashMap<u64, TimerAction>,
    next_id: u64,
    counters: RouterCounters,
    /// Structured span recorder (a zero-sized no-op unless the `trace`
    /// feature is on); shared with every other router in the world so
    /// escalation chains parent across routers.
    tracer: Tracer,
}

/// Compact span key for a flow: `src_host << 32 | dst_host` (0 for a
/// wildcard end). Escalation flows are host-to-host labels, so the key is
/// unique within a world.
fn flow_key(flow: &FlowLabel) -> u64 {
    let src = flow.src_host().map(|a| a.0).unwrap_or(0) as u64;
    let dst = flow.dst_host().map(|a| a.0).unwrap_or(0) as u64;
    (src << 32) | dst
}

impl BorderRouter {
    /// Builds a router from its spec.
    pub fn new(spec: RouterSpec) -> Self {
        let cfg = spec.config;
        let mut limiter = RateLimiterBank::new(cfg.peer_contract.rate, cfg.peer_contract.burst);
        // Client links are policed at the client contract (R1); everything
        // else (uplink, peering) at the peer contract (R2).
        for &link in spec.client_links.keys() {
            limiter.set_contract(
                link.0 as u64,
                cfg.client_contract.rate,
                cfg.client_contract.burst,
            );
        }
        let defense = cfg.defense;
        BorderRouter {
            filters: FilterTable::with_policy(cfg.filter_capacity, cfg.eviction),
            shadow: ShadowCache::new(cfg.shadow_capacity),
            limiter,
            defense,
            chains: PolicyChains::build(defense).expect("static policy chains build"),
            pushback: PushbackState::default(),
            prefix_limiter: match defense {
                DefensePolicy::IngressRateLimit { rate_pps, burst } => {
                    Some(RateLimiterBank::new(rate_pps as f64, burst))
                }
                _ => None,
            },
            stamp_blocks: Vec::new(),
            cfg,
            policy: spec.policy,
            fwd: spec.fwd,
            uplink: spec.uplink,
            ancestors: spec.ancestors,
            // A router never lists itself: its own participation is its
            // `policy`, and the view only answers "can this *peer* act?".
            disabled_peers: spec
                .legacy_peers
                .into_iter()
                .filter(|&a| a != spec.addr)
                .collect(),
            addr: spec.addr,
            client_links: spec.client_links,
            pending_handshakes: HashMap::new(),
            pending_paths: Vec::new(),
            grace_watches: HashMap::new(),
            token_map: HashMap::new(),
            next_id: 0,
            counters: RouterCounters::default(),
            tracer: Tracer::new(),
        }
    }

    /// Replaces the span recorder. The world builder calls this on every
    /// router with clones of one shared [`Tracer`], so round spans parent
    /// across routers; a router keeps its private (inert) tracer otherwise.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This router's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The link towards this router's provider, if any.
    pub fn uplink(&self) -> Option<LinkId> {
        self.uplink
    }

    /// Counter snapshot.
    pub fn counters(&self) -> RouterCounters {
        self.counters
    }

    /// The wire-speed filter table (read-only).
    pub fn filters(&self) -> &FilterTable {
        &self.filters
    }

    /// The DRAM shadow cache (read-only).
    pub fn shadow(&self) -> &ShadowCache {
        &self.shadow
    }

    /// The contract policer (read-only).
    pub fn limiter(&self) -> &RateLimiterBank {
        &self.limiter
    }

    /// Which defense policy populates this router's hook chains.
    pub fn defense(&self) -> DefensePolicy {
        self.defense
    }

    /// The resolved hook chains (read-only; experiments and docs
    /// introspect the stage order).
    pub fn chains(&self) -> &PolicyChains {
        &self.chains
    }

    /// Pushback-plane counters (all zero unless the world runs
    /// [`DefensePolicy::Pushback`]).
    pub fn pushback(&self) -> PushbackCounters {
        self.pushback.counters
    }

    /// Total defense state this router currently holds: wire-speed filter
    /// entries plus policy-specific state (revoked path-stamp origins,
    /// per-prefix policing buckets). The bake-off's "filter footprint"
    /// metric sums this over every router.
    pub fn defense_footprint(&self) -> usize {
        self.filters.len()
            + self.stamp_blocks.len()
            + self.prefix_limiter.as_ref().map_or(0, RateLimiterBank::len)
    }

    /// The current behaviour policy.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Replaces the behaviour policy (experiments flip cooperation at
    /// runtime). Prefer [`crate::World::set_router_policy`], which also
    /// updates every other router's deployment view.
    pub fn set_policy(&mut self, policy: RouterPolicy) {
        self.policy = policy;
    }

    /// Updates the deployment view: records whether the border router at
    /// `addr` currently participates in AITF. The world-level
    /// [`crate::World::set_router_policy`] hook broadcasts this to every
    /// router when a provider joins or leaves AITF — the simulation's
    /// stand-in for a BGP-style capability advertisement.
    pub fn set_peer_aitf_enabled(&mut self, addr: Addr, enabled: bool) {
        if addr == self.addr {
            return;
        }
        if enabled {
            self.disabled_peers.remove(&addr);
        } else {
            self.disabled_peers.insert(addr);
        }
    }

    /// Whether `addr` is believed to run AITF (this router itself always
    /// answers yes — its own participation is its policy).
    fn peer_participates(&self, addr: Addr) -> bool {
        !self.disabled_peers.contains(&addr)
    }

    /// The nearest ancestor gateway that participates in AITF — the
    /// escalation target. A legacy parent is skipped, so the request
    /// lands on the nearest cooperating node instead of being silently
    /// eaten by a router that will only count it as ignored.
    fn escalation_parent(&self) -> Option<Addr> {
        self.ancestors
            .iter()
            .copied()
            .find(|&a| self.peer_participates(a))
    }

    fn alloc_token(&mut self, action: TimerAction) -> u64 {
        let token = self.next_id;
        self.next_id += 1;
        self.token_map.insert(token, action);
        token
    }

    /// Sends an AITF control message towards `dst` through the forwarding
    /// table.
    fn send_control(&mut self, ctx: &mut Context<'_>, dst: Addr, msg: AitfMessage) {
        let Some(&link) = self.fwd.lookup(dst) else {
            self.counters.undeliverable += 1;
            return;
        };
        let id = ctx.next_packet_id();
        ctx.send(link, Packet::control(id, self.addr, dst, msg));
    }

    /// Is `link` a client link, and if so, which prefixes live behind it?
    fn client_prefixes(&self, link: LinkId) -> Option<&[Prefix]> {
        self.client_links.get(&link).map(Vec::as_slice)
    }

    // ------------------------------------------------------------------
    // Data plane: the Ingress and Egress hooks.
    // ------------------------------------------------------------------

    /// Runs one stage by id — the static-dispatch heart of the pipeline.
    /// Every arm is a monomorphized trait call on a unit marker type, so
    /// walking a chain is a `match` per stage: no boxing, no vtables, no
    /// allocation. Write stages cannot veto; they report `Continue`.
    fn run_stage(
        &mut self,
        id: StageId,
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        use pipeline as st;
        match id {
            StageId::AitfIngressFilter => {
                st::AitfIngressFilter::inspect(self, packet, arrival, ctx)
            }
            StageId::AitfWireFilter => st::AitfWireFilter::inspect(self, packet, arrival, ctx),
            StageId::AitfShadowReact => st::AitfShadowReact::inspect(self, packet, arrival, ctx),
            StageId::TtlCheck => st::TtlCheck::inspect(self, packet, arrival, ctx),
            StageId::TtlDecrement => {
                st::TtlDecrement::apply(self, packet, arrival, ctx);
                Verdict::Continue
            }
            StageId::AitfStamp => {
                st::AitfStamp::apply(self, packet, arrival, ctx);
                Verdict::Continue
            }
            StageId::AitfAdmission => st::AitfAdmission::inspect(self, packet, arrival, ctx),
            StageId::AitfDispatch => {
                st::AitfDispatch::apply(self, packet, arrival, ctx);
                Verdict::Continue
            }
            StageId::PushbackWireFilter => {
                st::PushbackWireFilter::inspect(self, packet, arrival, ctx)
            }
            StageId::PushbackArrival => st::PushbackArrival::inspect(self, packet, arrival, ctx),
            StageId::PushbackControl => {
                st::PushbackControl::apply(self, packet, arrival, ctx);
                Verdict::Continue
            }
            StageId::PrefixPolice => st::PrefixPolice::inspect(self, packet, arrival, ctx),
            StageId::RatelimitControl => st::RatelimitControl::inspect(self, packet, arrival, ctx),
            StageId::PathStampCheck => st::PathStampCheck::inspect(self, packet, arrival, ctx),
            StageId::PathStampMark => {
                st::PathStampMark::apply(self, packet, arrival, ctx);
                Verdict::Continue
            }
            StageId::PathStampControl => {
                st::PathStampControl::apply(self, packet, arrival, ctx);
                Verdict::Continue
            }
        }
    }

    fn forward_data(&mut self, mut packet: Packet, arrival: LinkId, ctx: &mut Context<'_>) {
        // Ingress hook: any stage may veto the packet.
        for i in 0..self.chains.ingress.len() {
            let id = self.chains.ingress.stage(i);
            if self.run_stage(id, &mut packet, arrival, ctx).is_drop() {
                // The defense consumed the packet: attribute this event's
                // cost to the hook pipeline, not plain forwarding.
                ctx.profile_subsystem(Subsystem::DefenseHook);
                return;
            }
        }
        // Egress hook: TTL accounting, traceback stamping.
        for i in 0..self.chains.egress.len() {
            let id = self.chains.egress.stage(i);
            if self.run_stage(id, &mut packet, arrival, ctx).is_drop() {
                ctx.profile_subsystem(Subsystem::DefenseHook);
                return;
            }
        }
        // Terminal action: route lookup + transmit (the datapath's one
        // fixed step — every policy forwards what its chains let through).
        match self.fwd.lookup(packet.header.dst) {
            Some(&link) => {
                self.counters.data_forwarded += 1;
                ctx.send(link, packet);
            }
            None => self.counters.undeliverable += 1,
        }
    }

    /// A packet matching a pending-path request supplies the missing
    /// attack-path sample; complete the propagation step.
    fn harvest_pending_path(&mut self, packet: &Packet, ctx: &mut Context<'_>) {
        if self.pending_paths.is_empty() {
            return;
        }
        let now = ctx.now();
        self.pending_paths.retain(|p| p.expires > now);
        let Some(pos) = self
            .pending_paths
            .iter()
            .position(|p| p.request.flow.matches(&packet.header))
        else {
            return;
        };
        if packet.route_record.is_empty() {
            return;
        }
        let mut request = self.pending_paths.remove(pos).request;
        // The packet has not crossed this router yet, so the record lacks
        // our own hop; append it for a complete path.
        let mut hops = packet.route_record.hops().to_vec();
        if hops.last() != Some(&self.addr) {
            hops.push(self.addr);
        }
        request.path = aitf_packet::RouteRecord::from_hops(hops.iter().copied());
        self.shadow.insert_with_path(
            request.flow,
            request.id,
            now,
            self.cfg.t_long,
            request.round,
            hops,
        );
        self.propagate_as_victim_gateway(request, ctx);
    }

    // ------------------------------------------------------------------
    // Control plane: the Escalate hook.
    // ------------------------------------------------------------------

    fn handle_control(&mut self, mut packet: Packet, arrival: LinkId, ctx: &mut Context<'_>) {
        // AITF control handling is escalation work; every other policy's
        // control plane is part of its defense pipeline.
        ctx.profile_subsystem(match self.defense {
            DefensePolicy::Aitf => Subsystem::Escalation,
            _ => Subsystem::DefenseHook,
        });
        for i in 0..self.chains.escalate.len() {
            let id = self.chains.escalate.stage(i);
            if self.run_stage(id, &mut packet, arrival, ctx).is_drop() {
                return;
            }
        }
    }

    /// Pushback's hop-by-hop step: block the aggregate locally and relay
    /// the request to the contributing upstream neighbour.
    fn pushback_block_and_propagate(
        &mut self,
        flow: FlowLabel,
        id: u64,
        depth: u8,
        ctx: &mut Context<'_>,
    ) {
        let now = ctx.now();
        if self.filters.install(flow, now, self.cfg.t_long).is_ok() {
            self.counters.filters_installed += 1;
        }
        if depth >= MAX_PUSHBACK_DEPTH {
            return;
        }
        // The contributing upstream neighbour is whoever the aggregate has
        // been arriving from.
        let key = match (flow.src_host(), flow.dst_host()) {
            (Some(s), Some(d)) => (s, d),
            _ => return,
        };
        let Some(uplink) = self.pushback.arrival_of(key) else {
            return;
        };
        let msg = AitfMessage::Pushback(PushbackRequest {
            id,
            flow,
            limit_bps: 0,
            duration_ns: self.cfg.t_long.as_nanos(),
            depth: depth + 1,
        });
        let pkt = Packet::control(ctx.next_packet_id(), self.addr, LINK_LOCAL, msg);
        self.pushback.counters.pushback_sent += 1;
        ctx.send(uplink, pkt);
    }

    // ------------------------------------------------------------------
    // Victim-gateway role.
    // ------------------------------------------------------------------

    fn victim_gateway_role(
        &mut self,
        mut req: FilteringRequest,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) {
        let now = ctx.now();
        if !self.policy.cooperating {
            self.counters.requests_ignored += 1;
            return;
        }

        // The requester must be a client, and may only claim victimhood for
        // destinations behind itself (trivial ingress verification,
        // Section II-E).
        match self.client_prefixes(arrival) {
            Some(prefixes) => {
                let dst_ok = match req.flow.dst_host() {
                    Some(dst) => prefixes.iter().any(|p| p.contains(dst)),
                    None => prefixes.iter().any(|p| req.flow.dst.overlaps(*p)),
                };
                if !dst_ok {
                    self.counters.requests_invalid += 1;
                    return;
                }
            }
            None => {
                self.counters.requests_invalid += 1;
                return;
            }
        }

        // A repeat request for a flow we already acted on means the last
        // round failed: escalate. (The client always claims round 1; the
        // shadow knows better.)
        if let Some(entry) = self.shadow.get(&req.flow) {
            let cooldown = self.cfg.t_tmp / 2;
            if entry.round >= req.round {
                if now.saturating_since(entry.last_action) < cooldown {
                    // Duplicate within the damping window: refresh only.
                    // A full table means even the refresh failed — the
                    // client is unprotected and must not look served.
                    let key = flow_key(&req.flow);
                    match self.filters.install(req.flow, now, self.cfg.t_tmp) {
                        Ok(_) => {
                            self.counters.requests_refreshed += 1;
                            self.tracer.instant(
                                SpanKind::Refresh,
                                Cause::Duplicate,
                                key,
                                entry.round,
                                self.addr.0,
                                now.0,
                            );
                        }
                        Err(InstallError::TableFull) => {
                            self.counters.requests_unsatisfiable += 1;
                            self.tracer.instant(
                                SpanKind::Drop,
                                Cause::TableFull,
                                key,
                                entry.round,
                                self.addr.0,
                                now.0,
                            );
                        }
                    }
                    return;
                }
                req.round = entry.round.saturating_add(1).min(self.cfg.max_round);
            }
            if req.path.is_empty() && !entry.path.is_empty() {
                req.path = aitf_packet::RouteRecord::from_hops(entry.path.iter().copied());
            }
        }

        // Temporary filter for Ttmp; shadow for T.
        let key = flow_key(&req.flow);
        match self.filters.install(req.flow, now, self.cfg.t_tmp) {
            Ok(_) => {}
            Err(InstallError::TableFull) => {
                self.counters.requests_unsatisfiable += 1;
                self.tracer.instant(
                    SpanKind::Drop,
                    Cause::TableFull,
                    key,
                    req.round,
                    self.addr.0,
                    now.0,
                );
                return;
            }
        }
        self.counters.requests_accepted += 1;
        // One span per escalation round, opened where the round is
        // handled; everything the round causes (handshake, long filter,
        // disconnect — wherever it happens) parents under it.
        let round_cause = if req.round > 1 {
            Cause::Escalated
        } else {
            Cause::Detection
        };
        self.tracer.start(
            SpanKind::Round,
            round_cause,
            key,
            req.round,
            self.addr.0,
            now.0,
        );
        self.tracer.instant(
            SpanKind::TempFilter,
            Cause::Protocol,
            key,
            req.round,
            self.addr.0,
            now.0,
        );
        self.shadow.insert_with_path(
            req.flow,
            req.id,
            now,
            self.cfg.t_long,
            req.round,
            req.path.hops().to_vec(),
        );

        if req.path.is_empty() {
            // No attack-path sample yet: wait for one (the temporary filter
            // is already protecting the client; blocked packets will carry
            // the route record).
            self.pending_paths.push(PendingPath {
                request: req,
                expires: now + self.cfg.t_tmp,
            });
            return;
        }
        self.propagate_as_victim_gateway(req, ctx);
    }

    /// Decides, for round `k`, whether this router propagates to the
    /// attacker side, forwards the escalation to its parent, or — at the
    /// top of the chain with nothing left to try — disconnects the peer.
    ///
    /// Under partial deployment both selections are *deployment-aware*:
    /// path hops known to have left AITF are skipped, so the round-k
    /// request lands on the nearest participating node instead of being
    /// eaten by a legacy router, and escalation forwards to the nearest
    /// AITF-enabled ancestor rather than blindly to the parent.
    fn propagate_as_victim_gateway(&mut self, req: FilteringRequest, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // Everything the decision needs is `Copy`-cheap; pulling it out up
        // front lets each branch *move* `req` into the outgoing message
        // instead of cloning the whole request (route record included).
        let flow = req.flow;
        let round = req.round;
        let k = round.max(1) as usize;
        let len = req.path.len();
        let my_pos = req.path.position(self.addr);
        // The victim-side handler for round k is the k-th node from the
        // victim end of the path — or, when that hop no longer runs AITF,
        // the nearest participating node on the victim side of it.
        let handler_pos = len
            .checked_sub(k)
            .and_then(|ideal| (ideal..len).find(|&i| self.peer_participates(req.path.hops()[i])));
        // The attacker-side node asked to filter at round k, skipping
        // hops that have left AITF since they stamped the record.
        let target = req.path.hops()[(k - 1).min(len)..]
            .iter()
            .copied()
            .find(|&a| self.peer_participates(a));
        let parent = self.escalation_parent();

        let i_am_handler = match (my_pos, handler_pos) {
            (Some(p), Some(h)) => p == h || (p > h && parent.is_none()),
            // Not on the recorded path (or path exhausted): handle locally.
            _ => true,
        };

        let key = flow_key(&flow);
        if !i_am_handler {
            let Some(parent) = parent else {
                // No AITF-enabled ancestor left to escalate through; the
                // request would otherwise vanish without a trace.
                self.counters.escalations_dropped += 1;
                self.tracer.instant(
                    SpanKind::Drop,
                    Cause::NoAncestor,
                    key,
                    round,
                    self.addr.0,
                    now.0,
                );
                self.tracer.close_round(key, round, now.0);
                return;
            };
            self.counters.escalations_sent += 1;
            self.shadow.note_round(&flow, round);
            self.shadow.touch_action(&flow, now);
            self.tracer.instant(
                SpanKind::Escalate,
                Cause::Escalated,
                key,
                round,
                self.addr.0,
                now.0,
            );
            let escalated = FilteringRequest {
                dest: RequestDestination::VictimGateway,
                ..req
            };
            self.send_control(ctx, parent, AitfMessage::FilteringRequest(escalated));
            return;
        }

        // I am the handler: ask the round-k attacker-side node to filter.
        match target {
            Some(target) if target != self.addr => {
                self.shadow.touch_action(&flow, now);
                let outgoing = FilteringRequest {
                    dest: RequestDestination::AttackerGateway,
                    ..req
                };
                self.send_control(ctx, target, AitfMessage::FilteringRequest(outgoing));
            }
            _ => {
                // Every attacker-side node was tried (or the round walked
                // into ourselves): disconnect the neighbour the flow comes
                // through (Section II-D worst case: "G_gw3 disconnects from
                // B_gw3").
                self.disconnect_flow_neighbor(&req, ctx);
            }
        }
    }

    /// Blocks the incoming direction of the link the attack path enters
    /// through — unless that link is this router's own uplink, in which
    /// case severing it would disconnect this network (and every client
    /// behind it) from the world rather than the attacker; the flow is
    /// then kept filtered locally instead. That is the partial-deployment
    /// endgame: a victim's gateway with no cooperating node upstream
    /// still protects its client with its own table.
    fn disconnect_flow_neighbor(&mut self, req: &FilteringRequest, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let key = flow_key(&req.flow);
        let my_pos = req.path.position(self.addr);
        // The neighbour towards the attacker: previous hop on the path, or
        // the route towards the flow source as a fallback.
        let neighbor = my_pos
            .and_then(|p| p.checked_sub(1))
            .and_then(|i| req.path.hops().get(i).copied())
            .or_else(|| req.flow.src_host());
        let Some(neighbor) = neighbor else {
            // Nobody identifiable to disconnect: the escalation dead-ends
            // here, which must be observable.
            self.counters.escalations_dropped += 1;
            self.tracer.instant(
                SpanKind::Drop,
                Cause::NoNeighbor,
                key,
                req.round,
                self.addr.0,
                now.0,
            );
            self.tracer.close_round(key, req.round, now.0);
            return;
        };
        let Some(&link) = self.fwd.lookup(neighbor).copied().as_ref() else {
            self.counters.escalations_dropped += 1;
            self.tracer.instant(
                SpanKind::Drop,
                Cause::NoNeighbor,
                key,
                req.round,
                self.addr.0,
                now.0,
            );
            self.tracer.close_round(key, req.round, now.0);
            return;
        };
        if Some(link) == self.uplink {
            self.counters.local_filter_fallbacks += 1;
            // Extend the temporary filter to the full horizon `T`; a full
            // table leaves the existing temporary protection in place.
            let _ = self.filters.install(req.flow, now, self.cfg.t_long);
            self.tracer.instant(
                SpanKind::LocalFilter,
                Cause::Protocol,
                key,
                req.round,
                self.addr.0,
                now.0,
            );
            self.tracer.close_round(key, req.round, now.0);
            return;
        }
        self.counters.disconnects_peer += 1;
        self.tracer.instant(
            SpanKind::Disconnect,
            Cause::Protocol,
            key,
            req.round,
            self.addr.0,
            now.0,
        );
        self.tracer.close_round(key, req.round, now.0);
        ctx.set_incoming_blocked(link, true);
    }

    /// A shadowed flow reappeared: reinstall the temporary filter and
    /// escalate one round.
    fn on_reactivation(
        &mut self,
        entry: aitf_filter::ShadowEntry,
        packet: &Packet,
        ctx: &mut Context<'_>,
    ) {
        let now = ctx.now();
        let _ = self.filters.install(entry.label, now, self.cfg.t_tmp);
        let cooldown = self.cfg.t_tmp / 2;
        if now.saturating_since(entry.last_action) < cooldown {
            return;
        }
        let round = entry.round.saturating_add(1).min(self.cfg.max_round);
        self.shadow.note_round(&entry.label, round);
        self.shadow.touch_action(&entry.label, now);
        // The temporary filter expired and the shadowed flow came back:
        // that expiry is the cause of this whole round.
        self.tracer.start(
            SpanKind::Round,
            Cause::TempFilterExpired,
            flow_key(&entry.label),
            round,
            self.addr.0,
            now.0,
        );
        // Prefer the stored path; fall back to the triggering packet's
        // route record (plus our own hop).
        let path = if entry.path.is_empty() {
            let mut hops = packet.route_record.hops().to_vec();
            if hops.last() != Some(&self.addr) {
                hops.push(self.addr);
            }
            hops
        } else {
            entry.path.clone()
        };
        let req = FilteringRequest {
            id: entry.request_id,
            flow: entry.label,
            dest: RequestDestination::VictimGateway,
            duration_ns: self.cfg.t_long.as_nanos(),
            path: aitf_packet::RouteRecord::from_hops(path.iter().copied()),
            round,
        };
        self.propagate_as_victim_gateway(req, ctx);
    }

    // ------------------------------------------------------------------
    // Attacker-gateway role.
    // ------------------------------------------------------------------

    fn attacker_gateway_role(&mut self, req: FilteringRequest, ctx: &mut Context<'_>) {
        if !self.policy.cooperating {
            self.counters.requests_ignored += 1;
            return;
        }
        if self.cfg.verification {
            self.start_handshake(req, ctx);
        } else {
            self.satisfy_attacker_side(req, ctx, true);
        }
    }

    fn start_handshake(&mut self, req: FilteringRequest, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let Some(victim) = req.flow.dst_host() else {
            // Cannot query a wildcard victim; refuse conservatively.
            self.counters.requests_invalid += 1;
            return;
        };
        let nonce = Nonce(ctx.rng().gen());
        self.counters.handshakes_started += 1;
        self.counters.requests_accepted += 1;
        let span = self.tracer.start(
            SpanKind::Handshake,
            Cause::Protocol,
            flow_key(&req.flow),
            req.round,
            self.addr.0,
            now.0,
        );
        let query = VerificationQuery {
            request_id: req.id,
            flow: req.flow,
            nonce,
        };
        self.pending_handshakes.insert(
            nonce.0,
            PendingHandshake {
                request: req,
                nonce,
                span,
            },
        );
        let token = self.alloc_token(TimerAction::HandshakeTimeout { nonce: nonce.0 });
        ctx.set_timer(self.cfg.handshake_timeout, token);
        self.send_control(ctx, victim, AitfMessage::VerificationQuery(query));
    }

    fn handle_verification_reply(&mut self, rep: VerificationReply, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let Some(pending) = self.pending_handshakes.remove(&rep.nonce.0) else {
            return;
        };
        // The reply must echo the exact flow, nonce and request id.
        if pending.request.id != rep.request_id
            || pending.request.flow != rep.flow
            || pending.nonce != rep.nonce
        {
            self.pending_handshakes.insert(rep.nonce.0, pending);
            return;
        }
        self.tracer.end(pending.span, now.0);
        if rep.confirm {
            self.counters.handshakes_confirmed += 1;
            self.satisfy_attacker_side(pending.request, ctx, false);
        } else {
            self.counters.handshakes_denied += 1;
            let key = flow_key(&pending.request.flow);
            self.tracer.instant(
                SpanKind::Drop,
                Cause::HandshakeDenied,
                key,
                pending.request.round,
                self.addr.0,
                now.0,
            );
            self.tracer.close_round(key, pending.request.round, now.0);
        }
    }

    /// Installs the long filter and pushes the request one step closer to
    /// the attacker, arming the disconnection grace timer. `from_request`
    /// marks calls made synchronously while handling a received request
    /// (as opposed to a verification reply arriving later), so the
    /// request-accounting buckets stay exact.
    fn satisfy_attacker_side(
        &mut self,
        req: FilteringRequest,
        ctx: &mut Context<'_>,
        from_request: bool,
    ) {
        let now = ctx.now();
        let flow = req.flow;
        let key = flow_key(&flow);
        let round = req.round;
        match self.filters.install(flow, now, self.cfg.t_long) {
            Ok(_) => {
                self.counters.filters_installed += 1;
                if from_request {
                    self.counters.requests_accepted += 1;
                }
                let cause = if from_request {
                    Cause::Protocol
                } else {
                    Cause::HandshakeConfirmed
                };
                self.tracer.instant(
                    SpanKind::LongFilter,
                    cause,
                    key,
                    req.round,
                    self.addr.0,
                    now.0,
                );
                self.tracer.close_round(key, req.round, now.0);
            }
            Err(InstallError::TableFull) => {
                // Only a synchronously handled request may count towards
                // `requests_unsatisfiable`: the deferred handshake-confirm
                // path already counted this request as accepted when the
                // handshake started, so counting it again here would break
                // the received-request conservation identity.
                if from_request {
                    self.counters.requests_unsatisfiable += 1;
                } else {
                    self.counters.deferred_unsatisfied += 1;
                }
                self.tracer.instant(
                    SpanKind::Drop,
                    Cause::TableFull,
                    key,
                    req.round,
                    self.addr.0,
                    now.0,
                );
                self.tracer.close_round(key, req.round, now.0);
                return;
            }
        }

        // Who is my misbehaving client for this flow? Round 1: the attacker
        // host itself. Round k: the (k-1)-th node on the path — the client
        // network that failed to cooperate.
        let my_pos = req.path.position(self.addr);
        let client: Option<Addr> = match my_pos {
            Some(0) | None => flow.src_host(),
            Some(p) => req.path.hops().get(p - 1).copied(),
        };
        let Some(client) = client else { return };
        let client_link = self.fwd.lookup(client).copied();
        // Only police/disconnect parties that actually hang off a client
        // interface of ours.
        let is_client = client_link.is_some_and(|l| self.client_links.contains_key(&l));

        // Moves `req` — the notice keeps the path and id without a clone.
        let notice = FilteringRequest {
            dest: RequestDestination::Attacker,
            ..req
        };
        self.counters.attacker_notices_sent += 1;
        self.send_control(ctx, client, AitfMessage::FilteringRequest(notice));

        if is_client {
            let watch_id = self.next_id;
            self.next_id += 1;
            self.grace_watches.insert(
                watch_id,
                GraceWatch {
                    flow,
                    client_link,
                    armed_at: now,
                    round,
                },
            );
            let token = self.alloc_token(TimerAction::GraceCheck { watch: watch_id });
            ctx.set_timer(self.cfg.grace, token);
        }
    }

    /// `dest=Attacker` addressed to a *router*: an upstream gateway holds us
    /// responsible. A cooperating router blocks the flow itself and relays
    /// the notice towards the true attacker.
    fn attacker_role(&mut self, req: FilteringRequest, ctx: &mut Context<'_>) {
        if !self.policy.cooperating {
            self.counters.requests_ignored += 1;
            return;
        }
        // Block the flow ourselves and relay one step closer to the true
        // attacker, with the same grace-watch policing of our own client.
        self.satisfy_attacker_side(req, ctx, true);
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    fn on_grace_check(&mut self, watch_id: u64, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let Some(watch) = self.grace_watches.remove(&watch_id) else {
            return;
        };
        // Has the flow kept arriving well into the grace period?
        let margin = self.cfg.grace / 2;
        let still_flowing = self
            .filters
            .last_hit_of(&watch.flow)
            .is_some_and(|t| t > watch.armed_at + margin);
        if still_flowing {
            if let Some(link) = watch.client_link {
                self.counters.disconnects_client += 1;
                self.tracer.instant(
                    SpanKind::Disconnect,
                    Cause::GraceExpired,
                    flow_key(&watch.flow),
                    watch.round,
                    self.addr.0,
                    now.0,
                );
                ctx.set_incoming_blocked(link, true);
            }
        }
    }
}

impl Node for BorderRouter {
    fn on_packet(&mut self, packet: Packet, link: LinkId, ctx: &mut Context<'_>) {
        // The Escalate hook sees control packets addressed to this router —
        // plus, under pushback, the protocol's link-local hop-by-hop
        // messages (no other policy addresses packets to `LINK_LOCAL`).
        if packet.header.dst == self.addr
            || (packet.header.dst == LINK_LOCAL && matches!(self.defense, DefensePolicy::Pushback))
        {
            self.handle_control(packet, link, ctx);
            return;
        }
        // Compromised on-path router: snoop verification queries and forge
        // confirming replies (Section III-B's caveat). Handshakes only
        // exist under AITF.
        if self.policy.compromised && matches!(self.defense, DefensePolicy::Aitf) {
            if let PayloadKind::Aitf(AitfMessage::VerificationQuery(q)) = &packet.payload {
                let forged = VerificationReply {
                    request_id: q.request_id,
                    flow: q.flow,
                    nonce: q.nonce,
                    confirm: true,
                };
                let origin = packet.header.src;
                let victim = packet.header.dst;
                self.counters.handshakes_forged += 1;
                let id = ctx.next_packet_id();
                // Spoof the victim's address as the reply source.
                if let Some(&out) = self.fwd.lookup(origin) {
                    let mut reply =
                        Packet::control(id, victim, origin, AitfMessage::VerificationReply(forged));
                    reply.header.src = victim;
                    ctx.send(out, reply);
                }
                // Swallow the query so the real victim never denies it.
                return;
            }
        }
        self.forward_data(packet, link, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        ctx.profile_subsystem(Subsystem::Escalation);
        match self.token_map.remove(&token) {
            Some(TimerAction::HandshakeTimeout { nonce }) => {
                if let Some(pending) = self.pending_handshakes.remove(&nonce) {
                    self.counters.handshakes_timed_out += 1;
                    let now = ctx.now();
                    let key = flow_key(&pending.request.flow);
                    self.tracer.end(pending.span, now.0);
                    self.tracer.instant(
                        SpanKind::Drop,
                        Cause::HandshakeTimeout,
                        key,
                        pending.request.round,
                        self.addr.0,
                        now.0,
                    );
                    self.tracer.close_round(key, pending.request.round, now.0);
                }
            }
            Some(TimerAction::GraceCheck { watch }) => self.on_grace_check(watch, ctx),
            None => {}
        }
    }

    fn subsystem(&self) -> Subsystem {
        Subsystem::RouterData
    }

    impl_node_any!();
}

// ----------------------------------------------------------------------
// Stage logic. Marker types and chain wiring live in `crate::pipeline`;
// the bodies live here, next to the router state they operate on. Read
// stages (`inspect`) may veto a packet; write stages (`apply`) mutate the
// packet or router state and cannot veto.
// ----------------------------------------------------------------------

// --- AITF ingress ------------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::AitfIngressFilter {
    /// Ingress filtering: a client packet must be sourced inside the
    /// client's own prefixes (Section III-A's incentive).
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if r.policy.aitf_enabled && r.policy.ingress_filtering && packet.is_data() {
            if let Some(prefixes) = r.client_prefixes(arrival) {
                if !prefixes.iter().any(|p| p.contains(packet.header.src)) {
                    r.counters.spoofed_dropped += 1;
                    return Verdict::Drop;
                }
            }
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::AitfWireFilter {
    /// Wire-speed filter check.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let now = ctx.now();
        if r.policy.aitf_enabled && packet.is_data() && r.filters.matches(&packet.header, now) {
            r.counters.data_filtered_pkts += 1;
            r.counters.data_filtered_bytes += packet.size_bytes as u64;
            // The blocked packet still carries traceback information a
            // pending request may be waiting for.
            r.harvest_pending_path(packet, ctx);
            return Verdict::Drop;
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::AitfShadowReact {
    /// Shadow reactivation: a recently blocked flow reappeared after its
    /// temporary filter expired — the attacker side never took over.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let now = ctx.now();
        if r.policy.aitf_enabled
            && packet.is_data()
            && r.cfg.packet_triggered_reactivation
            && r.policy.cooperating
        {
            if let Some(entry) = r.shadow.check_reactivation(&packet.header, now) {
                r.counters.reactivations += 1;
                r.on_reactivation(entry, packet, ctx);
                return Verdict::Drop;
            }
        }
        Verdict::Continue
    }
}

// --- Shared egress -----------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::TtlCheck {
    /// TTL-exhaustion veto: a packet whose TTL cannot survive the
    /// decrement is undeliverable.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.header.ttl <= 1 {
            r.counters.undeliverable += 1;
            return Verdict::Drop;
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::TtlDecrement {
    fn apply(_r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, _ctx: &mut Context<'_>) {
        packet.header.ttl -= 1;
    }
}

impl WriteStage<BorderRouter> for pipeline::AitfStamp {
    /// Traceback stamping (data plane only; control messages are
    /// point-to-point and need no traceback).
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, ctx: &mut Context<'_>) {
        if r.policy.aitf_enabled && packet.is_data() {
            match r.cfg.traceback {
                TracebackMode::RouteRecord => {
                    // A full record degrades traceback but must not break
                    // forwarding.
                    let _ = packet.route_record.push(r.addr);
                }
                TracebackMode::Sampling { p, .. } => {
                    if ctx.rng().gen_bool(p) {
                        packet.mark = Some(TracebackMark {
                            router: r.addr,
                            distance: 0,
                        });
                    } else if let Some(m) = &mut packet.mark {
                        m.distance = m.distance.saturating_add(1);
                    }
                }
            }
        }
    }
}

// --- AITF escalate -----------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::AitfAdmission {
    /// Request admission: counting, enablement and contract policing
    /// (Section II-B) — every received request lands in exactly one
    /// counter bucket, starting here.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let PayloadKind::Aitf(msg) = &packet.payload else {
            // A data payload addressed to a router is a misdelivery.
            return Verdict::Drop;
        };
        if matches!(msg, AitfMessage::FilteringRequest(_)) {
            r.counters.requests_received += 1;
            if !r.policy.aitf_enabled {
                r.counters.requests_ignored += 1;
                return Verdict::Drop;
            }
            // Contract policing per arrival interface (Section II-B).
            if !r.limiter.try_acquire(arrival.0 as u64, ctx.now()) {
                r.counters.requests_policed += 1;
                return Verdict::Drop;
            }
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::AitfDispatch {
    /// Role dispatch for admitted control messages: victim's gateway,
    /// attacker's gateway, or the attacker itself.
    fn apply(r: &mut BorderRouter, packet: &mut Packet, arrival: LinkId, ctx: &mut Context<'_>) {
        // Take the message out of the packet so the roles can consume the
        // request without cloning its route record.
        let payload =
            std::mem::replace(&mut packet.payload, PayloadKind::Data(TrafficClass::Legit));
        let PayloadKind::Aitf(msg) = payload else {
            return;
        };
        match msg {
            AitfMessage::FilteringRequest(req) => match req.dest {
                RequestDestination::VictimGateway => r.victim_gateway_role(req, arrival, ctx),
                RequestDestination::AttackerGateway => r.attacker_gateway_role(req, ctx),
                RequestDestination::Attacker => r.attacker_role(req, ctx),
            },
            AitfMessage::VerificationReply(rep) => r.handle_verification_reply(rep, ctx),
            AitfMessage::VerificationQuery(_) | AitfMessage::Pushback(_) => {
                // Queries are for victims (end hosts) and pushback belongs
                // to the baseline policy; either here is a misdelivery.
                r.counters.undeliverable += 1;
            }
        }
    }
}

// --- Pushback ----------------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::PushbackWireFilter {
    /// Aggregate-filter check; a drop still refreshes the arrival record
    /// so a later propagation knows where the aggregate comes from.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let now = ctx.now();
        if packet.is_data() && r.filters.matches(&packet.header, now) {
            r.counters.data_filtered_pkts += 1;
            r.counters.data_filtered_bytes += packet.size_bytes as u64;
            r.pushback
                .note_arrival((packet.header.src, packet.header.dst), arrival);
            return Verdict::Drop;
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::PushbackArrival {
    /// Arrival-link learning for packets that survive the filter.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() {
            r.pushback
                .note_arrival((packet.header.src, packet.header.dst), arrival);
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::PushbackControl {
    /// The pushback control plane: hop-by-hop requests from downstream
    /// plus the victim's edge trigger (the same filtering request AITF's
    /// victim's gateway consumes, with pushback semantics instead).
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, ctx: &mut Context<'_>) {
        match &packet.payload {
            PayloadKind::Aitf(AitfMessage::Pushback(p)) => {
                r.pushback.counters.pushback_received += 1;
                if !r.policy.cooperating {
                    r.pushback.counters.pushback_ignored += 1;
                    return;
                }
                let (flow, id, depth) = (p.flow, p.id, p.depth);
                r.pushback_block_and_propagate(flow, id, depth, ctx);
            }
            PayloadKind::Aitf(AitfMessage::FilteringRequest(req))
                if req.dest == RequestDestination::VictimGateway =>
            {
                r.counters.requests_received += 1;
                if r.policy.cooperating {
                    let (flow, id) = (req.flow, req.id);
                    r.pushback_block_and_propagate(flow, id, 0, ctx);
                }
            }
            _ => {}
        }
    }
}

// --- Ingress rate limiting --------------------------------------------

impl ReadStage<BorderRouter> for pipeline::PrefixPolice {
    /// Per-source-prefix token-bucket policing on client links: purely
    /// local, no escalation — and collateral for legitimate hosts sharing
    /// a /16 with attackers.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() && r.client_prefixes(arrival).is_some() {
            let key = (packet.header.src.0 >> 16) as u64;
            let now = ctx.now();
            let limiter = r
                .prefix_limiter
                .as_mut()
                .expect("prefix limiter exists under IngressRateLimit");
            if !limiter.try_acquire(key, now) {
                r.counters.data_filtered_pkts += 1;
                r.counters.data_filtered_bytes += packet.size_bytes as u64;
                return Verdict::Drop;
            }
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::RatelimitControl {
    /// Control sink: the policy has no escalation plane, so filtering
    /// requests are counted (for the bake-off's request accounting) and
    /// dropped.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if let PayloadKind::Aitf(AitfMessage::FilteringRequest(_)) = &packet.payload {
            r.counters.requests_received += 1;
            r.counters.requests_ignored += 1;
        }
        Verdict::Drop
    }
}

// --- Path stamping -----------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::PathStampCheck {
    /// Drops stamped traffic whose first-hop router (the "capability"
    /// origin) has been revoked by a victim — coarse and collateral-heavy,
    /// which is exactly what the bake-off measures.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() && !r.stamp_blocks.is_empty() {
            if let Some(&origin) = packet.route_record.hops().first() {
                let now = ctx.now();
                if r.stamp_blocks
                    .iter()
                    .any(|&(o, exp)| o == origin && exp > now)
                {
                    r.counters.data_filtered_pkts += 1;
                    r.counters.data_filtered_bytes += packet.size_bytes as u64;
                    return Verdict::Drop;
                }
            }
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::PathStampMark {
    /// Every router stamps data packets unconditionally — the route
    /// record is the capability the victim side revokes against.
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, _ctx: &mut Context<'_>) {
        if packet.is_data() {
            let _ = packet.route_record.push(r.addr);
        }
    }
}

impl WriteStage<BorderRouter> for pipeline::PathStampControl {
    /// Origin revocation: a victim's filtering request names an attack
    /// path; its first hop (the attacker's edge router) is revoked for
    /// `T`, blocking *all* stamped traffic from that origin.
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, ctx: &mut Context<'_>) {
        let PayloadKind::Aitf(AitfMessage::FilteringRequest(req)) = &packet.payload else {
            return;
        };
        if req.dest != RequestDestination::VictimGateway {
            return;
        }
        r.counters.requests_received += 1;
        if !r.policy.cooperating {
            r.counters.requests_ignored += 1;
            return;
        }
        let Some(&origin) = req.path.hops().first() else {
            // No stamped path sample (e.g. the flood never reached the
            // victim): nothing to revoke against.
            r.counters.requests_invalid += 1;
            return;
        };
        let now = ctx.now();
        if let Some(entry) = r.stamp_blocks.iter_mut().find(|(o, _)| *o == origin) {
            entry.1 = now + r.cfg.t_long;
            r.counters.requests_refreshed += 1;
            return;
        }
        // Reclaim expired revocations before refusing for capacity.
        r.stamp_blocks.retain(|&(_, exp)| exp > now);
        if r.stamp_blocks.len() >= r.cfg.filter_capacity {
            r.counters.requests_unsatisfiable += 1;
            return;
        }
        r.stamp_blocks.push((origin, now + r.cfg.t_long));
        r.counters.requests_accepted += 1;
        r.counters.filters_installed += 1;
    }
}
