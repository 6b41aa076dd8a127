//! The defense-policy sweep axis.

/// Which defense a border router's datapath runs.
///
/// The policy is part of the scenario configuration
/// (`AitfConfig::defense` / `Scenario::defense(..)`): every router in a
/// world runs the same policy, and the `e19_defense_bakeoff` experiment
/// sweeps this axis under identical seeds. The default is the paper's
/// AITF protocol. Each variant selects one fixed arm of the router's
/// Ingress / Egress / Escalate dispatch in [`crate::BorderRouter`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DefensePolicy {
    /// The paper's protocol: wire-speed flow filters, shadow cache,
    /// three-way-handshake escalation along the recorded attack path.
    #[default]
    Aitf,
    /// The §V baseline: hop-by-hop pushback towards the attacker,
    /// effective only while every hop cooperates.
    Pushback,
    /// Per-source-prefix token-bucket policing at the ingress (client)
    /// links of every edge router, at 100 pps / burst 100 per /16 source
    /// prefix. Purely local — no escalation, no per-flow state — but caps
    /// legitimate hosts sharing a prefix with attackers to the same
    /// contract.
    IngressRateLimit,
    /// Capability-style path stamping on the route-record shim: every
    /// router stamps data packets; the victim's gateway revokes an
    /// origin (the attack path's first-hop router) on a filtering
    /// request and drops all stamped traffic from that origin — coarse,
    /// fast, and collateral-damaging to the origin's legitimate hosts.
    PathStamp,
}

impl DefensePolicy {
    /// The four policies `e19_defense_bakeoff` ranks, in table order.
    pub const BAKEOFF: [DefensePolicy; 4] = [
        DefensePolicy::Aitf,
        DefensePolicy::Pushback,
        DefensePolicy::IngressRateLimit,
        DefensePolicy::PathStamp,
    ];

    /// Stable machine-readable name (sweep parameter / JSON telemetry).
    pub fn name(self) -> &'static str {
        match self {
            DefensePolicy::Aitf => "aitf",
            DefensePolicy::Pushback => "pushback",
            DefensePolicy::IngressRateLimit => "ingress_ratelimit",
            DefensePolicy::PathStamp => "path_stamp",
        }
    }

    /// Parses a [`DefensePolicy::name`] back into the policy.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "aitf" => Some(DefensePolicy::Aitf),
            "pushback" => Some(DefensePolicy::Pushback),
            "ingress_ratelimit" => Some(DefensePolicy::IngressRateLimit),
            "path_stamp" => Some(DefensePolicy::PathStamp),
            _ => None,
        }
    }

    /// Whether the policy escalates filtering requests across provider
    /// boundaries. Drives shard partitioning: only an escalating policy
    /// can administratively disconnect a non-cooperating child network,
    /// so only then must such networks share their provider's shard.
    pub fn escalates(self) -> bool {
        matches!(self, DefensePolicy::Aitf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in DefensePolicy::BAKEOFF {
            assert_eq!(DefensePolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(DefensePolicy::from_name("nope"), None);
    }

    #[test]
    fn default_is_aitf_and_only_aitf_escalates() {
        assert_eq!(DefensePolicy::default(), DefensePolicy::Aitf);
        let escalating: Vec<_> = DefensePolicy::BAKEOFF
            .iter()
            .filter(|p| p.escalates())
            .collect();
        assert_eq!(escalating, [&DefensePolicy::Aitf]);
    }
}
