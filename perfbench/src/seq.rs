//! Deterministic, seeded request sequences for the service workloads.
//!
//! Every input the benchmark sends derives from the `--seed` argument
//! through [`Rng`], so the same seed replays the same requests in the
//! same per-tenant order on every run and every commit. Tenants are split
//! between the two connections (each connection owns its tenants
//! outright), which keeps each tenant's operation order deterministic even
//! though the connections run concurrently.

/// SplitMix64, kept here so the benchmark's inputs do not move when the
/// repository's own generators change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// An independent stream for a labelled part of the input.
    #[must_use]
    pub fn fork(&self, label: u64) -> Self {
        let mut r = Self(self.0 ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Channels of every tenant's slotframe.
pub const CHANNELS: u32 = 16;

/// Slotframe length the daemon is asked for: the paper's 199 slots up to
/// 256 nodes, a prime 997 above (uniform demand needs the room).
#[must_use]
pub fn slots_for(nodes: u32) -> u32 {
    if nodes <= 256 {
        199
    } else {
        997
    }
}

/// What a schedule read checks beyond `"exclusive": true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Nothing more.
    None,
    /// Remember the schedule (taken just before a planned rejection).
    Remember,
    /// Must equal the remembered schedule (taken just after it).
    Same,
}

/// One request of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /networks`: a random tree of `nodes` nodes built from `seed`.
    Create {
        /// Tenant number (the id on the wire is `t<tenant>`).
        tenant: u32,
        /// Nodes in the tree, gateway included.
        nodes: u32,
        /// Topology seed.
        seed: u64,
    },
    /// `GET /networks/t<tenant>/schedule`.
    Schedule {
        /// Tenant number.
        tenant: u32,
        /// Extra check on the response.
        check: Check,
    },
    /// `POST /networks/t<tenant>/adjust`: set `node`'s uplink to `cells`.
    Adjust {
        /// Tenant number.
        tenant: u32,
        /// Non-gateway node.
        node: u32,
        /// New cell requirement.
        cells: u32,
        /// Whether the request must be refused with 409 (it asks for
        /// more cells than the slotframe holds).
        infeasible: bool,
    },
    /// `DELETE /networks/t<tenant>`.
    Delete {
        /// Tenant number.
        tenant: u32,
    },
    /// `GET /metrics`.
    Metrics,
}

impl Op {
    /// The daemon's route class for this request.
    #[must_use]
    pub fn class(self) -> &'static str {
        match self {
            Op::Create { .. } => "create",
            Op::Schedule { .. } => "schedule",
            Op::Adjust { .. } => "adjust",
            Op::Delete { .. } => "delete",
            Op::Metrics => "metrics",
        }
    }

    /// The status a correct daemon answers with.
    #[must_use]
    pub fn expected_status(self) -> u16 {
        match self {
            Op::Create { .. } => 201,
            Op::Adjust {
                infeasible: true, ..
            } => 409,
            _ => 200,
        }
    }

    /// The exact request bytes sent on the wire.
    #[must_use]
    pub fn to_bytes(self) -> Vec<u8> {
        let (method, path, body) = match self {
            Op::Create {
                tenant,
                nodes,
                seed,
            } => (
                "POST",
                "/networks".to_owned(),
                create_body(tenant, nodes, seed),
            ),
            Op::Schedule { tenant, .. } => (
                "GET",
                format!("/networks/t{tenant}/schedule"),
                String::new(),
            ),
            Op::Adjust {
                tenant,
                node,
                cells,
                ..
            } => (
                "POST",
                format!("/networks/t{tenant}/adjust"),
                format!("{{\"node\": {node}, \"cells\": {cells}}}"),
            ),
            Op::Delete { tenant } => ("DELETE", format!("/networks/t{tenant}"), String::new()),
            Op::Metrics => ("GET", "/metrics".to_owned(), String::new()),
        };
        raw_request(method, &path, &body)
    }
}

/// An HTTP/1.1 request with `content-length` framing.
#[must_use]
pub fn raw_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: harpd\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The `.scn` text of one tenant's network: a random tree, uniform
/// 1-cell demand.
#[must_use]
pub fn scenario_text(tenant: u32, nodes: u32, seed: u64) -> String {
    let slots = slots_for(nodes);
    format!(
        "scenario t{tenant}\nseed 0x{seed:X}\n[topology]\ngenerator random nodes={nodes} layers=8 max_children=4 seed=0x{seed:X} count=1\n[scheduler]\nslots {slots}\nchannels {CHANNELS}\n[workloads]\ndemand uniform cells=1\n"
    )
}

/// The inline-scenario create body for one tenant.
#[must_use]
pub fn create_body(tenant: u32, nodes: u32, seed: u64) -> String {
    format!(
        "{{\"tenant\": \"t{tenant}\", \"scenario\": \"{}\"}}",
        scenario_text(tenant, nodes, seed).replace('\n', "\\n")
    )
}

/// One connection's share of a workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnPlan {
    /// Requests before timing starts (part of set-up).
    pub setup: Vec<Op>,
    /// The timed requests.
    pub timed: Vec<Op>,
    /// Requests after timing ends that empty the daemon.
    pub drain: Vec<Op>,
}

/// A whole workload: one plan per connection plus its latency unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Per-connection requests.
    pub conns: Vec<ConnPlan>,
    /// Consecutive timed requests (scrapes excluded) that form one
    /// latency sample.
    pub unit: usize,
}

/// Connections (and client threads) every service workload uses.
pub const CONNECTIONS: u32 = 2;

/// `svc_lifecycle` create sizes, one block of eight: 64/256/1024 nodes
/// at 4:3:1. Exact blocks keep the mix identical for every seed.
pub const LIFECYCLE_MIX: [u32; 8] = [64, 64, 64, 64, 256, 256, 256, 1024];
/// Tenants each connection keeps resident in `svc_lifecycle`.
pub const LIFECYCLE_RESIDENT: usize = 32;

/// `svc_lifecycle`: `blocks` blocks of eight tenant lifecycles per
/// connection. Set-up creates the resident set; each timed cycle creates
/// a tenant, reads its schedule once (a cold render), raises one random
/// non-root node's uplink by one cell and deletes the oldest resident
/// tenant. The drain deletes what is left.
#[must_use]
pub fn lifecycle(seed: u64, blocks: usize) -> Plan {
    let root = Rng::new(seed);
    let conns = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = root.fork(u64::from(c) + 1);
            let mut plan = ConnPlan::default();
            let mut resident = std::collections::VecDeque::new();
            let mut next_tenant = c;
            let mix = |rng: &mut Rng| {
                let mut block = LIFECYCLE_MIX;
                rng.shuffle(&mut block);
                block
            };
            let mut new_tenant = |rng: &mut Rng, nodes: u32| {
                let tenant = next_tenant;
                next_tenant += CONNECTIONS;
                (
                    tenant,
                    Op::Create {
                        tenant,
                        nodes,
                        seed: rng.next_u64(),
                    },
                )
            };
            for _ in 0..LIFECYCLE_RESIDENT / LIFECYCLE_MIX.len() {
                for nodes in mix(&mut rng) {
                    let (tenant, op) = new_tenant(&mut rng, nodes);
                    plan.setup.push(op);
                    resident.push_back(tenant);
                }
            }
            for _ in 0..blocks {
                for nodes in mix(&mut rng) {
                    let (tenant, op) = new_tenant(&mut rng, nodes);
                    plan.timed.push(op);
                    plan.timed.push(Op::Schedule {
                        tenant,
                        check: Check::None,
                    });
                    plan.timed.push(Op::Adjust {
                        tenant,
                        node: 1 + rng.below(u64::from(nodes) - 1) as u32,
                        cells: 2,
                        infeasible: false,
                    });
                    resident.push_back(tenant);
                    let oldest = resident.pop_front().expect("resident set is never empty");
                    plan.timed.push(Op::Delete { tenant: oldest });
                }
            }
            plan.drain = resident
                .into_iter()
                .map(|tenant| Op::Delete { tenant })
                .collect();
            plan
        })
        .collect();
    Plan {
        conns,
        unit: 4 * LIFECYCLE_MIX.len(),
    }
}

/// Resident tenants per connection in `svc_steady` (1024 in all).
pub const STEADY_TENANTS: u32 = 512;
/// Nodes per `svc_steady` tenant.
pub const STEADY_NODES: u32 = 256;
/// One adjust in this many is infeasible.
pub const STEADY_INFEASIBLE_EVERY: usize = 32;
/// Raised links wait this many adjusts before they are restored.
pub const STEADY_RESTORE_DELAY: usize = 4;
/// Each connection scrapes `/metrics` after this many of its rounds: one
/// scrape per ~2000 requests across both, split evenly so neither
/// connection idles while the other scrapes.
pub const STEADY_SCRAPE_ROUNDS: usize = 222;

/// `svc_steady`: `rounds` rounds of one adjust and eight schedule reads
/// per connection, over resident tenants the set-up creates and reads
/// once (so the read cache starts warm). A raise (to 2 or 3 cells) is
/// restored to 1 cell [`STEADY_RESTORE_DELAY`] adjusts later, and the
/// plan ends with every pending restore, so demand stays stationary.
/// Every [`STEADY_INFEASIBLE_EVERY`]th adjust asks for more cells than the
/// slotframe holds and is bracketed by reads that must match.
#[must_use]
pub fn steady(seed: u64, rounds: usize) -> Plan {
    let root = Rng::new(seed);
    let capacity = slots_for(STEADY_NODES) * CHANNELS;
    let conns = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = root.fork(u64::from(c) + 1);
            let mut plan = ConnPlan::default();
            let tenants: Vec<u32> = (0..STEADY_TENANTS).map(|i| i * CONNECTIONS + c).collect();
            for &tenant in &tenants {
                plan.setup.push(Op::Create {
                    tenant,
                    nodes: STEADY_NODES,
                    seed: rng.next_u64(),
                });
            }
            for &tenant in &tenants {
                plan.setup.push(Op::Schedule {
                    tenant,
                    check: Check::None,
                });
            }
            let pick = |rng: &mut Rng| tenants[rng.below(tenants.len() as u64) as usize];
            let read = |tenant| Op::Schedule {
                tenant,
                check: Check::None,
            };
            let mut pending: std::collections::VecDeque<(u32, u32)> = Default::default();
            let mut adjusts = 0usize;
            let mut round = 0usize;
            while round < rounds || !pending.is_empty() {
                adjusts += 1;
                let reads_after =
                    if round < rounds && adjusts.is_multiple_of(STEADY_INFEASIBLE_EVERY) {
                        let tenant = pick(&mut rng);
                        let node = 1 + rng.below(u64::from(STEADY_NODES) - 1) as u32;
                        plan.timed.push(Op::Schedule {
                            tenant,
                            check: Check::Remember,
                        });
                        plan.timed.push(Op::Adjust {
                            tenant,
                            node,
                            cells: capacity + 1,
                            infeasible: true,
                        });
                        plan.timed.push(Op::Schedule {
                            tenant,
                            check: Check::Same,
                        });
                        6
                    } else {
                        let (tenant, node, cells) =
                            if round >= rounds || pending.len() >= STEADY_RESTORE_DELAY {
                                let (t, n) = pending.pop_front().expect("a raise is pending");
                                (t, n, 1)
                            } else {
                                let (t, n) = loop {
                                    let t = pick(&mut rng);
                                    let n = 1 + rng.below(u64::from(STEADY_NODES) - 1) as u32;
                                    if !pending.contains(&(t, n)) {
                                        break (t, n);
                                    }
                                };
                                pending.push_back((t, n));
                                (t, n, 2 + rng.below(2) as u32)
                            };
                        plan.timed.push(Op::Adjust {
                            tenant,
                            node,
                            cells,
                            infeasible: false,
                        });
                        plan.timed.push(read(tenant));
                        7
                    };
                for _ in 0..reads_after {
                    plan.timed.push(read(pick(&mut rng)));
                }
                round += 1;
                if round.is_multiple_of(STEADY_SCRAPE_ROUNDS) {
                    plan.timed.push(Op::Metrics);
                }
            }
            plan.drain = tenants
                .iter()
                .map(|&tenant| Op::Delete { tenant })
                .collect();
            plan
        })
        .collect();
    // Two rounds (one raise and one restore, mostly) per latency unit: a
    // single request or round would put a percentile on the edge between
    // reads and adjusts, or between raises and restores.
    Plan { conns, unit: 2 * 9 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        assert_eq!(lifecycle(7, 3), lifecycle(7, 3));
        assert_eq!(steady(7, 50), steady(7, 50));
        assert_ne!(lifecycle(7, 3), lifecycle(8, 3));
        assert_ne!(steady(7, 50), steady(8, 50));
        assert_eq!(
            Rng::new(3).fork(1).next_u64(),
            Rng::new(3).fork(1).next_u64()
        );
        assert_ne!(
            Rng::new(3).fork(1).next_u64(),
            Rng::new(3).fork(2).next_u64()
        );
    }

    fn tenants_of(plan: &ConnPlan) -> std::collections::BTreeSet<u32> {
        plan.setup
            .iter()
            .chain(&plan.timed)
            .chain(&plan.drain)
            .filter_map(|op| match *op {
                Op::Create { tenant, .. }
                | Op::Schedule { tenant, .. }
                | Op::Adjust { tenant, .. }
                | Op::Delete { tenant } => Some(tenant),
                Op::Metrics => None,
            })
            .collect()
    }

    #[test]
    fn connections_own_disjoint_tenants() {
        for plan in [lifecycle(1, 4), steady(1, 40)] {
            let a = tenants_of(&plan.conns[0]);
            let b = tenants_of(&plan.conns[1]);
            assert!(!a.is_empty() && a.is_disjoint(&b));
        }
    }

    #[test]
    fn lifecycle_keeps_the_mix_and_empties_the_daemon() {
        let plan = lifecycle(5, 10);
        for conn in &plan.conns {
            let creates: Vec<u32> = conn
                .setup
                .iter()
                .chain(&conn.timed)
                .filter_map(|op| match *op {
                    Op::Create { nodes, .. } => Some(nodes),
                    _ => None,
                })
                .collect();
            for chunk in creates.chunks(8) {
                let mut sorted = chunk.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, LIFECYCLE_MIX);
            }
            let deletes = conn
                .timed
                .iter()
                .chain(&conn.drain)
                .filter(|op| matches!(op, Op::Delete { .. }))
                .count();
            assert_eq!(deletes, creates.len(), "every tenant is deleted");
            assert_eq!(conn.timed.len() % plan.unit, 0);
            for op in &conn.timed {
                if let Op::Adjust { node, .. } = op {
                    assert!(*node >= 1);
                }
            }
        }
    }

    #[test]
    fn steady_restores_every_raise_and_plans_rejections() {
        let plan = steady(9, 400);
        for conn in &plan.conns {
            let mut cells: std::collections::BTreeMap<(u32, u32), u32> = Default::default();
            let (mut adjusts, mut infeasible, mut reads) = (0, 0, 0);
            for (i, op) in conn.timed.iter().enumerate() {
                match *op {
                    Op::Adjust {
                        tenant,
                        node,
                        cells: c,
                        infeasible: bad,
                    } => {
                        adjusts += 1;
                        if bad {
                            infeasible += 1;
                            assert!(c > slots_for(STEADY_NODES) * CHANNELS);
                            assert_eq!(
                                conn.timed[i - 1],
                                Op::Schedule {
                                    tenant,
                                    check: Check::Remember
                                }
                            );
                            assert_eq!(
                                conn.timed[i + 1],
                                Op::Schedule {
                                    tenant,
                                    check: Check::Same
                                }
                            );
                        } else {
                            cells.insert((tenant, node), c);
                        }
                    }
                    Op::Schedule { .. } => reads += 1,
                    _ => {}
                }
            }
            assert!(
                cells.values().all(|&c| c == 1),
                "demand ends where it began"
            );
            assert_eq!(reads, 8 * adjusts);
            assert!(infeasible >= 400 / STEADY_INFEASIBLE_EVERY);
        }
        for conn in &plan.conns {
            let scrapes = conn.timed.iter().filter(|op| **op == Op::Metrics).count();
            assert_eq!(scrapes, conn.timed.len() / (9 * STEADY_SCRAPE_ROUNDS + 1));
        }
    }

    #[test]
    fn request_bytes_parse_as_the_daemon_reads_them() {
        let op = Op::Adjust {
            tenant: 3,
            node: 9,
            cells: 2,
            infeasible: false,
        };
        match harpd::http::try_parse(&op.to_bytes()).expect("valid request") {
            harpd::http::Parsed::Complete(req, used) => {
                assert_eq!(used, op.to_bytes().len());
                assert_eq!(req.path, "/networks/t3/adjust");
                assert_eq!(
                    req.body_str().expect("utf-8"),
                    "{\"node\": 9, \"cells\": 2}"
                );
            }
            harpd::http::Parsed::Incomplete => panic!("request is complete"),
        }
    }
}
