//! The service workloads against the real `harpd`: closed loop, two
//! client threads, one keep-alive connection each.

use std::path::PathBuf;
use std::time::Instant;

use crate::report::Report;
use crate::seq::{self, Check, Op, Plan};
use crate::stats::{median, Latency};
use crate::wire::{Conn, Daemon, Exit, Reply};

/// Where the daemon binary and the scenario directory are.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `harpd` executable.
    pub harpd: PathBuf,
    /// The checked-in `scenarios/` directory.
    pub scenarios: PathBuf,
}

/// Daemons started (set-up, timed part, drain) per untraced run.
pub const REPS: usize = 3;

/// Lifecycle blocks (8 tenant lifecycles) per connection per second of
/// `--seconds`, and steady rounds (1 adjust + 8 reads) likewise. They fix
/// the amount of work from the arguments alone, sized so a run lasts
/// about `--seconds` on a 2-core host (`svc_lifecycle` about 1.2 times
/// that: its create-bound figures swing with the host's memory
/// contention, and more blocks average over more of it); a faster daemon
/// finishes sooner.
const LIFECYCLE_BLOCKS_PER_S: f64 = 30.0;
const STEADY_ROUNDS_PER_S: f64 = 800.0;

/// The plan of one daemon's worth of `workload` work.
#[must_use]
pub fn plan(workload: &str, seed: u64, seconds: f64) -> Plan {
    let per_rep = |rate: f64| ((seconds * rate / REPS as f64).round() as usize).max(1);
    match workload {
        "svc_lifecycle" => seq::lifecycle(seed, per_rep(LIFECYCLE_BLOCKS_PER_S)),
        "svc_steady" => seq::steady(seed, per_rep(STEADY_ROUNDS_PER_S)),
        other => panic!("not a service workload: {other}"),
    }
}

/// One timed request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The daemon's route class.
    pub class: &'static str,
    /// Round trip, ns.
    pub ns: u64,
    /// Request bytes sent.
    pub req_bytes: usize,
    /// Response bytes received.
    pub resp_bytes: usize,
}

/// Everything one connection observed.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Timed requests, in order.
    pub samples: Vec<Sample>,
    /// Latency units (sums of `Plan::unit` consecutive timed requests), ns.
    pub units: Vec<f64>,
    /// Requests sent in every phase.
    pub requests: u64,
    /// Requests answered with an unexpected status or content.
    pub failures: u64,
    /// Management messages billed by successful adjusts.
    pub mgmt: u64,
    /// Cell messages billed by successful adjusts.
    pub cell_msgs: u64,
    /// Successful adjusts.
    pub adjusts: u64,
    /// Planned rejections the daemon answered with 409.
    pub rejections: u64,
    /// Static-phase management messages of every create.
    pub static_mgmt: u64,
    /// First problem seen, for the report.
    pub first_error: Option<String>,
    /// Timed phase start and end.
    pub window: Option<(Instant, Instant)>,
    /// Round-trip ns summed per route class, and request counts, over the
    /// set-up and timed phases (what the daemon's route histograms cover
    /// when it is scraped after the timed phase).
    pub routes: std::collections::BTreeMap<&'static str, (u64, u64)>,
    remembered: Option<String>,
}

/// The numeric field `"key": N` of a JSON body.
#[must_use]
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let rest = &body[body.find(&needle)? + needle.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// A schedule body minus its `asn` (a rejected adjustment advances the
/// allocator clock but must leave the schedule itself untouched).
fn without_asn(body: &str) -> &str {
    body.split(", \"asn\"").next().unwrap_or(body)
}

impl ConnLog {
    fn fail(&mut self, msg: String) {
        self.failures += 1;
        if self.first_error.is_none() {
            self.first_error = Some(msg);
        }
    }

    /// Checks one reply against what the plan expects and folds its bill
    /// into the deterministic counts.
    pub fn check(&mut self, op: Op, status: u16, body: &str) {
        if status != op.expected_status() {
            self.fail(format!(
                "{op:?}: HTTP {status}, expected {}: {body}",
                op.expected_status()
            ));
            return;
        }
        match op {
            Op::Create { .. } | Op::Schedule { .. } if !body.contains("\"exclusive\": true") => {
                self.fail(format!("{op:?}: schedule is not exclusive: {body}"));
            }
            Op::Create { .. } => {
                self.static_mgmt += field_u64(body, "static_mgmt_messages").unwrap_or(0);
            }
            Op::Schedule { check, .. } => match check {
                Check::None => {}
                Check::Remember => self.remembered = Some(without_asn(body).to_owned()),
                Check::Same => {
                    if self.remembered.as_deref() != Some(without_asn(body)) {
                        self.fail(format!("{op:?}: schedule changed across a rejection"));
                    }
                }
            },
            Op::Adjust {
                infeasible: true, ..
            } => self.rejections += 1,
            Op::Adjust { .. } => {
                self.adjusts += 1;
                self.mgmt += field_u64(body, "mgmt_messages").unwrap_or(0);
                self.cell_msgs += field_u64(body, "cell_messages").unwrap_or(0);
            }
            Op::Delete { .. } | Op::Metrics => {}
        }
    }

    fn run(&mut self, conn: &mut Conn, ops: &[Op], phase: Phase) -> std::io::Result<()> {
        let start = Instant::now();
        let mut unit_ns = 0u64;
        let mut in_unit = 0usize;
        for &op in ops {
            let request = op.to_bytes();
            let reply = conn
                .roundtrip(&request)
                .map_err(|e| std::io::Error::new(e.kind(), format!("{op:?}: {e}")))?;
            self.requests += 1;
            self.check(op, reply.status, &reply.body);
            if phase != Phase::Drain {
                let route = self.routes.entry(op.class()).or_default();
                route.0 += reply.ns;
                route.1 += 1;
            }
            let Phase::Timed(unit) = phase else { continue };
            self.samples.push(Sample {
                class: op.class(),
                ns: reply.ns,
                req_bytes: request.len(),
                resp_bytes: reply.wire_bytes,
            });
            // Scrapes are control-plane traffic: counted, not a latency unit.
            if op != Op::Metrics {
                unit_ns += reply.ns;
                in_unit += 1;
                if in_unit == unit {
                    self.units.push(unit_ns as f64);
                    (unit_ns, in_unit) = (0, 0);
                }
            }
        }
        if matches!(phase, Phase::Timed(_)) {
            self.window = Some((start, Instant::now()));
        }
        Ok(())
    }
}

/// The three phases of a daemon's life the client drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    /// Timed, with the number of requests per latency unit.
    Timed(usize),
    Drain,
}

/// One daemon's life: start, set up, timed part, drain, shutdown.
#[derive(Debug)]
pub struct Rep {
    /// Spawn to end of set-up, s.
    pub setup_s: f64,
    /// Daemon `VmRSS` growth across set-up ÷ hosted nodes.
    pub rss_bytes_per_node: f64,
    /// Daemon peak resident set after the timed part, bytes.
    pub peak_rss_bytes: u64,
    /// First timed request sent to last one answered, s.
    pub wall_s: f64,
    /// Per-connection observations.
    pub logs: Vec<ConnLog>,
    /// `/metrics` and `/debug/health` fetched after the timed part, when
    /// asked for.
    pub probes: Option<(Reply, Reply)>,
    /// The daemon's exit report.
    pub exit: Exit,
    /// Connections the client had to reopen (the daemon closes one after
    /// every error status).
    pub reconnects: u64,
}

impl Rep {
    /// Requests the client sent, the shutdown included.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.logs.iter().map(|l| l.requests).sum::<u64>() + 1 + 2 * u64::from(self.probes.is_some())
    }

    /// Deterministic counts: adjusts, rejections, management messages,
    /// cell messages, static-phase messages.
    #[must_use]
    pub fn counts(&self) -> [u64; 5] {
        let sum = |f: fn(&ConnLog) -> u64| self.logs.iter().map(f).sum();
        [
            sum(|l| l.adjusts),
            sum(|l| l.rejections),
            sum(|l| l.mgmt),
            sum(|l| l.cell_msgs),
            sum(|l| l.static_mgmt),
        ]
    }

    /// Timed requests per second (scrapes included).
    #[must_use]
    pub fn requests_per_s(&self) -> f64 {
        let n: usize = self.logs.iter().map(|l| l.samples.len()).sum();
        n as f64 / self.wall_s
    }
}

fn hosted_nodes(plan: &Plan) -> u64 {
    plan.conns
        .iter()
        .flat_map(|c| &c.setup)
        .map(|op| match op {
            Op::Create { nodes, .. } => u64::from(*nodes),
            _ => 0,
        })
        .sum()
}

/// Runs `plan` against a fresh daemon. With `probe_after`, connection 0
/// also fetches `/metrics` and `/debug/health` once the timed part ends.
///
/// # Errors
///
/// Daemon start-up, transport or shutdown failures.
pub fn run_rep(env: &Env, plan: &Plan, probe_after: bool) -> std::io::Result<Rep> {
    let started = Instant::now();
    let daemon = Daemon::spawn(&env.harpd, &env.scenarios)?;
    let mut conns = plan
        .conns
        .iter()
        .map(|_| Conn::connect(daemon.addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut logs: Vec<ConnLog> = plan.conns.iter().map(|_| ConnLog::default()).collect();
    let rss_before = daemon.rss_bytes();

    let phase = |conns: &mut [Conn],
                 logs: &mut [ConnLog],
                 pick: fn(&seq::ConnPlan) -> &[Op],
                 phase: Phase|
     -> std::io::Result<()> {
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(logs.iter_mut())
                .zip(&plan.conns)
                .map(|((conn, log), cp)| s.spawn(move || log.run(conn, pick(cp), phase)))
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("client thread panicked"))
        })
    };

    phase(&mut conns, &mut logs, |c| &c.setup, Phase::Setup)?;
    let setup_s = started.elapsed().as_secs_f64();
    let rss_after = daemon.rss_bytes();
    phase(&mut conns, &mut logs, |c| &c.timed, Phase::Timed(plan.unit))?;
    let peak_rss_bytes = daemon.peak_rss_bytes();
    let probes = if probe_after {
        let metrics = conns[0].roundtrip(&Op::Metrics.to_bytes())?;
        let health = conns[0].roundtrip(&seq::raw_request("GET", "/debug/health", ""))?;
        Some((metrics, health))
    } else {
        None
    };
    phase(&mut conns, &mut logs, |c| &c.drain, Phase::Drain)?;

    let first = logs.iter().filter_map(|l| l.window).map(|w| w.0).min();
    let last = logs.iter().filter_map(|l| l.window).map(|w| w.1).max();
    let wall_s = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => f64::NAN,
    };
    let reconnects = conns.iter().map(|c| c.reconnects).sum();
    let mut main = conns.swap_remove(0);
    drop(conns);
    let exit = daemon.shutdown(&mut main)?;
    Ok(Rep {
        setup_s,
        rss_bytes_per_node: rss_after.saturating_sub(rss_before) as f64 / hosted_nodes(plan) as f64,
        peak_rss_bytes,
        wall_s,
        logs,
        probes,
        exit,
        reconnects,
    })
}

/// Correctness shared by every daemon run: no unexpected reply, the
/// daemon's request count equals the client's, and no tenant is left.
pub fn check_rep(report: &mut Report, rep: &Rep) {
    for log in &rep.logs {
        report.check(log.failures == 0, || {
            format!(
                "{} unexpected replies, first: {}",
                log.failures,
                log.first_error.as_deref().unwrap_or("?")
            )
        });
    }
    report.check(rep.exit.requests_total == rep.requests(), || {
        format!(
            "client sent {} requests, daemon counted {}",
            rep.requests(),
            rep.exit.requests_total
        )
    });
    report.check(rep.exit.networks == 0, || {
        format!("{} tenants left after the drain", rep.exit.networks)
    });
}

/// Latency of one route class over all reps, in units of `per_ns` per ns.
fn class_latency(reps: &[Rep], class: &str, per_ns: f64) -> Latency {
    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|r| &r.logs)
        .flat_map(|l| &l.samples)
        .filter(|s| s.class == class)
        .map(|s| s.ns as f64 * per_ns)
        .collect();
    Latency::of(&samples)
}

/// The untraced service run: [`REPS`] daemons, each set up, timed and
/// drained; medians across daemons, percentiles over pooled samples.
pub fn run(report: &mut Report, env: &Env, workload: &str, seed: u64, seconds: f64) {
    let plan = plan(workload, seed, seconds);
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        match run_rep(env, &plan, false) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                report.check(false, || format!("daemon run failed: {e}"));
                report.failed += 1;
                return;
            }
        }
    }
    for rep in &reps {
        check_rep(report, rep);
        report.attempted += rep.requests();
        report.failed += rep.logs.iter().map(|l| l.failures).sum::<u64>();
    }
    let counts: Vec<[u64; 5]> = reps.iter().map(Rep::counts).collect();
    report.check(counts.windows(2).all(|w| w[0] == w[1]), || {
        format!("deterministic counts differ between daemons: {counts:?}")
    });
    let [adjusts, rejections, mgmt, _, _] = counts[0];
    let planned_rejections: usize = plan
        .conns
        .iter()
        .flat_map(|c| &c.timed)
        .filter(|op| {
            matches!(
                op,
                Op::Adjust {
                    infeasible: true,
                    ..
                }
            )
        })
        .count();
    report.check(rejections == planned_rejections as u64, || {
        format!("{rejections} rejections, {planned_rejections} planned")
    });

    let units: Vec<f64> = reps
        .iter()
        .flat_map(|r| &r.logs)
        .flat_map(|l| &l.units)
        .map(|ns| ns / 1e3)
        .collect();
    let op = Latency::of(&units);
    let each = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", each(|r| r.setup_s), "s");
    let timed: usize = reps
        .iter()
        .flat_map(|r| &r.logs)
        .map(|l| l.samples.len())
        .sum();
    let throughput = timed as f64 / reps.iter().map(|r| r.wall_s).sum::<f64>();
    report.metric("throughput_per_s", throughput, "1/s");
    report.metric("op_p50_us", op.p50, "us");
    report.metric("op_p90_us", op.p90, "us");
    report.metric(
        "peak_rss_mb",
        each(|r| r.peak_rss_bytes as f64 / 1048576.0),
        "MB",
    );
    report.metric("op_samples", op.count as f64, "count");

    // The per-route figures operators read.
    report.metric("requests_per_s", throughput, "req/s");
    for (i, rep) in reps.iter().enumerate() {
        println!(
            "# daemon {}: set-up {:.3} s, {:.1} req/s, {} reconnects",
            i + 1,
            rep.setup_s,
            rep.requests_per_s(),
            rep.reconnects
        );
    }
    let mut named = vec!["op_samples", "requests_per_s"];
    let classes: &[(&str, &str, &str, f64, &str)] = if workload == "svc_lifecycle" {
        &[
            ("create", "create_p50_ms", "create_p99_ms", 1e-6, "ms"),
            ("delete", "delete_p50_us", "delete_p99_us", 1e-3, "us"),
            ("adjust", "adjust_p50_us", "adjust_p99_us", 1e-3, "us"),
            ("schedule", "schedule_p50_us", "schedule_p99_us", 1e-3, "us"),
        ]
    } else {
        &[
            ("adjust", "adjust_p50_us", "adjust_p99_us", 1e-3, "us"),
            ("schedule", "schedule_p50_us", "schedule_p99_us", 1e-3, "us"),
        ]
    };
    for &(class, p50, p99, per_ns, unit) in classes {
        let lat = class_latency(&reps, class, per_ns);
        report.metric(p50, lat.p50, unit);
        report.metric(p99, lat.p99, unit);
        report.metric(format!("{class}_samples"), lat.count as f64, "count");
        if !lat.p99_supported() {
            eprintln!("only {} {class} samples; p99 needs 1000", lat.count);
        }
        named.extend([p50, p99]);
    }
    if workload == "svc_steady" {
        report.metric(
            "rss_bytes_per_node",
            each(|r| r.rss_bytes_per_node),
            "bytes",
        );
        named.push("rss_bytes_per_node");
    }
    report.metric(
        "mgmt_msgs_per_adjust",
        mgmt as f64 / adjusts.max(1) as f64,
        "count",
    );
    named.push("mgmt_msgs_per_adjust");
    report.print_table(&format!("{workload}: per-route figures"), &named);
}

/// A Prometheus sample `name value` (unlabelled series) from `/metrics`.
#[must_use]
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}
