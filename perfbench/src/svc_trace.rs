//! The traced run of a service workload. It replays the same plan four
//! times:
//!
//! 1. over the wire against a real `harpd`, untraced: client latencies,
//!    the daemon's own route histograms, memory and the reconciliation
//!    base;
//! 2. in process, untraced: each request's exact bytes through
//!    `harpd::http::try_parse` and `harpd::state::handle_request`;
//! 3. the same under spans (`http.parse`, `state.handle`, and the
//!    allocator time the daemon measures, `core.allocator`), whose extra
//!    wall time over pass 2 is the tracing overhead, counting the cold
//!    schedule renders from the daemon's per-tenant spans;
//! 4. at the library layer: `workloads` parsing and topology, the
//!    `harp-core` static phase split into its steps, the centralized
//!    reference pipeline with `verify`, adjustments (each planned
//!    rejection checked to leave every cell in place) and teardown, with
//!    allocation counts from the counting allocator.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use harp_core::{
    allocate_partitions, build_interfaces, generate_schedule, verify_partitions, verify_schedule,
    verify_uplink_compliance, HarpNetwork, SchedulingPolicy,
};
use harp_obs::json::Json;
use harpd::http::{try_parse, Parsed, Request};
use harpd::state::{handle_request, AppState};
use tsch_sim::{Cell, Direction, Link, NodeId};
use workloads::scenario_dsl::parse_scenario;

use crate::alloc;
use crate::report::Report;
use crate::seq::{raw_request, scenario_text, Op, Plan};
use crate::span::Tracer;
use crate::svc::{self, prom_value, Env};

/// Route classes the per-class metrics are reported for.
pub const CLASSES: [&str; 4] = ["create", "schedule", "adjust", "delete"];

/// Span capacity `harpd` hands every tenant's observed allocator.
const ALLOCATOR_SPAN_CAPACITY: usize = 2048;

/// The plan as one sequential stream: both connections' set-up, then the
/// timed requests alternating between connections, then the drains. The
/// tenants of the two connections are disjoint, so every tenant sees its
/// requests in the same order as over the wire.
fn sequential(plan: &Plan) -> (Vec<Op>, Vec<Op>, Vec<Op>) {
    let setup = plan
        .conns
        .iter()
        .flat_map(|c| c.setup.iter().copied())
        .collect();
    let longest = plan.conns.iter().map(|c| c.timed.len()).max().unwrap_or(0);
    let timed = (0..longest)
        .flat_map(|i| {
            plan.conns
                .iter()
                .filter_map(move |c| c.timed.get(i).copied())
        })
        .collect();
    let drain = plan
        .conns
        .iter()
        .flat_map(|c| c.drain.iter().copied())
        .collect();
    (setup, timed, drain)
}

fn parse(bytes: &[u8]) -> Request {
    match try_parse(bytes) {
        Ok(Parsed::Complete(req, _)) => req,
        other => panic!("the benchmark's own request did not parse: {other:?}"),
    }
}

/// Sum and count of the daemon's `harpd.allocator_us` histogram.
fn allocator_us(state: &AppState) -> (u64, u64) {
    state
        .metrics_snapshot()
        .histograms
        .get("harpd.allocator_us")
        .map_or((0, 0), |h| {
            (u64::try_from(h.sum).unwrap_or(u64::MAX), h.count)
        })
}

fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Cold schedule renders (read-cache misses) of the timed part, counted
/// from the daemon's per-tenant request spans: `harpd` records a
/// `"schedule"` span on every render that misses its read cache and none
/// on a hit. Each tenant's spans are read back through `/debug/trace`.
#[derive(Debug, Default)]
struct Renders {
    /// Spans with correlation ids up to this one belong to the set-up.
    setup_corr: u64,
    /// Per tenant: the highest correlation id already counted, and the
    /// tenant's requests since it was last probed.
    seen: HashMap<u32, (u64, usize)>,
    /// Cold renders counted.
    count: u64,
    /// Time spent probing, kept out of the traced wall time.
    probe_ns: u64,
    /// First probe that could not be read.
    error: Option<String>,
}

impl Renders {
    /// A `/debug/trace` dump holds a tenant's 512 most recent request
    /// spans and each request records at most one, so probing every 256
    /// requests never misses a span.
    const PROBE_EVERY: usize = 256;

    fn new(state: &AppState) -> Self {
        Self {
            setup_corr: state.next_correlation(),
            ..Self::default()
        }
    }

    /// Notes a timed request to `tenant`'s schedule or allocator.
    fn touched(&mut self, state: &AppState, tenant: u32) {
        let setup_corr = self.setup_corr;
        let entry = self.seen.entry(tenant).or_insert((setup_corr, 0));
        entry.1 += 1;
        if entry.1 >= Self::PROBE_EVERY {
            self.probe(state, tenant);
        }
    }

    /// Counts `tenant`'s last cold renders before it is deleted, and its
    /// spans with it.
    fn deleting(&mut self, state: &AppState, tenant: u32) {
        self.probe(state, tenant);
        self.seen.remove(&tenant);
    }

    /// Counts `tenant`'s cold renders since its last probe.
    fn probe(&mut self, state: &AppState, tenant: u32) {
        let Some(&(after, _)) = self.seen.get(&tenant) else {
            return;
        };
        let start = Instant::now();
        let path = format!("/debug/trace/t{tenant}");
        let resp = handle_request(state, &parse(&raw_request("GET", &path, "")));
        match schedule_spans_after(&resp.body, after) {
            Ok((renders, newest)) => {
                self.count += renders;
                self.seen.insert(tenant, (newest, 0));
            }
            Err(e) => {
                self.error.get_or_insert(format!("{path}: {e}"));
            }
        }
        self.probe_ns += start.elapsed().as_nanos() as u64;
    }
}

/// The `"schedule"` request spans with a correlation id above `after` in
/// a `/debug/trace` body, and the highest correlation id in it (at least
/// `after`).
///
/// # Errors
///
/// A body that is not a trace document.
fn schedule_spans_after(body: &[u8], after: u64) -> Result<(u64, u64), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = harp_obs::json::parse(text).map_err(|e| format!("{e:?}: {text}"))?;
    let spans = doc
        .get("request_spans")
        .and_then(|r| r.get("spans"))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("no request spans: {text}"))?;
    let (mut renders, mut newest) = (0, after);
    for span in spans {
        let corr = span.get("corr").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        newest = newest.max(corr);
        let cold = corr > after && span.get("name").and_then(Json::as_str) == Some("schedule");
        renders += u64::from(cold);
    }
    Ok((renders, newest))
}

/// What passes 2 and 3 observed.
#[derive(Debug, Default)]
struct InProcess {
    /// Wall time of the timed requests, s.
    wall_s: f64,
    /// Timed schedule reads.
    reads: u64,
    /// Timed reads that rendered cold (counted in pass 3 only).
    cold: u64,
    /// Why the cold renders could not be counted, if so.
    error: Option<String>,
}

/// Passes 2 and 3: the timed requests in process; with a tracer, under
/// per-request spans and with their cold renders counted.
fn in_process(scenarios: &Path, plan: &Plan, mut tracer: Option<&mut Tracer>) -> InProcess {
    let state = AppState::new("perfbench".into(), scenarios.to_path_buf());
    let (setup, timed, drain) = sequential(plan);
    for op in &setup {
        handle_request(&state, &parse(&op.to_bytes()));
    }
    let requests: Vec<Vec<u8>> = timed.iter().map(|op| op.to_bytes()).collect();
    let mut renders = Renders::new(&state);
    let mut reads = 0u64;
    let start = Instant::now();
    for (i, (op, bytes)) in timed.iter().zip(&requests).enumerate() {
        let Some(t) = tracer.as_deref_mut() else {
            std::hint::black_box(handle_request(&state, &parse(bytes)));
            continue;
        };
        match *op {
            Op::Schedule { tenant, .. } | Op::Adjust { tenant, .. } => {
                renders.touched(&state, tenant);
            }
            Op::Delete { tenant } => renders.deleting(&state, tenant),
            Op::Create { .. } | Op::Metrics => {}
        }
        let (sum0, _) = allocator_us(&state);
        let req_id = i as u64;
        let root = t.begin(class_span(*op), req_id);
        let req = t.span("http.parse", req_id, || parse(bytes));
        let handle = t.begin("state.handle", req_id);
        let handle_start = t.now();
        std::hint::black_box(handle_request(&state, &req));
        t.end(handle);
        t.end(root);
        let (sum1, _) = allocator_us(&state);
        if sum1 > sum0 {
            // The daemon measured this much allocator time (whole µs)
            // inside the handler; place it at the handler's start.
            let end = handle_start + (sum1 - sum0) * 1000;
            t.record_in(handle, "core.allocator", req_id, handle_start, end);
        }
        reads += u64::from(matches!(op, Op::Schedule { .. }));
    }
    let wall_s = start.elapsed().as_secs_f64() - renders.probe_ns as f64 / 1e9;
    let mut tenants: Vec<u32> = renders.seen.keys().copied().collect();
    tenants.sort_unstable();
    for tenant in tenants {
        renders.probe(&state, tenant);
    }
    for op in &drain {
        handle_request(&state, &parse(&op.to_bytes()));
    }
    InProcess {
        wall_s,
        reads,
        cold: renders.count,
        error: renders.error,
    }
}

fn class_span(op: Op) -> &'static str {
    match op {
        Op::Create { .. } => "request.create",
        Op::Schedule { .. } => "request.schedule",
        Op::Adjust { .. } => "request.adjust",
        Op::Delete { .. } => "request.delete",
        Op::Metrics => "request.metrics",
    }
}

/// Library-layer tallies of pass 4.
#[derive(Debug, Default)]
struct Core {
    creates: usize,
    static_msgs: u64,
    settle_msgs: u64,
    create_allocs: u64,
    strip_packs: u64,
    violations: usize,
    adjusts: usize,
    rejected: usize,
    adjust_mgmt: u64,
    adjust_cells: u64,
    adjust_allocs: u64,
    feasibility_tests: u64,
    bytes_per_node: f64,
    wrong_outcomes: usize,
    /// Planned rejections after which some link's cells differ.
    changed_by_rejection: usize,
}

/// Every link's cells, in link order.
fn link_cells(net: &HarpNetwork) -> Vec<(Link, Vec<Cell>)> {
    net.schedule()
        .iter_links()
        .map(|(link, cells)| (link, cells.to_vec()))
        .collect()
}

/// Pass 4: the plan's creates, adjusts and deletes at the library layer.
fn library(plan: &Plan, t: &mut Tracer) -> Core {
    let (setup, timed, drain) = sequential(plan);
    let mut core = Core::default();
    let mut nets: HashMap<u32, HarpNetwork> = HashMap::new();
    alloc::set_counting(true);
    let live0 = alloc::live_bytes();
    let mut hosted = 0u64;
    for (i, &op) in setup.iter().chain(&timed).chain(&drain).enumerate() {
        if i == setup.len() {
            core.bytes_per_node = (alloc::live_bytes() - live0) as f64 / hosted.max(1) as f64;
        }
        let req = i as u64;
        match op {
            Op::Create {
                tenant,
                nodes,
                seed,
            } => {
                let text = scenario_text(tenant, nodes, seed);
                let (allocs0, packs0) = (alloc::calls(), packing::obs::STRIP_PACKS.get());
                let root = t.begin("core.create", req);
                let scenario = t
                    .span("workloads.parse", req, || parse_scenario(&text))
                    .expect("generated scenarios parse");
                let (config, tree, reqs) = t.span("workloads.topology", req, || {
                    let config = scenario.slotframe_config().expect("valid slotframe");
                    let tree = scenario.trees(true).into_iter().next().expect("one tree");
                    let reqs = scenario.requirements(&tree);
                    (config, tree, reqs)
                });
                let reference_tree = tree.clone();
                let mut net = t.span("core.net_new", req, || {
                    let mut net =
                        HarpNetwork::new(tree, config, &reqs, SchedulingPolicy::RateMonotonic);
                    net.enable_observability(ALLOCATOR_SPAN_CAPACITY);
                    net
                });
                t.span("core.bootstrap", req, || net.bootstrap())
                    .expect("static phase bootstraps");
                let report = t
                    .span("core.settle", req, || {
                        let report = net.run_until_quiescent();
                        net.take_ops();
                        report
                    })
                    .expect("static phase converges");
                t.end(root);
                core.creates += 1;
                core.static_msgs += report.mgmt_messages;
                core.settle_msgs += report.mgmt_messages + report.cell_messages;
                core.create_allocs += alloc::calls() - allocs0;
                core.strip_packs += packing::obs::STRIP_PACKS.get() - packs0;
                hosted += u64::from(nodes);
                let net = nets.entry(tenant).or_insert(net);

                // The centralized reference pipeline on the same inputs,
                // and the invariant audit of the distributed result.
                let tree = &reference_tree;
                let channels = config.channels;
                let table = t.span("core.interfaces", req, || {
                    (
                        build_interfaces(tree, &reqs, Direction::Up, channels),
                        build_interfaces(tree, &reqs, Direction::Down, channels),
                    )
                });
                let (Ok(up), Ok(down)) = table else {
                    core.violations += 1;
                    continue;
                };
                let table = t.span("core.partitions", req, || {
                    allocate_partitions(tree, &up, &down, config)
                });
                let Ok(table) = table else {
                    core.violations += 1;
                    continue;
                };
                let schedule = t.span("core.schedule_gen", req, || {
                    generate_schedule(tree, &reqs, &table, SchedulingPolicy::RateMonotonic)
                });
                core.violations += usize::from(schedule.map_or(true, |s| !s.is_exclusive()));
                core.violations += t.span("verify", req, || {
                    verify_schedule(tree, &reqs, net.schedule()).len()
                        + verify_partitions(tree, &table).len()
                        + verify_uplink_compliance(tree, &table).len()
                });
            }
            Op::Adjust {
                tenant,
                node,
                cells,
                infeasible,
            } => {
                let net = nets.get_mut(&tenant).expect("adjusts follow their create");
                // A planned rejection must leave every cell where it was.
                let before = infeasible.then(|| link_cells(net));
                let (allocs0, tests0) = (alloc::calls(), packing::obs::FEASIBILITY_TESTS.get());
                let start = t.now();
                let result = net.adjust_and_settle(net.now(), Link::up(NodeId(node)), cells);
                let end = t.now();
                core.adjusts += 1;
                core.adjust_allocs += alloc::calls() - allocs0;
                core.feasibility_tests += packing::obs::FEASIBILITY_TESTS.get() - tests0;
                core.wrong_outcomes += usize::from(result.is_err() != infeasible);
                match result {
                    Ok(report) => {
                        t.record("core.adjust", req, start, end);
                        core.adjust_mgmt += report.mgmt_messages;
                        core.adjust_cells += report.cell_messages;
                    }
                    Err(_) => {
                        t.record("core.rollback", req, start, end);
                        core.rejected += 1;
                        core.changed_by_rejection +=
                            usize::from(before.is_some_and(|b| b != link_cells(net)));
                    }
                }
            }
            Op::Delete { tenant } => {
                let net = nets.remove(&tenant).expect("deletes follow their create");
                t.span("core.teardown", req, || drop(net));
            }
            Op::Schedule { .. } | Op::Metrics => {}
        }
    }
    alloc::set_counting(false);
    core
}

/// The traced run of `workload`.
pub fn run(
    report: &mut Report,
    tracer: &mut Tracer,
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
) {
    let plan = svc::plan(workload, seed, seconds);

    // Pass 1: over the wire.
    let rep = match svc::run_rep(env, &plan, true) {
        Ok(rep) => rep,
        Err(e) => {
            report.failed += 1;
            return report.check(false, || format!("daemon run failed: {e}"));
        }
    };
    svc::check_rep(report, &rep);
    report.attempted += rep.requests();
    report.failed += rep.logs.iter().map(|l| l.failures).sum::<u64>();
    let samples: Vec<&svc::Sample> = rep.logs.iter().flat_map(|l| &l.samples).collect();
    let client_mean_us = |class: &str| {
        let (ns, n) = rep
            .logs
            .iter()
            .filter_map(|l| l.routes.get(class))
            .fold((0, 0), |acc, r| (acc.0 + r.0, acc.1 + r.1));
        mean(ns as f64 / 1e3, n as usize)
    };
    let (metrics, health) = rep.probes.as_ref().expect("probes were asked for");
    let scrape = &metrics.body;
    let prom = |name: &str| prom_value(scrape, name).unwrap_or(0.0);
    for class in CLASSES {
        let daemon = mean(
            prom(&format!("harpd_route_{class}_us_sum")),
            prom(&format!("harpd_route_{class}_us_count")) as usize,
        );
        report.metric(format!("state.daemon_us.{class}"), daemon, "us");
        report.metric(
            format!("server.residual_us.{class}"),
            client_mean_us(class) - daemon,
            "us",
        );
        let bytes: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.resp_bytes as f64)
            .collect();
        report.metric(
            format!("http.resp_bytes.{class}"),
            mean(bytes.iter().sum(), bytes.len()),
            "bytes",
        );
    }
    let req_bytes: Vec<f64> = samples
        .iter()
        .filter(|s| s.class != "metrics")
        .map(|s| s.req_bytes as f64)
        .collect();
    report.metric(
        "http.req_bytes",
        mean(req_bytes.iter().sum(), req_bytes.len()),
        "bytes",
    );
    let scrapes: Vec<f64> = samples
        .iter()
        .filter(|s| s.class == "metrics")
        .map(|s| s.ns as f64 / 1e3)
        .chain([metrics.ns as f64 / 1e3])
        .collect();
    report.metric(
        "obs.scrape_us",
        mean(scrapes.iter().sum(), scrapes.len()),
        "us",
    );
    report.metric("obs.scrape_bytes", metrics.wire_bytes as f64, "bytes");
    report.metric("obs.flight_trips", prom("harpd_flight_trips"), "count");
    report.metric(
        "obs.flight_events_dropped",
        prom("harpd_flight_events_dropped"),
        "count",
    );
    report.metric("obs.spans_dropped", prom("harpd_spans_dropped"), "count");
    report.metric(
        "server.accept_queue_depth",
        svc::field_u64(&health.body, "queue_depth").unwrap_or(0) as f64,
        "count",
    );
    report.metric("harpd.rss_bytes_per_node", rep.rss_bytes_per_node, "bytes");
    let untraced_s = samples.iter().map(|s| s.ns as f64 / 1e9).sum::<f64>();

    // Passes 2 and 3: in process, untraced then traced.
    let base_s = in_process(&env.scenarios, &plan, None).wall_s;
    let first_span = tracer.spans().len();
    let traced = in_process(&env.scenarios, &plan, Some(tracer));
    let traced_s = traced.wall_s;
    if let Some(e) = &traced.error {
        report.check(false, || format!("cold renders not countable: {e}"));
    }
    report.check(traced.cold <= traced.reads, || {
        format!("{} cold renders for {} reads", traced.cold, traced.reads)
    });
    // Per-class handler time, and its self time (minus the allocator).
    let mut per_class: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    let spans = tracer.spans();
    let own = tracer.self_times();
    for (i, s) in spans.iter().enumerate().skip(first_span) {
        if s.name == "state.handle" {
            let root = spans[s.parent.expect("a handler span has a root")].name;
            let e = per_class
                .entry(root.trim_start_matches("request."))
                .or_default();
            e.0 += s.end.saturating_sub(s.start) as f64;
            e.1 += own[i] as f64;
            e.2 += 1;
        }
    }
    let totals = tracer.totals_from(first_span);
    let layer_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64);
    let layers_s =
        (layer_ns("http.parse") + layer_ns("state.handle") + layer_ns("core.allocator")) / 1e9;
    let parses = totals.get("http.parse").copied().unwrap_or_default();
    for class in CLASSES {
        let (handle, own, n) = per_class.get(class).copied().unwrap_or_default();
        report.metric(
            format!("state.handle_us.{class}"),
            mean(handle / 1e3, n),
            "us",
        );
        report.metric(format!("state.self_us.{class}"), mean(own / 1e3, n), "us");
    }
    report.metric(
        "http.parse_ns",
        mean(parses.total_ns as f64, parses.count as usize),
        "ns",
    );
    report.metric(
        "state.schedule_cache_hit_ratio",
        if traced.reads == 0 {
            0.0
        } else {
            (traced.reads - traced.cold) as f64 / traced.reads as f64
        },
        "ratio",
    );
    crate::reconcile(report, untraced_s, layers_s, (traced_s - base_s) / base_s);

    // Pass 4: the library layer.
    let first_core = tracer.spans().len();
    let core = library(&plan, tracer);
    let totals = tracer.totals_from(first_core);
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| mean(t.total_ns as f64 / 1e3, t.count as usize))
    };
    for (metric, span) in [
        ("workloads.parse_us", "workloads.parse"),
        ("workloads.topology_us", "workloads.topology"),
        ("core.net_new_us", "core.net_new"),
        ("core.bootstrap_us", "core.bootstrap"),
        ("core.settle_us", "core.settle"),
        ("core.interfaces_us", "core.interfaces"),
        ("core.partitions_us", "core.partitions"),
        ("core.schedule_gen_us", "core.schedule_gen"),
        ("core.adjust_us", "core.adjust"),
        ("core.rollback_us", "core.rollback"),
        ("core.teardown_us", "core.teardown"),
        ("verify.us_per_create", "verify"),
    ] {
        report.metric(metric, mean_us(span), "us");
    }
    let settle_ns = totals.get("core.settle").map_or(0.0, |t| t.total_ns as f64);
    let ok_adjusts = core.adjusts - core.rejected;
    report.metric(
        "core.static_msgs",
        mean(core.static_msgs as f64, core.creates),
        "count",
    );
    report.metric(
        "core.settle_ns_per_msg",
        mean(settle_ns, core.settle_msgs as usize),
        "ns",
    );
    report.metric(
        "core.allocs_per_create",
        mean(core.create_allocs as f64, core.creates),
        "count",
    );
    report.metric("core.bytes_per_node", core.bytes_per_node, "bytes");
    report.metric(
        "packing.strip_packs_per_create",
        mean(core.strip_packs as f64, core.creates),
        "count",
    );
    report.metric(
        "packing.feasibility_tests_per_adjust",
        mean(core.feasibility_tests as f64, core.adjusts),
        "count",
    );
    report.metric(
        "core.adjust_mgmt_msgs",
        mean(core.adjust_mgmt as f64, ok_adjusts),
        "count",
    );
    report.metric(
        "core.adjust_cell_msgs",
        mean(core.adjust_cells as f64, ok_adjusts),
        "count",
    );
    report.metric(
        "core.adjust_rejected_ratio",
        mean(core.rejected as f64, core.adjusts),
        "ratio",
    );
    report.metric(
        "core.allocs_per_adjust",
        mean(core.adjust_allocs as f64, core.adjusts),
        "count",
    );
    report.metric("verify.violations", core.violations as f64, "count");
    report.attempted += (core.creates + core.adjusts) as u64;

    report.check(core.violations == 0, || {
        format!(
            "{} invariant violations in created networks",
            core.violations
        )
    });
    report.check(core.changed_by_rejection == 0, || {
        format!(
            "{} rejected adjusts changed the schedule",
            core.changed_by_rejection
        )
    });
    report.check(core.wrong_outcomes == 0, || {
        format!(
            "{} adjusts accepted or refused against the plan",
            core.wrong_outcomes
        )
    });
    let daemon_counts = rep.counts();
    let library_counts = [
        ok_adjusts as u64,
        core.rejected as u64,
        core.adjust_mgmt,
        core.adjust_cells,
        core.static_msgs,
    ];
    report.check(library_counts == daemon_counts, || {
        format!("daemon and library disagree on deterministic counts: {daemon_counts:?} vs {library_counts:?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_renders_are_schedule_spans_after_the_mark() {
        let span = |name: &str, corr: u64| {
            format!("{{\"name\": \"{name}\", \"layer\": \"harpd\", \"node\": -1, \"depth\": 0, \"start_asn\": 1, \"end_asn\": 2, \"detail\": 0, \"corr\": {corr}}}")
        };
        let body = format!(
            "{{\"tenant\": \"t3\", \"request_spans\": {{\"total_recorded\": 4, \"dropped\": 0, \"spans\": [{}, {}, {}, {}]}}, \"allocator_trace\": {{\"spans\": []}}}}\n",
            span("schedule", 5),
            span("adjust", 9),
            span("schedule", 11),
            span("schedule", 12)
        );
        assert_eq!(schedule_spans_after(body.as_bytes(), 0), Ok((3, 12)));
        assert_eq!(schedule_spans_after(body.as_bytes(), 9), Ok((2, 12)));
        assert_eq!(schedule_spans_after(body.as_bytes(), 12), Ok((0, 12)));
        assert!(schedule_spans_after(b"{\"error\": \"no network\"}", 0).is_err());
    }
}
