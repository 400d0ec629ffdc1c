//! The simulator workload: the checked-in scenario corpus through the
//! scenario runner. Its traced run also measures the slot engine at a
//! million nodes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use harp_bench::scenario_run::{run_scenario, RunOptions};
use harp_obs::json::Json;
use tsch_sim::{
    LinkQuality, ShardOptions, ShardedSimulator, Simulator, SimulatorBuilder, StatsMode,
};
use workloads::scenario_dsl::{parse_scenario, Scenario};
use workloads::{scale_scenario, ScaleScenario};

use crate::report::Report;
use crate::seq::Rng;
use crate::span::Tracer;
use crate::stats::{median, Latency};

/// Nodes of the traced run's scale tree.
pub const SCALE_NODES: u32 = 1_000_000;
/// Slotframes run after the engine build, before timing.
const WARMUP_FRAMES: u64 = 20;
/// Timed engine slotframes per second of `--seconds` (see `svc` for why
/// work is a function of the arguments).
const ENGINE_FRAMES_PER_S: f64 = 1000.0;
/// Corpus passes per second of `--seconds`.
const SCENARIO_PASSES_PER_S: f64 = 35.0;
/// Set-ups per untraced run. They are spread through the run, one before
/// each equal share of the timed passes, so their median samples the
/// host across the whole run rather than in its first fraction of a
/// second.
pub const SETUPS: usize = 9;
/// Traced passes (and untraced ones interleaved with them) per traced
/// run, as a share of the untraced run's passes.
const TRACED_PASS_SHARE: f64 = 1.0 / 3.0;

/// Current process `VmHWM`, MB.
fn own_peak_rss_mb() -> f64 {
    crate::wire::proc_status_kb("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

/// The event engine over a scale scenario, streaming statistics.
#[must_use]
pub fn build_engine(sc: ScaleScenario) -> Simulator {
    let mut builder = SimulatorBuilder::new(sc.tree, sc.config)
        .schedule(sc.schedule)
        .stats_mode(StatsMode::Streaming);
    for task in sc.tasks {
        builder = builder.task(task).expect("scale task ids are unique");
    }
    builder.build()
}

/// Engine invariants of a conflict-free schedule.
fn check_engine(report: &mut Report, sim: &Simulator) {
    report.check(sim.stats().collisions == 0, || {
        format!(
            "{} collisions on a conflict-free schedule",
            sim.stats().collisions
        )
    });
    report.check(sim.idle_wakeups() == 0, || {
        format!("{} idle wake-ups", sim.idle_wakeups())
    });
}

/// The engine layer under spans: the scale scenario, the engine build,
/// warm-up and `frames` slotframes, then the sharded engine on two threads
/// over the same scenario. Returns the traced wall time and the summed
/// span time, both seconds.
pub fn engine_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    seed: u64,
    frames: u64,
) -> (f64, f64) {
    const CHUNK: u64 = 100;
    let first = tracer.spans().len();
    let t0 = Instant::now();
    let sc = tracer.span("workloads.scale_scenario", 0, || {
        scale_scenario(SCALE_NODES, seed)
    });
    let kept = sc.clone();
    let mut sim = tracer.span("engine.build", 0, || build_engine(sc));
    tracer.span("engine.warmup", 0, || sim.run_slotframes(WARMUP_FRAMES));
    let mut done = 0;
    while done < frames {
        let n = CHUNK.min(frames - done);
        tracer.span("engine.run", done, || sim.run_slotframes(n));
        done += n;
    }
    let traced_s = t0.elapsed().as_secs_f64();
    report.attempted += frames;

    let totals = tracer.totals_from(first);
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let slots = f64::from(kept.config.slots);
    let dense_rate = frames as f64 * slots / secs("engine.run");
    let nodes = f64::from(SCALE_NODES);
    check_engine(report, &sim);
    report.metric(
        "workloads.scale_build_s",
        secs("workloads.scale_scenario"),
        "s",
    );
    report.metric("engine.build_s", secs("engine.build"), "s");
    report.metric(
        "engine.conflict_bytes_per_node",
        sim.conflict_storage_bytes() as f64 / nodes,
        "bytes",
    );
    report.metric("engine.slots_per_s", dense_rate, "slots/s");
    report.metric(
        "engine.active_cell_slots_per_s",
        dense_rate * kept.schedule.assignment_count() as f64 / slots,
        "1/s",
    );
    report.metric("engine.idle_wakeups", sim.idle_wakeups() as f64, "count");
    report.metric("engine.delivered", sim.stats().delivered() as f64, "count");
    drop(sim);
    let layers_s = totals.values().map(|t| t.total_ns as f64 / 1e9).sum();

    let mut sharded = ShardedSimulator::try_new(
        &kept.tree,
        kept.config,
        &kept.schedule,
        &LinkQuality::perfect(),
        seed,
        &kept.tasks,
        ShardOptions {
            trace_capacity: 0,
            stats_mode: StatsMode::Streaming,
            serial_fallback_threshold: 4_000,
        },
    )
    .expect("scale scenarios shard by construction");
    sharded.run_slotframes_with_threads(WARMUP_FRAMES, 2);
    let t = Instant::now();
    sharded.run_slotframes_with_threads(frames, 2);
    let shard_rate = frames as f64 * slots / t.elapsed().as_secs_f64();
    report.metric("engine.sharded_speedup", shard_rate / dense_rate, "x");
    (traced_s, layers_s)
}

/// The checked-in corpus: `(name, text)` sorted by file name.
///
/// # Errors
///
/// An unreadable directory or file.
pub fn corpus(dir: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            Ok((name, std::fs::read_to_string(&p)?))
        })
        .collect()
}

/// Sum of every numeric field named `key` or `transport.<key>` anywhere
/// in a report document.
fn sum_key(doc: &Json, key: &str) -> f64 {
    match doc {
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, v)| match v {
                Json::Num(x) if k == key || k.strip_prefix("transport.") == Some(key) => *x,
                _ => sum_key(v, key),
            })
            .sum(),
        Json::Arr(items) => items.iter().map(|v| sum_key(v, key)).sum(),
        _ => 0.0,
    }
}

/// A report without its `obs` section, whose library counters are
/// process-wide totals that grow from one run to the next.
fn deterministic_part(doc: &Json) -> String {
    match doc {
        Json::Obj(fields) => format!(
            "{:?}",
            fields
                .iter()
                .filter(|(k, _)| k != "obs")
                .collect::<Vec<_>>()
        ),
        other => format!("{other:?}"),
    }
}

/// One scenario run at the scenario's own seed: its report, or why it
/// failed. The checked-in seeds are the corpus's inputs; overriding them
/// is not part of this workload (see README: some `mgmt_loss` seeds make
/// the runner panic).
fn run_one(scenario: &Scenario) -> Result<String, String> {
    let opts = RunOptions {
        quick: true,
        seed: None,
        threads: Some(1),
    };
    catch_unwind(AssertUnwindSafe(|| run_scenario(scenario, &opts)))
        .map_err(|_| format!("{} panicked", scenario.name))?
        .map(|out| out.json)
}

/// Checks one run's report: it parses, shows no collisions, and matches
/// the first report of the same scenario in this run (`reference`, which
/// the first call fills).
fn check_run(
    report: &mut Report,
    name: &str,
    result: Result<String, String>,
    reference: &mut Option<String>,
) -> Option<Json> {
    report.attempted += 1;
    let doc = result
        .and_then(|json| harp_obs::json::parse(&json).map_err(|e| format!("{name}: report: {e}")));
    match doc {
        Ok(doc) => {
            let collisions = sum_key(&doc, "collisions");
            report.check(collisions == 0.0, || {
                format!("{name}: {collisions} collisions")
            });
            let fixed = deterministic_part(&doc);
            let same = reference.get_or_insert_with(|| fixed.clone()) == &fixed;
            report.check(same, || {
                format!("{name}: report differs between identical runs")
            });
            Some(doc)
        }
        Err(e) => {
            report.failed += 1;
            report.check(false, || e);
            None
        }
    }
}

/// The scenario order of each timed corpus pass, shuffled from `seed`.
fn pass_orders(seed: u64, seconds: f64, scenarios: usize) -> Vec<Vec<usize>> {
    let passes = ((seconds * SCENARIO_PASSES_PER_S).round() as usize).max(1);
    let mut rng = Rng::new(seed);
    (0..passes)
        .map(|_| {
            let mut order: Vec<usize> = (0..scenarios).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect()
}

fn parse_corpus(corpus: &[(String, String)]) -> Result<Vec<Scenario>, String> {
    corpus
        .iter()
        .map(|(name, text)| parse_scenario(text).map_err(|e| format!("{name}.scn: {e}")))
        .collect()
}

/// Runs the scenarios once in `order`; returns the nanoseconds spent
/// inside the runner.
fn pass(
    report: &mut Report,
    scenarios: &[Scenario],
    order: &[usize],
    references: &mut [Option<String>],
) -> u64 {
    let mut ns = 0;
    for &i in order {
        let t = Instant::now();
        let result = run_one(&scenarios[i]);
        ns += t.elapsed().as_nanos() as u64;
        check_run(report, &scenarios[i].name, result, &mut references[i]);
    }
    ns
}

/// Set-up passes (untimed) before the timed ones.
const WARMUP_PASSES: usize = 2;

fn load_corpus(report: &mut Report, dir: &Path) -> Option<Vec<(String, String)>> {
    match corpus(dir) {
        Ok(c) if !c.is_empty() => Some(c),
        other => {
            report.check(false, || {
                format!("no scenarios under {}: {other:?}", dir.display())
            });
            None
        }
    }
}

/// Untraced `sim_scenarios`: the timed passes in seeded orders, one
/// scenario at a time, split into [`SETUPS`] equal shares, each run on a
/// fresh set-up (parse, then [`WARMUP_PASSES`] passes). Every report must
/// match the first of its scenario.
pub fn run_scenarios(report: &mut Report, dir: &Path, seed: u64, seconds: f64) {
    let Some(corpus) = load_corpus(report, dir) else {
        return;
    };
    let mut references = vec![None; corpus.len()];
    let natural: Vec<usize> = (0..corpus.len()).collect();
    let orders = pass_orders(seed, seconds, corpus.len());
    let mut setups = Vec::new();
    let mut pass_us = Vec::with_capacity(orders.len());
    for share in orders.chunks(orders.len().div_ceil(SETUPS)) {
        let t0 = Instant::now();
        let scenarios = match parse_corpus(&corpus) {
            Ok(s) => s,
            Err(e) => return report.check(false, || e),
        };
        for _ in 0..WARMUP_PASSES {
            pass(report, &scenarios, &natural, &mut references);
        }
        setups.push(t0.elapsed().as_secs_f64());
        for order in share {
            pass_us.push(pass(report, &scenarios, order, &mut references) as f64 / 1e3);
        }
    }
    let op = Latency::of(&pass_us);
    report.metric("setup_s", median(&setups), "s");
    report.metric(
        "throughput_per_s",
        1e6 * op.count as f64 / pass_us.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("op_p50_us", op.p50, "us");
    report.metric("op_p90_us", op.p90, "us");
    report.metric("peak_rss_mb", own_peak_rss_mb(), "MB");
    report.metric("scenario_pass_ms", op.p50 / 1e3, "ms");
    report.metric("op_samples", op.count as f64, "count");
    report.print_table(
        "sim_scenarios: corpus figures",
        &["scenario_pass_ms", "op_samples"],
    );
}

/// Traced `sim_scenarios`: one warm-up pass, then untraced and traced
/// passes alternate (so drift in the host affects both alike), the traced
/// ones under spans around parsing, lowering and running each scenario.
pub fn trace_scenarios(
    report: &mut Report,
    tracer: &mut Tracer,
    dir: &Path,
    seed: u64,
    seconds: f64,
) {
    let Some(corpus) = load_corpus(report, dir) else {
        return;
    };
    let mut references = vec![None; corpus.len()];
    let mut orders = pass_orders(seed, seconds * TRACED_PASS_SHARE, corpus.len());
    orders.insert(0, (0..corpus.len()).collect());
    // Span names must be 'static; the corpus is small and fixed.
    let run_names: Vec<&'static str> = corpus
        .iter()
        .map(|(name, _)| &*Box::leak(format!("scenario.{name}").into_boxed_str()))
        .collect();
    let (mut retx, mut dups) = (0.0, 0.0);
    let mut per_scenario: Vec<Vec<f64>> = vec![Vec::new(); corpus.len()];
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (p, order) in orders.iter().enumerate() {
        let t0 = Instant::now();
        match parse_corpus(&corpus) {
            Ok(scenarios) => {
                pass(report, &scenarios, order, &mut references);
            }
            Err(e) => return report.check(false, || e),
        }
        if p == 0 {
            continue;
        }
        untraced_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for &i in order {
            let req = (p * corpus.len() + i) as u64;
            let root = tracer.begin("scenario.item", req);
            let scenario = tracer.span("workloads.parse", req, || parse_scenario(&corpus[i].1));
            let Ok(scenario) = scenario else {
                tracer.end(root);
                report.check(false, || format!("{} no longer parses", corpus[i].0));
                continue;
            };
            tracer.span("scenario.compile", req, || lower(&scenario));
            let start = tracer.now();
            let result = tracer.span(run_names[i], req, || run_one(&scenario));
            per_scenario[i].push((tracer.now() - start) as f64 / 1e6);
            tracer.end(root);
            if let Some(doc) = check_run(report, &scenario.name, result, &mut references[i]) {
                retx += sum_key(&doc, "retransmissions");
                dups += sum_key(&doc, "duplicates_suppressed");
            }
        }
        traced_s += t0.elapsed().as_secs_f64();
    }
    let totals = tracer.totals();
    let passes = (orders.len() - 1) as f64;
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    report.metric("workloads.parse_us", mean_us("workloads.parse"), "us");
    report.metric("scenario.compile_us", mean_us("scenario.compile"), "us");
    for ((name, _), times) in corpus.iter().zip(&per_scenario) {
        report.metric(format!("scenario.{name}_ms"), median(times), "ms");
    }
    report.metric("transport.retransmissions", retx / passes, "count");
    report.metric("transport.duplicates_suppressed", dups / passes, "count");
    // Self times of every layer under the per-item root; the root's own
    // self time is the tracer's bookkeeping between them.
    let layers: f64 = totals
        .iter()
        .filter(|(name, _)| **name != "scenario.item")
        .map(|(_, t)| t.self_ns as f64 / 1e9)
        .sum();
    // The runner lowers each scenario itself; the traced pass lowers it a
    // second time only to time that step, so it is not part of the
    // untraced work the layers must account for.
    let compile_s = totals
        .get("scenario.compile")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let traced_s = traced_s - compile_s;
    crate::reconcile(
        report,
        untraced_s,
        layers - compile_s,
        (traced_s - untraced_s) / untraced_s,
    );
    // The million-node engine: the large-working-set counterpart of the
    // 50-node scenarios.
    let frames = ((seconds * ENGINE_FRAMES_PER_S).round() as u64).max(1);
    engine_layer(report, tracer, seed, frames);
}

/// Lowers a scenario the way the runner does before running it: the
/// topology, demand, tasks and fault plan of its first tree.
fn lower(scenario: &Scenario) -> usize {
    let Some(tree) = scenario.trees(false).into_iter().next() else {
        return 0;
    };
    let reqs = scenario.requirements(&tree);
    let tasks = scenario.tasks(&tree);
    let faults = scenario
        .data_fault_plan(&tree)
        .map_or(0, |p| p.events().len());
    let steps = scenario.demand_step_events(&tree).map_or(0, |s| s.len());
    std::hint::black_box(reqs.iter().count() + tasks.len() + faults + steps)
}
