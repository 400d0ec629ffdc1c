//! `perfbench`: the end-to-end and per-layer benchmark of `harpd` and the
//! HARP simulator. See `README.md` beside this crate for the workloads,
//! the metrics and why each exists.

pub mod alloc;
pub mod report;
pub mod seq;
pub mod sim;
pub mod span;
pub mod stats;
pub mod svc;
pub mod svc_trace;
pub mod wire;

use std::path::PathBuf;

use report::Report;

/// The workloads the binaries run, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["svc_lifecycle", "svc_steady", "sim_scenarios"];

/// End-to-end metrics and units: every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units: every traced run reports all of them, 0
/// for a layer its workload does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.parse_us", "us"),
    ("workloads.topology_us", "us"),
    ("workloads.scale_build_s", "s"),
    ("core.net_new_us", "us"),
    ("core.bootstrap_us", "us"),
    ("core.settle_us", "us"),
    ("core.static_msgs", "count"),
    ("core.settle_ns_per_msg", "ns"),
    ("core.interfaces_us", "us"),
    ("core.partitions_us", "us"),
    ("core.schedule_gen_us", "us"),
    ("core.allocs_per_create", "count"),
    ("packing.strip_packs_per_create", "count"),
    ("packing.feasibility_tests_per_adjust", "count"),
    ("core.adjust_us", "us"),
    ("core.adjust_mgmt_msgs", "count"),
    ("core.adjust_cell_msgs", "count"),
    ("core.rollback_us", "us"),
    ("core.adjust_rejected_ratio", "ratio"),
    ("core.allocs_per_adjust", "count"),
    ("core.teardown_us", "us"),
    ("core.bytes_per_node", "bytes"),
    ("verify.us_per_create", "us"),
    ("verify.violations", "count"),
    ("http.parse_ns", "ns"),
    ("http.req_bytes", "bytes"),
    ("http.resp_bytes.create", "bytes"),
    ("http.resp_bytes.schedule", "bytes"),
    ("http.resp_bytes.adjust", "bytes"),
    ("http.resp_bytes.delete", "bytes"),
    ("state.handle_us.create", "us"),
    ("state.handle_us.schedule", "us"),
    ("state.handle_us.adjust", "us"),
    ("state.handle_us.delete", "us"),
    ("state.self_us.create", "us"),
    ("state.self_us.schedule", "us"),
    ("state.self_us.adjust", "us"),
    ("state.self_us.delete", "us"),
    ("state.daemon_us.create", "us"),
    ("state.daemon_us.schedule", "us"),
    ("state.daemon_us.adjust", "us"),
    ("state.daemon_us.delete", "us"),
    ("state.schedule_cache_hit_ratio", "ratio"),
    ("server.residual_us.create", "us"),
    ("server.residual_us.schedule", "us"),
    ("server.residual_us.adjust", "us"),
    ("server.residual_us.delete", "us"),
    ("server.accept_queue_depth", "count"),
    ("harpd.rss_bytes_per_node", "bytes"),
    ("obs.scrape_us", "us"),
    ("obs.scrape_bytes", "bytes"),
    ("obs.flight_trips", "count"),
    ("obs.flight_events_dropped", "count"),
    ("obs.spans_dropped", "count"),
    ("engine.build_s", "s"),
    ("engine.conflict_bytes_per_node", "bytes"),
    ("engine.slots_per_s", "slots/s"),
    ("engine.active_cell_slots_per_s", "1/s"),
    ("engine.idle_wakeups", "count"),
    ("engine.delivered", "count"),
    ("engine.sharded_speedup", "x"),
    ("transport.retransmissions", "count"),
    ("transport.duplicates_suppressed", "count"),
    ("scenario.compile_us", "us"),
    ("scenario.fault_storm_ms", "ms"),
    ("scenario.fig10_dynamic_ms", "ms"),
    ("scenario.gateway_failover_ms", "ms"),
    ("scenario.mgmt_loss_ms", "ms"),
    ("scenario.reparent_churn_ms", "ms"),
    ("scenario.table2_adjustment_ms", "ms"),
    ("trace.untraced_total_s", "s"),
    ("trace.layers_self_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Nominal run length; fixes the amount of work.
    pub seconds: f64,
    /// Where the service and scenario inputs live.
    pub env: svc::Env,
    /// Directory the traced binary writes its spans to.
    pub trace_dir: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --harpd BIN
    /// --scenarios DIR [--trace-dir DIR]` (other flags are ignored).
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let value = |key: &str| {
            args.iter()
                .position(|a| a == key)
                .and_then(|i| args.get(i + 1))
                .cloned()
                .ok_or_else(|| format!("missing {key}"))
        };
        let workload = value("--workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        let seed = value("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
        let seconds: f64 = value("--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number".to_owned())?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            env: svc::Env {
                harpd: value("--harpd")?.into(),
                scenarios: value("--scenarios")?.into(),
            },
            trace_dir: value("--trace-dir").unwrap_or_else(|_| ".".into()).into(),
        })
    }
}

/// Reconciles a traced run with its untraced base: the untraced total,
/// the layers' summed self times, what is left over, and the tracing
/// overhead as a share of the untraced cost.
pub fn reconcile(report: &mut Report, untraced_s: f64, layers_s: f64, overhead_share: f64) {
    report.metric("trace.untraced_total_s", untraced_s, "s");
    report.metric("trace.layers_self_s", layers_s, "s");
    report.metric("trace.residual_s", untraced_s - layers_s, "s");
    report.metric(
        "trace.residual_share",
        (untraced_s - layers_s) / untraced_s,
        "ratio",
    );
    report.metric("trace.overhead_share", overhead_share, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_obs::json::{parse, Json};

    fn pairs(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_binaries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(pairs(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(pairs(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = pairs(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_reject_unknown_workloads_and_bad_numbers() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = Args::parse(&argv(
            "--workload sim_scenarios --seed 3 --seconds 20 --trace 0 --harpd h --scenarios s",
        ))
        .expect("valid");
        assert_eq!((ok.seed, ok.seconds), (3, 20.0));
        assert!(Args::parse(&argv(
            "--workload nope --seed 3 --seconds 20 --harpd h --scenarios s"
        ))
        .is_err());
        assert!(Args::parse(&argv(
            "--workload sim_scenarios --seed -1 --seconds 20 --harpd h --scenarios s"
        ))
        .is_err());
        assert!(Args::parse(&argv(
            "--workload sim_scenarios --seed 1 --seconds 0 --harpd h --scenarios s"
        ))
        .is_err());
    }
}
