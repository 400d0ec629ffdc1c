//! The run's result: the host block, human-readable lines, and the final
//! JSON object the last line of standard output carries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Accumulates metrics and correctness for one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (counted against `attempted`).
    pub failed: u64,
}

impl Report {
    /// Records a metric; a repeated name overwrites.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a correctness check; a failed one marks the run incorrect
    /// and is explained on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Prints `name value unit` lines for the metrics in `names`
    /// (a human-readable table ahead of the JSON line).
    pub fn print_table(&self, title: &str, names: &[&str]) {
        println!("# {title}");
        for name in names {
            if let Some((value, unit)) = self.metrics.get(*name) {
                println!("  {name:<40} {value:>16.4} {unit}");
            }
        }
    }

    /// The final line: `correct`, `attempted`, `failed` and the metrics
    /// in `specs` with their units. A metric never recorded reads 0.
    #[must_use]
    pub fn json_line(&self, specs: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in specs.iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// One line describing the host and build the numbers came from.
#[must_use]
pub fn host_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host {{\"cores\": {cores}, \"cpu\": \"{}\", \"commit\": \"{}\", \"profile\": \"{profile}\"}}",
        harp_obs::json::escape_json(&cpu),
        harp_obs::json::escape_json(&commit)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("a_ms", 1.25, "ms");
        r.metric("b_s", 0.5, "s");
        let line = r.json_line(&[("a_ms", "ms"), ("b_s", "s")]);
        let doc = harp_obs::json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let a = doc
            .get("metrics")
            .and_then(|m| m.get("a_ms"))
            .expect("a_ms");
        assert_eq!(a.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(a.get("unit").and_then(|v| v.as_str()), Some("ms"));
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        r.check(false, || "deliberate".into());
        let line = r.json_line(&[("a_ms", "ms"), ("never", "count")]);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"never\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }
}
