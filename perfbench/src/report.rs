//! One run's result: metrics with units and sample counts, correctness
//! gates, per-phase request accounting and the run environment.
//!
//! [`Report::finish`] prints a human-readable summary, writes the full
//! detail as JSON under `.bench_work/results/`, and prints the one-line
//! result object last:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

use std::fmt::Write as _;
use std::path::Path;

use crate::reply::Tally;
use crate::Result;

/// The end-to-end metrics every untraced run reports, on every workload,
/// in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "peak_rss_mb",
    "block_cpu_s",
    "gamma_cpu_s",
    "ingest_cpu_s",
    "queryk_cpu_us",
    "queryk_recall_at_10",
    "mixed_cpu_us",
];

/// The per-layer metrics every traced run reports, on every workload, in
/// the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 58] = [
    "gen_s",
    "signature_cpu_s",
    "semhash_cpu_s",
    "block_s",
    "blocks",
    "redundant_pairs",
    "gamma_s",
    "distinct_pairs",
    "dedup_ratio",
    "gamma_rss_mb",
    "sorted_mb",
    "ingest_s",
    "ingest_batch_p50_ms",
    "delta_pairs_per_batch",
    "ingest_rss_mb",
    "probe_signature_us",
    "probe_semhash_us",
    "candidates_us",
    "candidates_per_query",
    "query_inproc_us",
    "queryk_inproc_us",
    "queryk_yield",
    "protocol_query_us",
    "protocol_queryk_us",
    "reply_bytes_query",
    "wire_query_us",
    "wire_write_us",
    "stats_us",
    "query_p50_us",
    "query_p90_us",
    "queryk_p50_us",
    "queryk_p90_us",
    "query_cpu_us",
    "insert_cow_ms",
    "insert_nocow_ms",
    "remove_cow_ms",
    "publish_view_us",
    "apply_insert_ms",
    "wal_append_us",
    "fsync_us",
    "wal_bytes_per_write",
    "checkpoint_ms",
    "recover_s",
    "recover_cpu_s",
    "replayed_batches",
    "snapshot_mb",
    "snapshot_load_ms",
    "client_cpu_s",
    "mixed_query_p90_us",
    "insert_p50_ms",
    "remove_p50_ms",
    "insert_p90_ms",
    "write_ops_per_s",
    "query_p99_us",
    "queryk_p99_us",
    "insert_p99_ms",
    "steal_pct",
    "trace_overhead_pct",
];

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name (see [`valid_name`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single measurement).
    pub samples: u64,
}

/// One correctness gate.
#[derive(Debug, Clone)]
struct Gate {
    name: String,
    passed: bool,
    detail: String,
}

/// A run's result, assembled by the workload.
#[derive(Debug)]
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: Vec<Metric>,
    gates: Vec<Gate>,
    phases: Vec<(String, Tally)>,
    env: Vec<(String, String)>,
}

impl Report {
    /// An empty report for one workload run.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            trace,
            metrics: Vec::new(),
            gates: Vec::new(),
            phases: Vec::new(),
            env: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        let samples = u64::try_from(samples).unwrap_or(u64::MAX);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a correctness gate; a failed gate makes the run incorrect.
    pub fn gate(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Records the request accounting of one phase.
    pub fn phase(&mut self, name: impl Into<String>, tally: Tally) {
        self.phases.push((name.into(), tally));
    }

    /// Records one run-environment field.
    pub fn env(&mut self, key: impl Into<String>, value: impl ToString) {
        self.env.push((key.into(), value.to_string()));
    }

    /// Whether every gate passed (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|gate| gate.passed)
    }

    fn totals(&self) -> Tally {
        let mut total = Tally::default();
        for (_, tally) in &self.phases {
            total.include(tally);
        }
        total
    }

    /// Checks the metrics' names, units and values, and that the run
    /// reports exactly the metrics its mode promises.
    fn validate(&self) -> Result<()> {
        let promised: &[&str] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let missing: Vec<&str> = promised
            .iter()
            .copied()
            .filter(|name| !self.metrics.iter().any(|metric| metric.name == *name))
            .collect();
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|metric| metric.name)
            .filter(|name| !promised.contains(name))
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "the run's metrics differ from BENCHMARK.json: missing {missing:?}, unlisted {extra:?}"
            )
            .into());
        }
        for (index, metric) in self.metrics.iter().enumerate() {
            if !valid_name(metric.name) || !valid_unit(metric.unit) {
                return Err(format!(
                    "invalid metric name or unit: {} [{}]",
                    metric.name, metric.unit
                )
                .into());
            }
            if !metric.value.is_finite() {
                return Err(
                    format!("metric {} is not finite: {}", metric.name, metric.value).into(),
                );
            }
            if self
                .metrics
                .iter()
                .skip(index + 1)
                .any(|other| other.name == metric.name)
            {
                return Err(format!("metric {} reported twice", metric.name).into());
            }
        }
        Ok(())
    }

    /// The final result line.
    pub fn result_line(&self) -> String {
        let total = self.totals();
        let mut metrics = String::new();
        for (index, metric) in self.metrics.iter().enumerate() {
            let comma = if index == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            total.attempted.max(1),
            total.failed(),
        )
    }

    fn detail_json(&self) -> String {
        let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        let mut out = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"correct\": {},\n  \"metrics\": [",
            quote(&self.workload),
            self.seed,
            self.trace,
            self.correct()
        );
        for (index, m) in self.metrics.iter().enumerate() {
            let comma = if index == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit),
                m.samples
            );
        }
        out.push_str("\n  ],\n  \"gates\": [");
        for (index, g) in self.gates.iter().enumerate() {
            let comma = if index == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n    {{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                quote(&g.name),
                g.passed,
                quote(&g.detail)
            );
        }
        out.push_str("\n  ],\n  \"phases\": [");
        for (index, (name, t)) in self.phases.iter().enumerate() {
            let comma = if index == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n    {{\"name\": {}, \"attempted\": {}, \"ok\": {}, \"err\": {}, \"retry\": {}, \
                 \"degraded\": {}, \"transport\": {}}}",
                quote(name),
                t.attempted,
                t.ok,
                t.err,
                t.retry,
                t.degraded,
                t.transport
            );
        }
        out.push_str("\n  ],\n  \"env\": {");
        for (index, (key, value)) in self.env.iter().enumerate() {
            let comma = if index == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\n    {}: {}", quote(key), quote(value));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    fn summary(&self) -> String {
        let mut out = format!(
            "perfbench {} seed {} trace {}\n",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for (key, value) in &self.env {
            let _ = writeln!(out, "  env   {key} = {value}");
        }
        for (name, t) in &self.phases {
            let _ = writeln!(
                out,
                "  phase {name}: attempted {} ok {} err {} retry {} degraded {} transport {}",
                t.attempted, t.ok, t.err, t.retry, t.degraded, t.transport
            );
        }
        let total = self.totals();
        let share = if total.attempted == 0 {
            0.0
        } else {
            total.failed() as f64 / total.attempted as f64
        };
        let _ = writeln!(
            out,
            "  failed share {share} ({} of {})",
            total.failed(),
            total.attempted
        );
        for gate in &self.gates {
            let verdict = if gate.passed { "pass" } else { "FAIL" };
            let _ = writeln!(out, "  gate  {verdict} {}: {}", gate.name, gate.detail);
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<24} {:>16} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// Prints the summary and the result line, and writes the detail file
    /// under `results_dir`. Returns whether the run was correct.
    pub fn finish(&self, results_dir: &Path) -> Result<bool> {
        self.validate()?;
        std::fs::create_dir_all(results_dir)?;
        let file = results_dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        std::fs::write(&file, self.detail_json())?;
        print!("{}", self.summary());
        println!("  detail written to {}", file.display());
        println!("{}", self.result_line());
        Ok(self.correct())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for good in [
            "setup_s",
            "query_p90_us",
            "a",
            "9lives",
            "x.y-z",
            &"n".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "µs",
            "a/b",
            &"n".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["s", "ms", "us", "1/s", "%", "MB", "count", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "a b", "sixteen-chars-xx+"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::new("serve_read", 3, false);
        report.metric("setup_s", 1.25, "s", 3);
        report.metric("queryk_cpu_us", 222.5, "us", 1000);
        let mut tally = Tally::default();
        tally.note(&crate::reply::Outcome::Ok(String::new()));
        tally.note(&crate::reply::Outcome::Retry);
        report.phase("query", tally);
        report.gate("replies match", true, "ok");
        assert_eq!(
            report.result_line(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 1.25, \
             \"unit\": \"s\"}, \"queryk_cpu_us\": {\"value\": 222.5, \"unit\": \"us\"}}}"
        );
        report.gate("counts", false, "off by one");
        assert!(!report.correct());
        assert!(report.result_line().starts_with("{\"correct\": false"));
    }

    fn full(trace: bool) -> Report {
        let mut report = Report::new("cora", 1, trace);
        let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
        for name in names {
            report.metric(name, 1.5, "s", 1);
        }
        report
    }

    #[test]
    fn a_run_must_report_exactly_its_modes_metrics() {
        assert!(full(false).validate().is_ok());
        assert!(full(true).validate().is_ok());
        let mut partial = Report::new("cora", 1, false);
        partial.metric("setup_s", 1.25, "s", 3);
        assert!(partial.validate().is_err(), "a missing metric");
        let mut extra = full(false);
        extra.metric("gen_s", 0.1, "s", 1);
        assert!(
            extra.validate().is_err(),
            "a per-layer metric in an untraced run"
        );
    }

    /// The names between `"<section>": [` and the next `]` of the manifest.
    fn manifest_names(manifest: &str, section: &str) -> Vec<String> {
        let start = manifest
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closed")];
        body.split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next().map(String::from))
            .collect()
    }

    #[test]
    fn the_lists_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        assert_eq!(manifest_names(manifest, "end_to_end"), END_TO_END);
        assert_eq!(manifest_names(manifest, "per_layer"), PER_LAYER);
        assert_eq!(manifest_names(manifest, "workloads"), ["cora", "voter"]);
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn validation_rejects_bad_metrics() {
        let mut report = full(false);
        report.metrics[0].value = f64::NAN;
        assert!(report.validate().is_err());
        let mut report = full(false);
        report.metric("setup_s", 2.0, "s", 1);
        assert!(report.validate().is_err(), "duplicate names");
        let mut report = full(false);
        report.metrics[1].unit = "a b";
        assert!(report.validate().is_err(), "bad unit");
        let no_gates = Report::new("w", 0, false);
        assert!(!no_gates.correct(), "a run without gates proves nothing");
    }
}
