//! One run's results: metrics by name, violations of the correctness
//! gate, and the two JSON renderings — the detailed report and the
//! driver's result line.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{MetricDef, Workload, COMMIT_TIMEOUT, KEYSPACE, WALL_DELTA};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// Samples behind the figure, where it is a statistic of samples.
    pub samples: Option<u64>,
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static Workload,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub metrics: BTreeMap<&'static str, Measured>,
    pub violations: Vec<String>,
    /// Commands submitted in the measured window, and how many of them
    /// timed out.
    pub attempted: u64,
    pub failed: u64,
    /// Context that is not a metric: generator health, percentile
    /// support, the span file.
    pub detail: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn new(workload: &'static Workload, seed: u64, trace: bool, seconds: f64) -> Self {
        Report {
            workload,
            seed,
            trace,
            seconds,
            metrics: BTreeMap::new(),
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
            detail: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(
            name,
            Measured {
                value,
                samples: None,
            },
        );
    }

    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: u64) {
        let samples = Some(samples);
        self.metrics.insert(name, Measured { value, samples });
    }

    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Checks the reported names against the table for this kind of run:
    /// a missing or unknown metric is an error, never a silent default,
    /// and so is a value JSON cannot carry.
    pub fn validate(&self, defs: &[MetricDef]) -> Result<(), String> {
        for def in defs {
            match self.metrics.get(def.name) {
                None => return Err(format!("metric `{}` was not measured", def.name)),
                Some(m) if !m.value.is_finite() => {
                    return Err(format!("metric `{}` is not finite: {}", def.name, m.value))
                }
                Some(_) => {}
            }
        }
        match self
            .metrics
            .keys()
            .find(|k| defs.iter().all(|d| d.name != **k))
        {
            Some(unknown) => Err(format!("metric `{unknown}` is not in the table")),
            None => Ok(()),
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric with its value and unit.
    pub fn result_line(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs.iter().map(|def| {
            let fields = [
                ("value", Json::Num(self.metrics[def.name].value)),
                ("unit", Json::str(def.unit)),
            ];
            (def.name, Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything about the run: where and how it ran, every metric with
    /// unit, direction and sample count, and the violations in words.
    pub fn detailed(&self, defs: &[MetricDef]) -> Json {
        let w = self.workload;
        let metrics = defs.iter().map(|def| {
            let m = self.metrics[def.name];
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better.label())),
            ];
            if let Some(samples) = m.samples {
                fields.push(("samples", Json::Num(samples as f64)));
            }
            if def.bound > 0.0 {
                fields.push(("bound", Json::Num(def.bound)));
            }
            (def.name, Json::obj(fields))
        });
        let config = Json::obj([
            ("n", Json::Num(3.0)),
            ("e", Json::Num(1.0)),
            ("f", Json::Num(1.0)),
            ("backend", Json::str(w.backend.label())),
            ("wall_delta_ms", Json::Num(WALL_DELTA.as_secs_f64() * 1e3)),
            ("link_delay_ms", Json::Num(w.link_delay.as_secs_f64() * 1e3)),
            ("batch", Json::Num(w.batch as f64)),
            ("depth", Json::Num(w.depth as f64)),
            ("shards", Json::Num(w.shards as f64)),
            ("clients", Json::Num(w.clients as f64)),
            ("placement", Json::str(format!("{:?}", w.placement))),
            (
                "crash",
                w.crash.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("commit_timeout_s", Json::Num(COMMIT_TIMEOUT.as_secs_f64())),
            ("keyspace", Json::Num(KEYSPACE as f64)),
            ("window_s", Json::Num(self.seconds)),
        ]);
        let mut fields = vec![
            ("workload", Json::str(w.name)),
            ("why", Json::str(w.why)),
            ("in_benchmark_json", Json::Bool(w.gated)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("host", host_stamp()),
            ("config", config),
            ("correct", Json::Bool(self.correct())),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ];
        fields.extend(self.detail.iter().cloned());
        Json::obj(fields)
    }
}

/// Where the numbers were taken: they mean little without it.
fn host_stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(kernel)),
        (
            "git_rev",
            Json::str(git_rev().unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

/// The checked-out commit, read from `.git` in the working directory
/// without spawning `git`; `None` outside a repository (the driver's
/// checkout is not one).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)
            .map(|rev| rev.trim().to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, WORKLOADS};

    fn full_report() -> Report {
        let mut r = Report::new(&WORKLOADS[0], 7, false, 8.0);
        r.set_sampled("commit_p50_ms", 20.2034, 400);
        r.set_sampled("commit_p95_ms", 20.5, 400);
        r.set("throughput_cmds_s", 49.625);
        r.set_sampled("setup_s", 0.0271, 5);
        r.attempted = 400;
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let r = full_report();
        r.validate(&END_TO_END).unwrap();
        let line = Json::parse(&r.result_line(&END_TO_END).render()).unwrap();
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted"), Some(&Json::Num(400.0)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name));
        let p50 = line.get("metrics").unwrap().get("commit_p50_ms").unwrap();
        assert_eq!(
            p50.get("value"),
            Some(&Json::Num(20.2034)),
            "all digits survive"
        );
        assert_eq!(p50.get("unit"), Some(&Json::str("ms")));
        let Json::Obj(p50_fields) = p50 else { panic!() };
        assert_eq!(p50_fields.len(), 2, "value and unit only");
    }

    #[test]
    fn detailed_report_round_trips_with_samples_and_stamp() {
        let mut r = full_report();
        r.violation("replicas disagree");
        let doc = Json::parse(&r.detailed(&END_TO_END).render()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("idle_lan"));
        let p95 = doc.get("metrics").unwrap().get("commit_p95_ms").unwrap();
        assert_eq!(p95.get("samples"), Some(&Json::Num(400.0)));
        assert_eq!(p95.get("bound"), Some(&Json::Num(0.25)));
        assert!(doc.get("host").unwrap().get("nproc").is_some());
        assert_eq!(
            doc.get("config").unwrap().get("batch"),
            Some(&Json::Num(4.0))
        );
    }

    #[test]
    fn missing_unknown_and_non_finite_metrics_are_errors() {
        let mut r = full_report();
        r.metrics.remove("setup_s");
        assert!(r.validate(&END_TO_END).unwrap_err().contains("setup_s"));
        let mut r = full_report();
        r.set("made_up", 1.0);
        assert!(r.validate(&END_TO_END).unwrap_err().contains("made_up"));
        let mut r = full_report();
        r.set("throughput_cmds_s", f64::NAN);
        assert!(r.validate(&END_TO_END).unwrap_err().contains("not finite"));
    }
}
