//! `--selfcheck` and `--workload all`: this binary re-run as child
//! processes, one workload each, and their reports read back.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{Better, MetricDef, END_TO_END, FAILED_SHARE_BOUND, WORKLOADS};
use crate::Cli;

/// What a child run printed: its detailed report and its result line.
pub struct ChildRun {
    pub detailed: Json,
    pub result: Json,
}

impl ChildRun {
    pub fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    fn metric(&self, name: &str) -> Result<f64, String> {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or(format!("child result has no metric `{name}`"))
    }

    fn failed_share(&self) -> Result<f64, String> {
        let field = |name| {
            self.result
                .get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("child result has no `{name}`"))
        };
        Ok(field("failed")? / field("attempted")?.max(1.0))
    }
}

/// Runs one workload in a child process and waits for it. The child's
/// stderr passes through; a child that prints no result is an error.
pub fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        line.ok_or(format!(
            "{workload}: child ({}) printed no result",
            output.status
        ))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: bad child output: {e}")))
    };
    let result = parse(lines.next())?;
    let detailed = parse(lines.next())?;
    Ok(ChildRun { detailed, result })
}

/// How much worse `candidate` is than `reference`, as a share of the
/// reference (negative when better).
fn worsening(def: &MetricDef, reference: f64, candidate: f64) -> f64 {
    match def.better {
        Better::Lower => (candidate - reference) / reference,
        Better::Higher => (reference - candidate) / reference,
    }
}

/// Whether two runs of the same code agree on `def`: neither is worse
/// than the other by more than the bound (or the absolute floor).
fn agree(def: &MetricDef, a: f64, b: f64) -> bool {
    (a - b).abs() <= def.abs_floor
        || (worsening(def, a, b) <= def.bound && worsening(def, b, a) <= def.bound)
}

/// Runs every workload twice with `--seed` and once with the next seed;
/// two sets of runs of the same code must agree within the benchmark's
/// own bounds, or the bounds gate noise. Workloads `BENCHMARK.json`
/// does not gate are run and shown, but only a correctness violation on
/// them fails the check.
pub fn run(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let verdict = |agreed: bool| match (agreed, w.gated) {
            (true, _) => "ok",
            (false, true) => "DIFFERS",
            (false, false) => "differs (not gated)",
        };
        let runs = [
            run_child(w.name, cli.seed, cli.seconds, false)?,
            run_child(w.name, cli.seed, cli.seconds, false)?,
            run_child(w.name, cli.seed + 1, cli.seconds, false)?,
        ];
        for (i, run) in runs.iter().enumerate() {
            if !run.correct() {
                println!("{}: run {i} violated the correctness gate", w.name);
                ok = false;
            }
        }
        for def in &END_TO_END {
            let values = [
                runs[0].metric(def.name)?,
                runs[1].metric(def.name)?,
                runs[2].metric(def.name)?,
            ];
            let agreed = agree(def, values[0], values[1]) && agree(def, values[0], values[2]);
            ok &= agreed || !w.gated;
            println!(
                "{:<14} {:<18} {:>12.4} {:>12.4} {:>12.4} {:<4} bound {:>4.0}%  {}",
                w.name,
                def.name,
                values[0],
                values[1],
                values[2],
                def.unit,
                def.bound * 100.0,
                verdict(agreed),
            );
        }
        let shares = [
            runs[0].failed_share()?,
            runs[1].failed_share()?,
            runs[2].failed_share()?,
        ];
        let agreed = shares
            .iter()
            .all(|s| (s - shares[0]).abs() <= FAILED_SHARE_BOUND);
        ok &= agreed || !w.gated;
        println!(
            "{:<14} {:<18} {:>12.4} {:>12.4} {:>12.4} {:<4} bound ±{FAILED_SHARE_BOUND}  {}",
            w.name,
            "failed_share",
            shares[0],
            shares[1],
            shares[2],
            "",
            verdict(agreed),
        );
        // Generator health: a client thread that spends its time outside
        // `submit_and_wait` is measuring the generator, not the system.
        let client = runs[0].detailed.get("client");
        let health = |name| {
            client
                .and_then(|c| c.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<14} generator: {} attempted, {:.2}% of client time outside submit_and_wait",
            w.name,
            health("attempted"),
            health("outside_wait_share") * 100.0,
        );
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_symmetric_and_respects_direction_and_floor() {
        let p50 = &END_TO_END[0]; // lower is better, 25 %
        assert!(agree(p50, 10.0, 12.4));
        assert!(agree(p50, 12.4, 10.0));
        assert!(!agree(p50, 10.0, 13.0));
        assert!(!agree(p50, 13.0, 10.0));
        let tput = &END_TO_END[2]; // higher is better, 25 %
        assert!(worsening(tput, 100.0, 95.0) > 0.0 && worsening(tput, 100.0, 105.0) < 0.0);
        assert!(agree(tput, 100.0, 78.0) && !agree(tput, 100.0, 70.0));
        let setup = &END_TO_END[3]; // 25 % or 0.25 s
        assert!(agree(setup, 0.03, 0.09), "below the absolute floor");
        assert!(!agree(setup, 1.0, 1.6));
    }
}
