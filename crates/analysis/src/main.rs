//! CI gate binary for the static-analysis suite: the `bounds`, `api`
//! and `model-check` gates, or `all` three. `USAGE` below is the one
//! list of its options (`--help` prints it).
//!
//! Exit codes: 0 clean, 1 violations, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use twostep_analysis::api;
use twostep_analysis::bounds::{self, Family, Fixture, SweepOutcome};
use twostep_analysis::model_check_gate;

/// The `--help` text. Its `--fixture` names are `Fixture::ALL`'s; CI
/// asserts that each seeded-broken run exits 1.
const USAGE: &str = "\
usage: twostep-analysis <bounds|api|model-check|all> [options]
  --bless             api: regenerate docs/public-api.txt instead of
                      diffing against it
  --max-n N           bound-sweep cap (default 25)
  --fixture NAME      check a seeded-broken model instead of the real
                      arithmetic: broken-fast-quorum |
                      broken-recovery-threshold | byz-crash-sized-fast-quorum
  --witnesses PATH    write sweep outcome JSON (crash + byzantine) to PATH
  --json              print sweep outcome JSON to stdout
  --root PATH         workspace root for api (default: current dir)
  --workers N         model-check worker threads (default 4)
  --report PATH       write the model-check sweep report to PATH
  --seeded-broken     model-check only the seeded-broken fixture
                      (CI asserts this exits nonzero)";

struct Options {
    run_bounds: bool,
    run_api: bool,
    bless: bool,
    run_model_check: bool,
    max_n: usize,
    fixture: Option<Fixture>,
    witnesses: Option<PathBuf>,
    json: bool,
    root: PathBuf,
    workers: usize,
    report: Option<PathBuf>,
    seeded_broken: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        run_bounds: false,
        run_api: false,
        bless: false,
        run_model_check: false,
        max_n: bounds::DEFAULT_MAX_N,
        fixture: None,
        witnesses: None,
        json: false,
        root: PathBuf::from("."),
        workers: 4,
        report: None,
        seeded_broken: false,
    };
    let mut it = args.iter();
    let mut saw_mode = false;
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "bounds" => {
                opts.run_bounds = true;
                saw_mode = true;
            }
            "api" => {
                opts.run_api = true;
                saw_mode = true;
            }
            "model-check" => {
                opts.run_model_check = true;
                saw_mode = true;
            }
            "all" => {
                opts.run_bounds = true;
                opts.run_api = true;
                opts.run_model_check = true;
                saw_mode = true;
            }
            "--bless" => opts.bless = true,
            "--max-n" => {
                let v = value_for("--max-n")?;
                opts.max_n = v
                    .parse()
                    .map_err(|_| format!("--max-n: not a number: {v}"))?;
            }
            "--fixture" => {
                let v = value_for("--fixture")?;
                let fixture = Fixture::parse(&v).ok_or_else(|| format!("unknown fixture {v:?}"))?;
                opts.fixture = Some(fixture);
            }
            "--workers" => {
                let v = value_for("--workers")?;
                opts.workers = v
                    .parse()
                    .map_err(|_| format!("--workers: not a number: {v}"))?;
            }
            "--report" => opts.report = Some(PathBuf::from(value_for("--report")?)),
            "--seeded-broken" => opts.seeded_broken = true,
            "--witnesses" => opts.witnesses = Some(PathBuf::from(value_for("--witnesses")?)),
            "--json" => opts.json = true,
            "--root" => opts.root = PathBuf::from(value_for("--root")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !saw_mode {
        return Err("no mode given".into());
    }
    Ok(opts)
}

/// One analysis: `Ok(clean)`, or a usage error.
type Analysis = fn(&Options) -> Result<bool, String>;

fn run_bounds(opts: &Options) -> Result<bool, String> {
    let outcomes = Family::ALL.map(|family| bounds::sweep(family, opts.max_n, opts.fixture));
    let fields: Vec<String> = outcomes
        .iter()
        .map(|o| format!("\"{}\":{}", names(o.family).0, o.to_json()))
        .collect();
    let combined = format!("{{{}}}", fields.join(","));
    if let Some(path) = &opts.witnesses {
        std::fs::write(path, &combined)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if opts.json {
        println!("{combined}");
    } else {
        outcomes.iter().for_each(print_summary);
    }
    Ok(outcomes.iter().all(SweepOutcome::is_clean))
}

/// A family's names in the report: its key in the JSON, its summary
/// line's label, and what its witnesses are executed against.
fn names(family: Family) -> (&'static str, &'static str, &'static str) {
    match family {
        Family::Crash => ("crash", "bounds", "select_value"),
        Family::Byzantine => ("byzantine", "byz-bounds", "FastBft"),
    }
}

/// One family's lines of the text report.
fn print_summary(outcome: &SweepOutcome) {
    let (_, label, executor) = names(outcome.family);
    println!(
        "{}: model `{}`, {} configs checked up to n = {}, {} violations, {} tightness witnesses",
        label,
        outcome.model,
        outcome.configs_checked,
        outcome.max_n,
        outcome.violations.len(),
        outcome.witnesses.len()
    );
    for v in outcome.violations.iter().take(20) {
        println!("  VIOLATION {} [{}] {}", v.point, v.obligation, v.detail);
    }
    if outcome.violations.len() > 20 {
        println!("  … and {} more", outcome.violations.len() - 20);
    }
    let executed = outcome
        .witnesses
        .iter()
        .filter(|w| w.executed.is_some())
        .count();
    println!(
        "  witnesses: {} structural, {} executed against {}",
        outcome.witnesses.len() - executed,
        executed,
        executor
    );
}

fn run_api(opts: &Options) -> Result<bool, String> {
    let current = api::snapshot(&opts.root)?;
    let path = api::snapshot_path(&opts.root);
    if opts.bless {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, &current)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "api: blessed {} ({} lines)",
            path.display(),
            current.lines().count()
        );
        return Ok(true);
    }
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {} ({e}); run `twostep-analysis api --bless`",
            path.display()
        )
    })?;
    if committed == current {
        println!(
            "api: {} matches the working tree ({} lines)",
            path.display(),
            current.lines().count()
        );
        return Ok(true);
    }
    let committed_set: std::collections::BTreeSet<&str> = committed.lines().collect();
    let current_set: std::collections::BTreeSet<&str> = current.lines().collect();
    println!(
        "api: {} is out of date with the working tree:",
        path.display()
    );
    for line in committed_set.difference(&current_set).take(20) {
        println!("  - {line}");
    }
    for line in current_set.difference(&committed_set).take(20) {
        println!("  + {line}");
    }
    println!("api: regenerate deliberately with `cargo run -p twostep-analysis -- api --bless`");
    Ok(false)
}

fn run_model_check(opts: &Options) -> Result<bool, String> {
    if opts.seeded_broken {
        let (found, report) = model_check_gate::run_seeded_broken(opts.workers);
        print!("{report}");
        if let Some(path) = &opts.report {
            std::fs::write(path, &report)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        // The fixture is *supposed* to violate: finding the bug means
        // the gate goes red (CI inverts this invocation).
        return Ok(!found);
    }
    let outcome = model_check_gate::run_gate(opts.workers);
    let report = outcome.render(opts.workers);
    print!("{report}");
    if let Some(path) = &opts.report {
        std::fs::write(path, &report)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(outcome.is_clean())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("twostep-analysis: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let analyses: [(bool, Analysis); 3] = [
        (opts.run_bounds, run_bounds),
        (opts.run_api, run_api),
        (opts.run_model_check, run_model_check),
    ];
    let mut clean = true;
    for (_, run) in analyses.into_iter().filter(|(selected, _)| *selected) {
        match run(&opts) {
            Ok(ok) => clean &= ok,
            Err(msg) => {
                eprintln!("twostep-analysis: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_fixture_and_every_name_parses() {
        for fx in Fixture::ALL {
            assert!(USAGE.contains(fx.name()), "USAGE omits {}", fx.name());
            let args = ["bounds", "--fixture", fx.name()].map(String::from);
            assert_eq!(parse_args(&args).map(|o| o.fixture), Ok(Some(fx)));
        }
        let args = ["bounds", "--fixture", "no-such-fixture"].map(String::from);
        assert!(parse_args(&args).is_err());
    }
}
