//! `twostep-fuzz` — the schedule-fuzzing CLI.
//!
//! ```text
//! # 1000 random schedules of the task protocol at its (1,1) minimum:
//! twostep-fuzz --seed 42 --iters 1000 --protocol task
//!
//! # Demonstrate that the recovery tie-break is load-bearing: inject the
//! # min-instead-of-max ablation at the first configuration where it can
//! # split a recovery quorum, and shrink the counterexample:
//! twostep-fuzz --protocol task --e 2 --f 2 --ablate no_max_tiebreak
//!
//! # Replay a shrunk counterexample:
//! twostep-fuzz --protocol task --e 2 --f 2 --ablate no_max_tiebreak \
//!     --replay 'd:5>3 D:5 c:5 c:2 T:0 D:0 ...' --values 0,0,1,0,0,2 --leader 0
//! ```
//!
//! Exit codes: 0 = clean, 1 = violation found, 2 = usage error.

use std::process::ExitCode;

use twostep_byz::{ByzBehavior, ByzPlan};
use twostep_core::Ablations;
use twostep_fuzz::{
    check_liveness, check_safety, fuzz_cases, gen_case, gen_sharded, run_case, two_step_witness,
    Failure, FuzzCase, FuzzConfig, FuzzProtocol, Schedule,
};
use twostep_telemetry::{Metrics, MetricsSnapshot, ObserverHandle, Path, RecoveryCase};
use twostep_types::{ByzConfig, ByzVariant, ProcessId, SystemConfig};

const USAGE: &str = "\
twostep-fuzz: deterministic schedule fuzzer with fault injection and shrinking

USAGE:
    twostep-fuzz [OPTIONS]

OPTIONS:
    --seed <N>            root seed (default 1); every iteration derives its
                          own stream seed from it
    --iters <N>           schedules per protocol (default 1000)
    --protocol <P>        task | object | paxos | fastpaxos | epaxos | smr | all
                          (default all = the first five; smr is the
                          replicated log, judged as a log)
    --e <N>               two-step failure bound e (default 1)
    --f <N>               crash bound f (default 1)
    --n <N>               process count (default: the protocol's minimum for
                          the given e, f)
    --allow-below-bound   accept an --n under the protocol's minimal-process
                          bound (for reproducing the lower-bound scenarios);
                          by default such configurations are rejected
    --ablate <A>          inject a known bug; repeatable (task and object
                          only). One of: no_max_tiebreak |
                          no_proposer_exclusion | no_object_guard
    --no-shrink           report the raw failing schedule without minimizing
    --shrink-budget <N>   max schedule executions while shrinking (default 2000)
    --liveness            also flag live processes that never decide
                          (heuristic; termination findings are not shrunk)
    --shards <K>          fuzz K ≥ 2 object-consensus groups on shared
                          nodes: schedules crash and restart a shard-leader
                          node mid-load in every group at once; judged per
                          shard plus a cross-shard leakage check
    --byzantine           fuzz the FaB-style FastBft baseline under seeded
                          coalitions of equivocating/forging/ballot-lying/
                          silent victims (up to f, never the coordinator);
                          only honest processes' decisions are judged
    --variant <V>         fab | tight — the fast-quorum sizing for
                          --byzantine (default fab); --f is the Byzantine
                          bound, --n defaults to the variant's minimal
                          fast-live size (5f+1 or 5f−1)
    --replay <SCHEDULE>   run one explicit schedule instead of fuzzing
                          (requires a single protocol; takes --shards and
                          --byzantine like a campaign does)
    --values <CSV>        initial values for --replay (default all zero)
    --leader <N>          static leader for --replay (default 0)
    --victims <P:B,...>   the coalition for a --byzantine --replay, e.g.
                          2:forge,4:silence (behaviours: equivocate | forge
                          | lie-ballot | silence); --seed then seeds their
                          corruption streams
    -h, --help            this text
";

struct Opts {
    seed: u64,
    iters: u64,
    /// `--protocol`, if given.
    protocols: Option<Vec<FuzzProtocol>>,
    e: usize,
    f: usize,
    n: Option<usize>,
    allow_below_bound: bool,
    ablations: Ablations,
    shrink: bool,
    shrink_budget: usize,
    liveness: bool,
    shards: usize,
    byzantine: bool,
    /// `--variant`, if given.
    variant: Option<ByzVariant>,
    replay: Option<Schedule>,
    values: Option<Vec<u64>>,
    leader: u32,
    /// `--victims`, if given.
    victims: Option<Vec<(u32, ByzBehavior)>>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        iters: 1000,
        protocols: None,
        e: 1,
        f: 1,
        n: None,
        allow_below_bound: false,
        ablations: Ablations::NONE,
        shrink: true,
        shrink_budget: 2000,
        liveness: false,
        shards: 1,
        byzantine: false,
        variant: None,
        replay: None,
        values: None,
        leader: 0,
        victims: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--seed" => o.seed = parse_num(&value()?)?,
            "--iters" => o.iters = parse_num(&value()?)?,
            "--protocol" => {
                let v = value()?;
                o.protocols = Some(if v == "all" {
                    FuzzProtocol::ALL.to_vec()
                } else {
                    vec![FuzzProtocol::parse(&v).ok_or_else(|| format!("unknown protocol {v:?}"))?]
                });
            }
            "--e" => o.e = parse_num(&value()?)? as usize,
            "--f" => o.f = parse_num(&value()?)? as usize,
            "--n" => o.n = Some(parse_num(&value()?)? as usize),
            "--allow-below-bound" => o.allow_below_bound = true,
            "--ablate" => match value()?.as_str() {
                "no_max_tiebreak" => o.ablations.no_max_tiebreak = true,
                "no_proposer_exclusion" => o.ablations.no_proposer_exclusion = true,
                "no_object_guard" => o.ablations.no_object_guard = true,
                other => return Err(format!("unknown ablation {other:?}")),
            },
            "--no-shrink" => o.shrink = false,
            "--shrink-budget" => o.shrink_budget = parse_num(&value()?)? as usize,
            "--liveness" => o.liveness = true,
            "--shards" => {
                o.shards = parse_num(&value()?)? as usize;
                if !(2..=256).contains(&o.shards) {
                    return Err("--shards takes 2..=256 (1 is the flat fuzzer)".into());
                }
            }
            "--byzantine" => o.byzantine = true,
            "--variant" => {
                o.variant = Some(match value()?.as_str() {
                    "fab" => ByzVariant::Fab,
                    "tight" => ByzVariant::Tight,
                    other => return Err(format!("unknown variant {other:?} (fab | tight)")),
                });
            }
            "--replay" => {
                let v = value()?;
                o.replay = Some(
                    v.parse()
                        .map_err(|e| format!("bad --replay schedule: {e}"))?,
                );
            }
            "--values" => {
                let v = value()?;
                o.values = Some(
                    v.split(',')
                        .map(|s| s.trim().parse::<u64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("bad --values {v:?}"))?,
                );
            }
            "--leader" => o.leader = parse_num(&value()?)? as u32,
            "--victims" => {
                let v = value()?;
                let victim = |s: &str| {
                    let (p, b) = s.split_once(':')?;
                    Some((p.trim().parse().ok()?, ByzBehavior::parse(b.trim())?))
                };
                o.victims = Some(
                    v.split(',')
                        .map(victim)
                        .collect::<Option<_>>()
                        .ok_or_else(|| format!("bad --victims {v:?} (P:BEHAVIOUR,...)"))?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn parse_num(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("bad number {s:?}"))
}

/// What the flags spell: the protocols to fuzz and how many groups of
/// each. `--shards` and `--byzantine` each name their protocol; a flag
/// the spelled cases would ignore is refused here, never dropped.
fn targets(o: &Opts) -> Result<(Vec<FuzzProtocol>, usize), String> {
    let protocols = if o.byzantine {
        if o.shards > 1 {
            return Err("--shards shards an object-style protocol; --byzantine runs FastBft, whose values are fixed at start".into());
        }
        if o.protocols.is_some() {
            return Err("--byzantine names its protocol (FastBft); drop --protocol".into());
        }
        vec![FuzzProtocol::FastBft(o.variant.unwrap_or(ByzVariant::Fab))]
    } else if o.shards > 1 {
        if !matches!(o.protocols.as_deref(), None | Some([FuzzProtocol::Object])) {
            return Err("--shards runs the object protocol; drop --protocol".into());
        }
        vec![FuzzProtocol::Object]
    } else {
        o.protocols
            .clone()
            .unwrap_or_else(|| FuzzProtocol::ALL.to_vec())
    };
    if o.variant.is_some() && !o.byzantine {
        return Err("--variant sizes FastBft's quorums: it needs --byzantine".into());
    }
    if o.victims.is_some() && !(o.byzantine && o.replay.is_some()) {
        return Err("--victims describes a --byzantine --replay (a campaign draws its own)".into());
    }
    if o.ablations != Ablations::NONE {
        let unablated = |p: &&FuzzProtocol| !matches!(p, FuzzProtocol::Task | FuzzProtocol::Object);
        if let Some(p) = protocols.iter().find(unablated) {
            return Err(format!(
                "--ablate reaches task and object only; {} would run unablated",
                p.name()
            ));
        }
    }
    Ok((protocols, o.shards))
}

fn config_for(p: FuzzProtocol, o: &Opts) -> Result<SystemConfig, String> {
    let n = o.n.unwrap_or_else(|| p.min_processes(o.e, o.f));
    if let FuzzProtocol::FastBft(variant) = p {
        // `--f` is the Byzantine bound; the executor reads (n, f, f).
        ByzConfig::new(n, o.f, variant)
            .and_then(|_| SystemConfig::new(n, o.f, o.f))
            .map_err(|e| format!("bad Byzantine configuration: {e}"))
    } else if o.allow_below_bound {
        // Deliberately below-bound runs skip the protocol-family check
        // (the standing n ≥ 2f+1 / e ≤ f assumptions still apply).
        SystemConfig::new(n, o.e, o.f).map_err(|e| format!("bad configuration: {e}"))
    } else {
        SystemConfig::for_protocol(p.kind(), n, o.e, o.f)
            .map_err(|e| format!("bad configuration: {e} (see --allow-below-bound)"))
    }
}

/// The campaign the flags spell for `protocol`: every knob reaches every
/// kind of case.
fn fuzz_config(
    o: &Opts,
    protocol: FuzzProtocol,
    observer: ObserverHandle,
) -> Result<FuzzConfig, String> {
    Ok(FuzzConfig {
        ablations: o.ablations,
        shrink: o.shrink,
        shrink_budget: o.shrink_budget,
        liveness: o.liveness,
        observer,
        ..FuzzConfig::new(protocol, config_for(protocol, o)?, o.seed, o.iters)
    })
}

/// The flags that spell a case's protocol, groups, configuration and
/// ablations — shared by the campaign banner and the replay line.
fn case_flags(protocol: FuzzProtocol, groups: usize, cfg: SystemConfig, a: Ablations) -> String {
    let mut s = match protocol {
        FuzzProtocol::FastBft(ByzVariant::Fab) => "--byzantine --variant fab".to_string(),
        FuzzProtocol::FastBft(ByzVariant::Tight) => "--byzantine --variant tight".to_string(),
        p => format!("--protocol {}", p.name()),
    };
    if groups > 1 {
        s.push_str(&format!(" --shards {groups}"));
    }
    s.push_str(&format!(" --e {} --f {} --n {}", cfg.e(), cfg.f(), cfg.n()));
    for (on, name) in [
        (a.no_max_tiebreak, "no_max_tiebreak"),
        (a.no_proposer_exclusion, "no_proposer_exclusion"),
        (a.no_object_guard, "no_object_guard"),
    ] {
        if on {
            s.push_str(&format!(" --ablate {name}"));
        }
    }
    s
}

fn print_failure(fail: &Failure, liveness: bool) {
    let case = &fail.case;
    let flags = case_flags(case.protocol, case.groups, case.cfg, case.ablations);
    println!(
        "counterexample found: {flags} iteration={} stream-seed={:#x}",
        fail.iteration, fail.stream_seed,
    );
    println!(
        "  property violated: {} — {}",
        fail.verdict.property(),
        fail.verdict.detail()
    );
    println!(
        "  schedule ({} actions): {}",
        case.schedule.len(),
        case.schedule
    );
    let replayed = match &fail.shrunk {
        Some(shrunk) => {
            println!(
                "  shrunk ({} actions, {} executions): {}",
                shrunk.len(),
                fail.shrink_executions,
                shrunk
            );
            shrunk
        }
        None => &case.schedule,
    };
    // The line is the whole case: paste it to rerun exactly this.
    let values: Vec<String> = case.values.iter().map(u64::to_string).collect();
    let mut replay = format!(
        "twostep-fuzz {flags}{} --replay '{replayed}' --values {} --leader {}",
        if liveness { " --liveness" } else { "" },
        values.join(","),
        case.leader.as_u32(),
    );
    let victims: Vec<String> = case
        .victims
        .byzantine()
        .map(|(p, b)| format!("{}:{b}", p.as_u32()))
        .collect();
    if !victims.is_empty() {
        let seed = case.victims.seed();
        replay.push_str(&format!(
            " --victims {} --seed {seed:#x}",
            victims.join(",")
        ));
    }
    println!("  replay: {replay}");
}

/// The one case a `--replay` command line spells.
fn replay_case(o: &Opts) -> Result<FuzzCase, String> {
    let schedule = o.replay.clone().expect("checked by caller");
    let (protocols, groups) = targets(o)?;
    let &[protocol] = protocols.as_slice() else {
        return Err("--replay needs a single --protocol".into());
    };
    let cfg = config_for(protocol, o)?;
    let values = match &o.values {
        Some(v) if v.len() == cfg.n() => v.clone(),
        Some(v) => {
            return Err(format!(
                "--values has {} entries, need n={}",
                v.len(),
                cfg.n()
            ))
        }
        None => vec![0; cfg.n()],
    };
    if o.leader as usize >= cfg.n() {
        return Err(format!(
            "--leader {} out of range for n={}",
            o.leader,
            cfg.n()
        ));
    }
    let mut victims = ByzPlan::honest(o.seed);
    for &(p, behavior) in o.victims.iter().flatten() {
        if p as usize >= cfg.n() {
            return Err(format!("--victims names p{p}, but n={}", cfg.n()));
        }
        victims = victims.with(ProcessId::new(p), behavior);
    }
    Ok(FuzzCase {
        protocol,
        cfg,
        values,
        leader: ProcessId::new(o.leader),
        ablations: o.ablations,
        schedule,
        groups,
        victims,
    })
}

fn run_replay(o: &Opts) -> Result<bool, String> {
    let case = replay_case(o)?;
    let report = run_case(&case);
    let verdict = check_safety(case.protocol, &report).or_else(|| {
        if o.liveness {
            check_liveness(&report, report.alive)
        } else {
            None
        }
    });
    let decided: Vec<String> = report
        .decide_log
        .iter()
        .map(|(p, v)| format!("{p}:{v}"))
        .collect();
    println!(
        "replayed {} actions: decisions [{}]",
        case.schedule.len(),
        decided.join(" "),
    );
    match verdict {
        Some(v) => {
            println!("property violated: {} — {}", v.property(), v.detail());
            Ok(false)
        }
        None => {
            println!("no violation");
            Ok(true)
        }
    }
}

/// One-line telemetry summary of a campaign: how the executed schedules
/// decided (by path), how often the slow path and the recovery rule
/// fired (by case), how much ballot/leader churn the faults caused, and
/// what the victims injected (by behaviour).
fn campaign_summary(snap: &MetricsSnapshot) -> String {
    let paths: Vec<String> = Path::ALL
        .iter()
        .map(|p| snap.decided(*p).to_string())
        .collect();
    let cases: Vec<String> = RecoveryCase::ALL
        .iter()
        .map(|c| format!("{}={}", c.label(), snap.recovery(*c)))
        .collect();
    let mut summary = format!(
        "decisions f/s/gt/eq/l = {}; slow entries {}; recovery {}; ballot advances {}; leader changes {}",
        paths.join("/"),
        snap.slow_entries,
        cases.join(" "),
        snap.ballot_advances,
        snap.leader_changes,
    );
    if snap.total_injections() > 0 {
        let by_behaviour: Vec<String> = ByzBehavior::MALICIOUS
            .iter()
            .map(|b| format!("{b}={}", snap.injections(b.label())))
            .collect();
        summary.push_str(&format!("; injections {}", by_behaviour.join(" ")));
    }
    summary
}

fn run_fuzz(o: &Opts) -> Result<bool, String> {
    let (protocols, groups) = targets(o)?;
    let mut clean = true;
    for protocol in protocols {
        let (metrics, observer) = Metrics::shared();
        let fc = fuzz_config(o, protocol, observer)?;
        println!(
            "fuzzing {} seed={} iters={}",
            case_flags(protocol, groups, fc.cfg, fc.ablations),
            o.seed,
            o.iters
        );
        // Pre-flight: the timed two-step-ness witness (Paxos, FastBft and
        // the log are exempt). Ablations only weaken safety, so the
        // witness runs unablated.
        if let Err(err) = two_step_witness(protocol, fc.cfg) {
            println!("  two-step witness FAILED: {err}");
            return Ok(false);
        }
        let gen = |seed| match groups {
            1 => gen_case(fc.protocol, fc.cfg, fc.ablations, seed),
            _ => gen_sharded(groups, fc.cfg, fc.ablations, seed),
        };
        let outcome = fuzz_cases(&fc, gen, |done| {
            println!("  ... {done}/{} schedules", o.iters);
        });
        match &outcome.failure {
            None => {
                println!(
                    "  clean: {} schedules, {} judged decide events, no violation",
                    outcome.iterations_run, outcome.decisions
                );
                if outcome.decisions == 0 {
                    println!("  WARNING: campaign never decided — vacuous pass");
                    clean = false;
                }
            }
            Some(fail) => print_failure(fail, o.liveness),
        }
        println!("  telemetry: {}", campaign_summary(&metrics.snapshot()));
        if let Some(fail) = &outcome.failure {
            clean = false;
            if fail.verdict.is_safety() {
                // Safety bugs stop the campaign; a liveness finding
                // still lets the remaining protocols run.
                return Ok(false);
            }
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.replay.is_some() {
        run_replay(&opts)
    } else {
        run_fuzz(&opts)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).unwrap_or_else(|e| panic!("{args:?} must parse: {e}"))
    }

    fn campaign(o: &Opts) -> (FuzzConfig, usize) {
        let (protocols, groups) = targets(o).expect("a valid combination");
        let fc = fuzz_config(o, protocols[0], ObserverHandle::none()).unwrap();
        (fc, groups)
    }

    // Each flag below used to be dropped without a word by one of the
    // three private campaign drivers; now it reaches the case or the
    // combination is refused.

    #[test]
    fn shards_honours_ablations() {
        let o = opts(&["--shards", "4", "--ablate", "no_object_guard"]);
        let (fc, groups) = campaign(&o);
        assert_eq!(groups, 4);
        assert!(fc.ablations.no_object_guard);
    }

    #[test]
    fn byzantine_refuses_shards() {
        let err = targets(&opts(&["--byzantine", "--shards", "4"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
    }

    #[test]
    fn shards_honours_replay() {
        let case = replay_case(&opts(&["--shards", "4", "--replay", "p:0=1 D:1"])).unwrap();
        assert_eq!((case.protocol, case.groups), (FuzzProtocol::Object, 4));
    }

    #[test]
    fn liveness_and_no_shrink_reach_every_mode() {
        for mode in [
            &["--shards", "2"][..],
            &["--byzantine"],
            &["--protocol", "smr"],
        ] {
            let (fc, _) = campaign(&opts(&[mode, &["--liveness", "--no-shrink"]].concat()));
            assert!(fc.liveness && !fc.shrink, "{mode:?}");
        }
    }

    #[test]
    fn a_flag_without_its_mode_is_refused() {
        for args in [
            &["--variant", "tight"][..],
            &["--byzantine", "--victims", "1:forge"],
            &[
                "--protocol",
                "task",
                "--replay",
                "D:0",
                "--victims",
                "1:forge",
            ],
            &["--byzantine", "--protocol", "task"],
            &["--shards", "2", "--protocol", "epaxos"],
            &["--byzantine", "--ablate", "no_max_tiebreak"],
            &["--protocol", "smr", "--ablate", "no_object_guard"],
        ] {
            assert!(targets(&opts(args)).is_err(), "{args:?} must be refused");
        }
    }

    #[test]
    fn a_replayed_coalition_is_parsed_and_bounded() {
        let line = ["--byzantine", "--replay", "D:0", "--seed", "9", "--victims"];
        let case = replay_case(&opts(&[&line[..], &["2:forge, 4:lie-ballot"]].concat())).unwrap();
        let victims: Vec<_> = case.victims.byzantine().collect();
        assert_eq!(
            victims,
            [
                (ProcessId::new(2), ByzBehavior::Forge),
                (ProcessId::new(4), ByzBehavior::LieBallot)
            ]
        );
        assert_eq!(case.victims.seed(), 9);
        assert!(replay_case(&opts(&[&line[..], &["6:forge"]].concat())).is_err());
        let bad: Vec<String> = ["--victims", "2=forge"].map(String::from).to_vec();
        assert!(parse_args(&bad).is_err());
    }
}
