//! The `twostep-fuzz` binary, end to end: a printed `replay:` line is
//! the whole counterexample, and no campaign passes by doing nothing.

use std::process::Command;

/// Runs the binary; returns its exit code and stdout.
fn fuzz(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_twostep-fuzz"))
        .args(args)
        .output()
        .expect("twostep-fuzz runs");
    let code = out.status.code().expect("twostep-fuzz exits");
    (code, String::from_utf8(out.stdout).expect("utf-8 output"))
}

/// The value of the first `  <key>[ (...)]: <value>` line of `stdout`.
fn field<'a>(stdout: &'a str, key: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| Some(l.trim_start().strip_prefix(key)?.split_once(": ")?.1))
        .unwrap_or_else(|| panic!("no {key:?} line in:\n{stdout}"))
}

/// Splits a printed replay command into arguments (its one quoted
/// argument is the schedule).
fn replay_args(line: &str) -> Vec<&str> {
    let line = line
        .strip_prefix("twostep-fuzz ")
        .expect("a replay command");
    let mut parts = line.split('\'');
    let (before, schedule, after) = (parts.next(), parts.next(), parts.next());
    let mut args: Vec<&str> = before.unwrap().split_whitespace().collect();
    args.push(schedule.expect("a quoted schedule"));
    args.extend(after.expect("flags after the schedule").split_whitespace());
    args
}

#[test]
fn a_sharded_failure_replays_from_its_printed_line() {
    let shards = ["--shards", "2", "--e", "2", "--f", "2"];
    let (code, stdout) = fuzz(
        &[
            &shards[..],
            &[
                "--ablate",
                "no_object_guard",
                "--seed",
                "5",
                "--iters",
                "3000",
            ],
        ]
        .concat(),
    );
    assert_eq!(code, 1, "{stdout}");
    let property = field(&stdout, "property violated");
    assert!(property.starts_with("agreement — shard "), "{property}");
    assert!(field(&stdout, "shrunk").len() < field(&stdout, "schedule").len());

    let args = replay_args(field(&stdout, "replay"));
    let (code, replayed) = fuzz(&args);
    assert_eq!(code, 1, "{replayed}");
    assert_eq!(field(&replayed, "property violated"), property);

    // The same line without its ablation is the correct protocol: clean.
    let unablated: Vec<&str> = args
        .iter()
        .copied()
        .filter(|a| !["--ablate", "no_object_guard"].contains(a))
        .collect();
    assert_eq!(fuzz(&unablated).0, 0);
    // Without the ablation the campaign itself is clean, too.
    assert_eq!(
        fuzz(&[&shards[..], &["--seed", "5", "--iters", "3000"]].concat()).0,
        0
    );
}

#[test]
fn a_byzantine_failure_replays_from_its_line() {
    // tests/corpus's lying-coordinator entry, as its replay command.
    let line = [
        "--byzantine",
        "--variant",
        "fab",
        "--e",
        "1",
        "--f",
        "1",
        "--n",
        "6",
        "--replay",
        "T:0 D:5 D:1 D:3 D:0 D:4 D:0 D:2 D:3 D:5 D:0 D:4 D:1",
        "--values",
        "353,16,714,717,30,181",
        "--leader",
        "0",
    ];
    let victims = ["--victims", "0:equivocate", "--seed", "0x6545d3b48b05c974"];
    let (code, stdout) = fuzz(&[&line[..], &victims[..]].concat());
    assert_eq!(code, 1, "{stdout}");
    assert!(
        field(&stdout, "property violated").starts_with("validity"),
        "{stdout}"
    );
    assert_eq!(
        fuzz(&line).0,
        0,
        "an honest coordinator decides its own value"
    );
}

#[test]
fn a_campaign_that_decided_nothing_fails() {
    for mode in [
        &["--protocol", "task"][..],
        &["--shards", "2"],
        &["--byzantine"],
    ] {
        let (code, stdout) = fuzz(&[mode, &["--iters", "0"]].concat());
        assert_eq!(code, 1, "{stdout}");
        assert!(
            stdout.contains("WARNING: campaign never decided"),
            "{stdout}"
        );
        assert_eq!(fuzz(&[mode, &["--iters", "5"]].concat()).0, 0);
    }
}
