//! What the runtime assumes of its channels.
//!
//! Every hand-off on the commit path — transport to node loop, node to
//! router, router to the client in `submit_and_wait`, senders to the
//! delay line — is a `crossbeam` channel, and every one of those
//! receivers *blocks*: it is woken by the send, not by a clock. These
//! tests pin the semantics that relies on, against whichever
//! `crossbeam` the workspace builds with (the vendored stand-in or the
//! real crate): a send or a disconnection ends a wait promptly, a
//! timeout never fires early, and nothing is lost, duplicated or
//! reordered when several producers and consumers share a channel.
//!
//! The sleeps below only make it likely that a receiver is already
//! parked when the interesting event happens; every assertion holds
//! whichever side wins that race.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvError, RecvTimeoutError};

/// Long enough that only a wake-up ends the wait within a test.
const FOREVER: Duration = Duration::from_secs(10);
/// Long enough for a spawned receiver to reach its park.
const SETTLE: Duration = Duration::from_millis(50);
/// "Promptly": far below `FOREVER`, far above any scheduling hiccup.
const PROMPT: Duration = Duration::from_secs(1);

#[test]
fn a_send_ends_a_parked_select_on_either_arm() {
    for arm in [1, 2] {
        let (tx1, rx1) = unbounded::<u32>();
        let (tx2, rx2) = unbounded::<u32>();
        let waiter = thread::spawn(move || {
            crossbeam::channel::select! {
                recv(rx1) -> msg => (1, msg),
                recv(rx2) -> msg => (2, msg),
                default(FOREVER) => (0, Ok(0)),
            }
        });
        thread::sleep(SETTLE);
        let sent = Instant::now();
        if arm == 1 { &tx1 } else { &tx2 }.send(7).unwrap();
        assert_eq!(waiter.join().unwrap(), (arm, Ok(7)));
        assert!(sent.elapsed() < PROMPT, "arm {arm} woke by its deadline");
    }
}

#[test]
fn dropping_the_last_sender_wakes_every_kind_of_waiter() {
    // The same disconnection, seen from `select!`, `recv` and
    // `recv_timeout`; a clone dropped earlier must not end the wait.
    let (tx, rx) = unbounded::<u32>();
    let (_other_tx, other_rx) = unbounded::<u32>();
    let selecting = {
        let rx = rx.clone();
        thread::spawn(move || {
            crossbeam::channel::select! {
                recv(other_rx) -> _msg => None,
                recv(rx) -> msg => Some(msg),
                default(FOREVER) => None,
            }
        })
    };
    let receiving = {
        let rx = rx.clone();
        thread::spawn(move || rx.recv())
    };
    let timed = thread::spawn(move || rx.recv_timeout(FOREVER));

    drop(tx.clone());
    thread::sleep(SETTLE);
    let dropped = Instant::now();
    drop(tx);
    assert_eq!(selecting.join().unwrap(), Some(Err(RecvError)));
    assert_eq!(receiving.join().unwrap(), Err(RecvError));
    assert_eq!(timed.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    assert!(dropped.elapsed() < PROMPT, "a waiter sat out its deadline");
}

#[test]
fn no_timeout_fires_early() {
    let wait = Duration::from_millis(30);
    let (_tx1, rx1) = unbounded::<u32>();
    let (_tx2, rx2) = unbounded::<u32>();

    let started = Instant::now();
    let timed_out = crossbeam::channel::select! {
        recv(rx1) -> _msg => false,
        recv(rx2) -> _msg => false,
        default(wait) => true,
    };
    assert!(timed_out, "an arm fired on an empty, connected channel");
    assert!(started.elapsed() >= wait, "default fired early");

    let started = Instant::now();
    assert_eq!(rx1.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
    assert!(started.elapsed() >= wait, "recv_timeout returned early");
}

#[test]
fn many_producers_reach_one_selecting_consumer_exactly_once_in_order() {
    const PRODUCERS: u32 = 4;
    const EACH: u32 = 10_000;
    let (tx1, rx1) = unbounded::<(u32, u32)>();
    let (tx2, rx2) = unbounded::<(u32, u32)>();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|id| {
            // Two producers per channel, so both the arms of one wait
            // and the senders of one channel race.
            let tx = if id % 2 == 0 {
                tx1.clone()
            } else {
                tx2.clone()
            };
            thread::spawn(move || {
                for seq in 0..EACH {
                    tx.send((id, seq)).unwrap();
                }
            })
        })
        .collect();

    let mut next = [0u32; PRODUCERS as usize];
    for _ in 0..PRODUCERS * EACH {
        let (id, seq) = crossbeam::channel::select! {
            recv(rx1) -> msg => msg.unwrap(),
            recv(rx2) -> msg => msg.unwrap(),
            default(FOREVER) => panic!("a sent message never arrived: got {next:?}"),
        };
        assert_eq!(seq, next[id as usize], "producer {id} out of order");
        next[id as usize] += 1;
    }
    assert_eq!(next, [EACH; PRODUCERS as usize]);
    for producer in producers {
        producer.join().unwrap();
    }
    assert!(rx1.is_empty() && rx2.is_empty(), "a message arrived twice");
}

#[test]
fn cloned_receivers_never_both_get_one_message() {
    const TOTAL: u32 = 20_000;
    let (tx, rx) = unbounded::<u32>();
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let rx = rx.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            })
        })
        .collect();
    drop(rx);
    for v in 0..TOTAL {
        tx.send(v).unwrap();
    }
    drop(tx);

    let mut all: Vec<u32> = Vec::new();
    for consumer in consumers {
        let got = consumer.join().unwrap();
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "one consumer saw reordering"
        );
        all.extend(got);
    }
    all.sort_unstable();
    assert_eq!(all, (0..TOTAL).collect::<Vec<_>>(), "lost or duplicated");
}

/// A thread that left `select!` through one arm is no longer waiting on
/// the other: a later send there must not end that thread's next park.
#[test]
fn leaving_through_one_arm_unregisters_from_the_other() {
    let (tx1, rx1) = unbounded::<u32>();
    let (tx2, rx2) = unbounded::<u32>();
    // Flags, not channels: a channel wait on the receiver's side would
    // itself park, and swallow the very unpark this test looks for.
    let first_sent = Arc::new(AtomicBool::new(false));
    let left = Arc::new(AtomicBool::new(false));
    let second_sent = Arc::new(AtomicBool::new(false));
    let spin_until = |flag: &AtomicBool| {
        while !flag.load(Ordering::SeqCst) {
            thread::yield_now();
        }
    };

    let receiver = {
        let (first_sent, left, second_sent) =
            (first_sent.clone(), left.clone(), second_sent.clone());
        thread::spawn(move || {
            let got = crossbeam::channel::select! {
                recv(rx1) -> msg => msg,
                recv(rx2) -> _msg => panic!("nothing was sent here yet"),
                default(FOREVER) => panic!("the send never arrived"),
            };
            assert_eq!(got, Ok(1));
            // The first send has returned, so its unpark has landed:
            // drop whatever token it left before the measured park.
            spin_until(&first_sent);
            thread::park_timeout(Duration::ZERO);
            left.store(true, Ordering::SeqCst);
            spin_until(&second_sent);
            let quiet = Duration::from_millis(100);
            let parked = Instant::now();
            thread::park_timeout(quiet);
            assert!(
                parked.elapsed() >= quiet,
                "a send to a channel this thread had left unparked it"
            );
            rx2.recv()
        })
    };

    thread::sleep(SETTLE);
    tx1.send(1).unwrap();
    first_sent.store(true, Ordering::SeqCst);
    spin_until(&left);
    tx2.send(2).unwrap();
    second_sent.store(true, Ordering::SeqCst);
    assert_eq!(receiver.join().unwrap(), Ok(2), "the message itself stays");
}

/// What blocking buys the runtime: a cluster with nothing to do sleeps.
///
/// Counts voluntary context switches — each is the thread going to
/// sleep, so each one past the first is a wake-up — of every runtime
/// thread of an idle cluster, from `/proc/self/task/<tid>/status`. No
/// other test in this binary starts a cluster, so the threads found are
/// this one's.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_cluster_does_not_wake() {
    use serde::{Deserialize, Serialize};
    use std::collections::HashMap;
    use std::fs;
    use twostep_runtime::ClusterBuilder;
    use twostep_types::protocol::{Effects, Protocol, TimerId};
    use twostep_types::{ProcessId, SystemConfig};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Never;

    /// Arms no timer and never speaks.
    #[derive(Debug)]
    struct Quiet(ProcessId);

    impl Protocol<u64> for Quiet {
        type Message = Never;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_start(&mut self, _: &mut Effects<u64, Never>) {}
        fn on_propose(&mut self, _: u64, _: &mut Effects<u64, Never>) {}
        fn on_message(&mut self, _: ProcessId, _: Never, _: &mut Effects<u64, Never>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Never>) {}
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    /// Voluntary switches so far of each live `twostep-*` thread, by
    /// `(thread id, name)`. The kernel keeps 15 bytes of a name:
    /// `twostep-node-p0`, `twostep-delay-l` (the delay line).
    fn runtime_threads() -> HashMap<(String, String), u64> {
        let mut found = HashMap::new();
        for task in fs::read_dir("/proc/self/task").expect("procfs").flatten() {
            // A thread may exit between the listing and the read.
            let Ok(status) = fs::read_to_string(task.path().join("status")) else {
                continue;
            };
            let field = |name: &str| {
                let line = status.lines().find(|l| l.starts_with(name))?;
                Some(line[name.len()..].trim().to_string())
            };
            let (Some(comm), Some(switches)) = (field("Name:"), field("voluntary_ctxt_switches:"))
            else {
                continue;
            };
            if comm.starts_with("twostep-") {
                let tid = task.file_name().to_string_lossy().into_owned();
                found.insert((tid, comm), switches.parse().expect("a count"));
            }
        }
        found
    }

    let idle = Duration::from_millis(200);
    // A wait that polled every 200 µs wakes about 700 times in `idle`;
    // a node's 50 ms timer-less wait wakes 4 times, `recv` not at all.
    let wake_ups_allowed = 20;

    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let n = cfg.n();
    let _cluster = ClusterBuilder::new(cfg)
        .link_delay(Duration::from_millis(2))
        .build(Quiet)
        .unwrap();

    // A thread names itself once it runs: wait for all of them to.
    let spawned = Instant::now();
    let before = loop {
        let threads = runtime_threads();
        if threads.len() == n + 1 {
            break threads;
        }
        assert!(spawned.elapsed() < PROMPT, "runtime threads: {threads:?}");
        thread::yield_now();
    };
    // The nodes and the delay line, and nothing between a node's decide
    // and its clients.
    for kind in ["twostep-node-", "twostep-delay-l"] {
        assert!(
            before.keys().any(|(_, comm)| comm.starts_with(kind)),
            "no {kind} thread among {before:?}"
        );
    }
    assert!(
        !before
            .keys()
            .any(|(_, comm)| comm.starts_with("twostep-cluster")),
        "a cluster helper thread among {before:?}"
    );

    thread::sleep(idle);
    let after = runtime_threads();
    for (thread, was) in &before {
        let woke = after[thread] - was;
        assert!(
            woke < wake_ups_allowed,
            "idle, {thread:?} woke {woke} times in {idle:?}"
        );
    }
}
