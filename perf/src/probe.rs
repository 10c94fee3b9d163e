//! The probe pass: the benchmark is the scheduler and times its own
//! calls into each layer's public functions, on the first
//! `PROBE_COMMANDS` generated commands. No threads, no timers, no
//! sockets except in the transport probe — so the counts (messages,
//! bytes, handler calls, allocations per command) repeat exactly.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};
use serde::{Deserialize, Serialize};

use twostep_baselines::{EPaxosLite, FastPaxos, Paxos};
use twostep_core::{DecisionPath, Msg, ObjectConsensus, OmegaMode, TwoStepBuilder};
use twostep_runtime::node::spawn_node;
use twostep_runtime::{
    codec, ClusterBuilder, InMemoryTransport, NodeOptions, ReactorTransport, ShardRouter,
    TcpTransport, Transport,
};
use twostep_sim::SyncRunner;
use twostep_smr::{Batch, KvCommand, KvStore, SmrMsg, SmrReplica, SmrReplicaBuilder, StateMachine};
use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{ProcessId, SystemConfig, Time, Value};

use crate::alloc::counted;
use crate::run::system_config;
use crate::span::{SpanId, Tracer};
use crate::spec::{Backend, Workload, COMMIT_TIMEOUT};
use crate::stats;

/// Subjects (commands, decisions, round trips) whose spans are kept.
pub const TRACED_SUBJECTS: u64 = 1_000;
/// Slow-path decisions and simulator runs are costlier per item than
/// the fast path; these counts keep the whole pass to a second or two.
const SLOW_DECISIONS: usize = 2_000;
const SIMULATED_RUNS: usize = 300;
const ROUND_TRIPS: usize = 2_000;
/// Hand-off probes start each round trip from an idle node, as a lone
/// client's command finds it: a back-to-back loop would stay in phase
/// with the node loop's polling and measure the best case only.
const HAND_OFFS: usize = 1_000;
const IDLE_GAP: Duration = Duration::from_micros(300);
const BURST: usize = 10_000;
const FRAME_BYTES: usize = 256;
/// Messages per coalesced frame in the framing probe: one batch's worth.
const FRAME_GROUP: usize = 4;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// The span names one layer's handler calls are recorded under.
#[derive(Clone, Copy)]
struct HandlerNames {
    on_start: &'static str,
    on_propose: &'static str,
    on_message: &'static str,
    on_timer: &'static str,
}

const CORE: HandlerNames = HandlerNames {
    on_start: "core.on_start",
    on_propose: "core.on_propose",
    on_message: "core.on_message",
    on_timer: "core.on_timer",
};

const SMR: HandlerNames = HandlerNames {
    on_start: "smr.on_start",
    on_propose: "smr.on_propose",
    on_message: "smr.on_message",
    on_timer: "smr.on_timer",
};

/// What a lock-step schedule cost, summed over its calls.
#[derive(Debug, Default)]
struct Cost {
    propose_ns: Vec<u32>,
    message_ns: Vec<u32>,
    /// All handler calls, `on_start` and `on_timer` included.
    handler_calls: u64,
    handler_ns: u64,
    msgs: u64,
    wire_bytes: u64,
    allocs: u64,
}

enum Packet<M> {
    Plain(M),
    Wire(Vec<u8>),
}

/// Delivers messages among `procs` in global FIFO order — one legal
/// asynchronous schedule — timing every handler call. Timers are never
/// fired unless the caller fires one; with `wire` set every message
/// crosses the codec as it would between nodes.
struct LockStep<'a, V: Value, P: Protocol<V>> {
    procs: Vec<P>,
    queue: VecDeque<(ProcessId, ProcessId, Packet<P::Message>)>,
    decisions: Vec<Vec<V>>,
    names: HandlerNames,
    wire: bool,
    /// Messages the schedule loses (a legal asynchronous behaviour).
    lose: fn(&P::Message) -> bool,
    cost: &'a mut Cost,
    tracer: &'a mut Tracer,
    /// The root span and subject the current calls are recorded under.
    root: Option<SpanId>,
    subject: u64,
}

impl<'a, V: Value, P: Protocol<V>> LockStep<'a, V, P> {
    fn new(
        procs: Vec<P>,
        names: HandlerNames,
        wire: bool,
        cost: &'a mut Cost,
        tracer: &'a mut Tracer,
    ) -> Self {
        LockStep {
            decisions: procs.iter().map(|_| Vec::new()).collect(),
            procs,
            queue: VecDeque::new(),
            names,
            wire,
            lose: |_| false,
            cost,
            tracer,
            root: None,
            subject: 0,
        }
    }

    fn begin(&mut self, root_name: &'static str, subject: u64) {
        self.subject = subject;
        self.root = self.tracer.open(root_name, None, subject);
    }

    fn end(&mut self) {
        self.tracer.close(self.root.take());
    }

    fn call(
        &mut self,
        at: usize,
        name: &'static str,
        handler: impl FnOnce(&mut P, &mut Effects<V, P::Message>),
    ) {
        let span = self.tracer.open(name, self.root, self.subject);
        let mut eff = Effects::new();
        let start = Instant::now();
        let ((), allocs) = counted(|| handler(&mut self.procs[at], &mut eff));
        let ns = start.elapsed().as_nanos() as u64;
        self.tracer.close(span);
        self.cost.handler_calls += 1;
        self.cost.handler_ns += ns;
        self.cost.allocs += allocs;
        let ns32 = ns.min(u64::from(u32::MAX)) as u32;
        if name == self.names.on_propose {
            self.cost.propose_ns.push(ns32);
        } else if name == self.names.on_message {
            self.cost.message_ns.push(ns32);
        }
        self.absorb(at, eff);
    }

    /// What the node loop does with a step's effects, minus timers.
    fn absorb(&mut self, from: usize, eff: Effects<V, P::Message>) {
        self.decisions[from].extend(eff.decisions);
        for (to, msg) in eff.sends {
            if (self.lose)(&msg) {
                continue;
            }
            self.cost.msgs += 1;
            let packet = if self.wire {
                let span = self.tracer.open("codec.encode", self.root, self.subject);
                let (bytes, allocs) = counted(|| codec::to_bytes(&msg));
                self.tracer.close(span);
                let bytes = bytes.expect("protocol messages encode");
                self.cost.allocs += allocs;
                self.cost.wire_bytes += bytes.len() as u64;
                Packet::Wire(bytes)
            } else {
                Packet::Plain(msg)
            };
            self.queue.push_back((p(from), to, packet));
        }
    }

    fn start_all(&mut self) {
        for at in 0..self.procs.len() {
            self.call(at, self.names.on_start, |proc, eff| proc.on_start(eff));
        }
    }

    fn propose(&mut self, at: usize, value: V) {
        self.call(at, self.names.on_propose, |proc, eff| {
            proc.on_propose(value, eff)
        });
    }

    fn fire(&mut self, at: usize, timer: TimerId) {
        self.call(at, self.names.on_timer, |proc, eff| {
            proc.on_timer(timer, eff)
        });
    }

    /// Delivers until no message is in flight.
    fn drain(&mut self) {
        while let Some((from, to, packet)) = self.queue.pop_front() {
            let msg = match packet {
                Packet::Plain(msg) => msg,
                Packet::Wire(bytes) => {
                    let span = self.tracer.open("codec.decode", self.root, self.subject);
                    let (msg, allocs) = counted(|| codec::from_bytes::<P::Message>(&bytes));
                    self.tracer.close(span);
                    self.cost.allocs += allocs;
                    msg.expect("what the codec encoded it decodes")
                }
            };
            self.call(to.index(), self.names.on_message, |proc, eff| {
                proc.on_message(from, msg, eff)
            });
        }
    }
}

/// What the probe pass found: metric values by name, violations of the
/// lock-step correctness gate, and the spans.
pub struct ProbeOutcome {
    pub values: BTreeMap<&'static str, f64>,
    pub violations: Vec<String>,
    pub tracer: Tracer,
}

impl ProbeOutcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn p50_ns(samples: &[u32]) -> f64 {
    let as_f64: Vec<f64> = samples.iter().map(|&ns| f64::from(ns)).collect();
    stats::median(&as_f64).unwrap_or(0.0)
}

fn per(total: impl Into<f64>, count: usize) -> f64 {
    total.into() / count as f64
}

/// Runs every probe. `cmds` are the first generated commands of client
/// 0; the SMR probe uses `w`'s batch size and pipeline depth.
pub fn run(w: &Workload, cmds: &[KvCommand]) -> ProbeOutcome {
    let mut out = ProbeOutcome {
        values: BTreeMap::new(),
        violations: Vec::new(),
        tracer: Tracer::new(TRACED_SUBJECTS),
    };
    probe_codec(cmds, &mut out);
    probe_core(cmds, &mut out);
    probe_baselines(&mut out);
    probe_smr(w, cmds, &mut out);
    probe_transports(&mut out);
    probe_hand_offs(cmds, &mut out);
    out
}

type SlotMsg = SmrMsg<KvCommand>;

fn probe_codec(cmds: &[KvCommand], out: &mut ProbeOutcome) {
    let n = cmds.len();
    let msgs: Vec<SlotMsg> = cmds
        .iter()
        .enumerate()
        .map(|(slot, cmd)| SmrMsg::Slot(slot as u64, Msg::Propose(Batch::single(cmd.clone()))))
        .collect();

    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(n);
    let start = Instant::now();
    let ((), encode_allocs) = counted(|| {
        for msg in &msgs {
            encoded.push(codec::to_bytes(black_box(msg)).expect("protocol messages encode"));
        }
    });
    let encode = start.elapsed();

    let start = Instant::now();
    let (decoded_ok, decode_allocs) = counted(|| {
        encoded
            .iter()
            .zip(&msgs)
            .all(|(bytes, msg)| codec::from_bytes::<SlotMsg>(black_box(bytes)).as_ref() == Ok(msg))
    });
    let decode = start.elapsed();
    out.check(decoded_ok, || {
        "codec: a message did not decode to itself".into()
    });

    let payloads: Vec<Bytes> = encoded.iter().cloned().map(Bytes::from).collect();
    let start = Instant::now();
    let mut framed = 0;
    for group in payloads.chunks(FRAME_GROUP) {
        let frame = codec::pack_frame(black_box(group));
        match codec::frame_messages(&frame) {
            Ok(messages) => framed += messages.filter(|m| !black_box(m).is_empty()).count(),
            Err(_) => break,
        }
    }
    let frame = start.elapsed();
    out.check(framed == n, || {
        format!("codec: framed {n} messages, read back {framed}")
    });

    let start = Instant::now();
    let mut tagged_ok = true;
    for payload in &payloads {
        let tagged = codec::tag_shard(3, black_box(payload));
        tagged_ok &= codec::split_shard_ref(&tagged) == Ok((3, &payload[..]));
    }
    let tag = start.elapsed();
    out.check(tagged_ok, || "codec: a shard tag did not split back".into());

    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let v = &mut out.values;
    v.insert("codec.encode_ns_per_msg", per(encode.as_nanos() as f64, n));
    v.insert("codec.decode_ns_per_msg", per(decode.as_nanos() as f64, n));
    v.insert("codec.frame_ns_per_msg", per(frame.as_nanos() as f64, n));
    v.insert("codec.shard_tag_ns_per_msg", per(tag.as_nanos() as f64, n));
    v.insert("codec.bytes_per_propose", per(bytes as f64, n));
    v.insert(
        "codec.allocs_per_msg",
        per((encode_allocs + decode_allocs) as f64, n),
    );
}

type Value1 = Batch<KvCommand>;

fn object_instances(cfg: SystemConfig, leader: ProcessId) -> Vec<ObjectConsensus<Value1>> {
    let builder = TwoStepBuilder::new(cfg).omega(OmegaMode::Static(leader));
    (0..cfg.n()).map(|i| builder.object(p(i))).collect()
}

/// Three `ObjectConsensus` instances per decision, lock-step. Fast
/// path: the proxy p1 proposes and everything is delivered. Slow path:
/// the leader p0 proposes, the schedule loses every fast-path message,
/// and p0's ballot timer is fired by hand.
fn probe_core(cmds: &[KvCommand], out: &mut ProbeOutcome) {
    let cfg = system_config();
    let n = cfg.n();
    let leader = p(0);

    let mut fast = Cost::default();
    for (i, cmd) in cmds.iter().enumerate() {
        let value = Batch::single(cmd.clone());
        let procs = object_instances(cfg, leader);
        let mut sched = LockStep::new(procs, CORE, false, &mut fast, &mut out.tracer);
        sched.begin("core.fast_decision", i as u64);
        sched.start_all();
        sched.propose(1, value.clone());
        sched.drain();
        sched.end();
        let decided = sched
            .procs
            .iter()
            .all(|q| q.decision().as_ref() == Some(&value));
        let path = sched.procs[1].decision_path();
        if !decided || path != Some(DecisionPath::Fast) {
            out.violations.push(format!(
                "core: fast decision {i} ended {path:?}, all decided: {decided}"
            ));
            break;
        }
    }
    let decisions = cmds.len();
    let v = &mut out.values;
    v.insert("core.on_propose_ns", p50_ns(&fast.propose_ns));
    v.insert("core.on_message_ns", p50_ns(&fast.message_ns));
    v.insert("core.msgs_per_decision", per(fast.msgs as f64, decisions));
    v.insert(
        "core.handler_calls_per_decision",
        per(fast.handler_calls as f64, decisions),
    );
    v.insert(
        "core.fast_ns_per_decision",
        per(fast.handler_ns as f64, decisions),
    );

    let mut slow = Cost::default();
    let slow_cmds = &cmds[..cmds.len().min(SLOW_DECISIONS)];
    for (i, cmd) in slow_cmds.iter().enumerate() {
        let value = Batch::single(cmd.clone());
        let procs = object_instances(cfg, leader);
        let mut sched = LockStep::new(procs, CORE, false, &mut slow, &mut out.tracer);
        sched.lose = |m| m.is_fast_path();
        sched.begin("core.slow_decision", i as u64);
        sched.start_all();
        sched.propose(0, value.clone());
        sched.fire(0, TimerId::NEW_BALLOT);
        sched.drain();
        sched.end();
        let decided = (0..n).all(|q| sched.procs[q].decision().as_ref() == Some(&value));
        let path = sched.procs[0].decision_path();
        if !decided || path != Some(DecisionPath::Slow) {
            out.violations.push(format!(
                "core: slow decision {i} ended {path:?}, all decided: {decided}"
            ));
            break;
        }
    }
    out.values.insert(
        "core.slow_ns_per_decision",
        per(slow.handler_ns as f64, slow_cmds.len()),
    );
}

/// One simulated synchronous run per decision, for scale: these figures
/// include the simulator's own cost, which is why the two-step object
/// is run through the same harness beside the baselines.
fn probe_baselines(out: &mut ProbeOutcome) {
    let horizon = twostep_types::Duration::deltas(4);
    let mut time = |name: &'static str, run: &dyn Fn(u64) -> bool| {
        let start = Instant::now();
        let decided = (0..SIMULATED_RUNS as u64).all(run);
        out.values
            .insert(name, per(start.elapsed().as_nanos() as f64, SIMULATED_RUNS));
        if !decided {
            out.violations
                .push(format!("{name}: a simulated run did not decide"));
        }
    };

    let cfg = system_config();
    time("baselines.twostep_ns_per_decision", &|v| {
        SyncRunner::new(cfg)
            .horizon(horizon)
            .run_object(
                |q| ObjectConsensus::<u64>::new(cfg, q),
                vec![(p(1), v, Time::ZERO)],
            )
            .decision_of(p(1))
            == Some(&v)
    });
    let majority = SystemConfig::new(3, 1, 1).expect("2f + 1 = 3 processes");
    time("baselines.paxos_ns_per_decision", &|v| {
        SyncRunner::new(majority)
            .horizon(horizon)
            .run(|q| Paxos::new(majority, q, v + u64::from(q.as_u32())))
            .decision_of(p(0))
            .is_some()
    });
    let fp = SystemConfig::minimal_fast_paxos(1, 1).expect("e = f = 1 is valid for Fast Paxos");
    let witness = p(fp.n() - 1);
    time("baselines.fastpaxos_ns_per_decision", &|v| {
        SyncRunner::new(fp)
            .favoring(witness)
            .horizon(horizon)
            .run(|q| FastPaxos::new(fp, q, v + u64::from(q.as_u32())))
            .decision_of(witness)
            .is_some()
    });
    time("baselines.epaxos_ns_per_decision", &|v| {
        SyncRunner::new(majority)
            .horizon(horizon)
            .run_object(
                |q| EPaxosLite::<u64>::new(majority, q),
                vec![(p(0), v, Time::ZERO)],
            )
            .decision_of(p(0))
            == Some(&v)
    });
}

type Replica = SmrReplica<KvCommand, KvStore>;

/// Three `SmrReplica`s with `w`'s batching knobs, lock-step, every
/// message through the codec. The proxy p1 takes one pipeline's worth
/// of commands (`batch × depth`), the schedule runs to quiescence, and
/// so on; full batches flush on their own, so no pump tick is needed.
fn probe_smr(w: &Workload, cmds: &[KvCommand], out: &mut ProbeOutcome) {
    let cfg = system_config();
    let burst = w.batch * w.depth;
    let cmds = &cmds[..cmds.len() / burst * burst];
    let replicas: Vec<Replica> = (0..cfg.n())
        .map(|i| {
            SmrReplicaBuilder::new(cfg, p(i))
                .batch(w.batch)
                .pipeline(w.depth)
                .build()
        })
        .collect();

    let mut boot = Cost::default();
    let mut cost = Cost::default();
    let mut sched = LockStep::new(replicas, SMR, true, &mut boot, &mut out.tracer);
    sched.start_all();
    sched.drain();
    // Beacons exchanged at start-up are not per-command work.
    sched.cost = &mut cost;
    for (round, chunk) in cmds.chunks(burst).enumerate() {
        sched.begin("commit.round", (round * burst) as u64);
        for cmd in chunk {
            sched.propose(1, cmd.clone());
        }
        sched.drain();
        sched.end();
    }
    let LockStep {
        procs, decisions, ..
    } = sched;

    let mut model = KvStore::new();
    let apply_start = Instant::now();
    for cmd in cmds {
        black_box(model.apply(black_box(cmd)));
    }
    let apply = apply_start.elapsed();

    for (i, replica) in procs.iter().enumerate() {
        out.check(replica.applied() == cmds.len() as u64, || {
            format!(
                "smr: replica {i} applied {} of {}",
                replica.applied(),
                cmds.len()
            )
        });
        out.check(replica.log() == procs[0].log(), || {
            format!("smr: replica {i}'s log differs")
        });
        out.check(replica.state() == &model, || {
            format!("smr: replica {i}'s store differs from the model map")
        });
        // One proposer and FIFO delivery: the decide stream is the
        // submitted stream, each command exactly once.
        out.check(decisions[i] == cmds, || {
            format!("smr: replica {i}'s decide stream is not the submitted stream")
        });
    }

    let n = cmds.len();
    let v = &mut out.values;
    v.insert("smr.ns_per_cmd", per(cost.handler_ns as f64, n));
    v.insert("smr.msgs_per_cmd", per(cost.msgs as f64, n));
    v.insert("smr.wire_bytes_per_cmd", per(cost.wire_bytes as f64, n));
    v.insert("smr.allocs_per_cmd", per(cost.allocs as f64, n));
    v.insert("smr.apply_ns_per_cmd", per(apply.as_nanos() as f64, n));
}

/// One-way latency (p50 of `ROUND_TRIPS` single sends) and burst cost
/// (`BURST` frames through one `send_many`) from endpoint 0 to 1.
fn probe_link(
    label: &'static str,
    sender: &impl Transport,
    inbox: &Receiver<(ProcessId, Bytes)>,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let frame = Bytes::from(vec![0xAB; FRAME_BYTES]);
    let recv = || {
        inbox
            .recv_timeout(COMMIT_TIMEOUT)
            .map_err(|_| format!("transport {label}: a frame never arrived"))
    };
    // The first send dials; it is set-up, not steady state.
    sender.send(p(0), p(1), frame.clone());
    recv()?;
    let mut one_way = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS {
        let span = tracer.open(label, None, i as u64);
        let start = Instant::now();
        sender.send(p(0), p(1), frame.clone());
        recv()?;
        one_way.push(start.elapsed().as_nanos() as f64 / 1e3);
        tracer.close(span);
    }
    let start = Instant::now();
    sender.send_many(p(0), p(1), vec![frame; BURST]);
    let mut arrived = 0;
    while arrived < BURST {
        let (_, payload) = recv()?;
        arrived += codec::frame_messages(&payload)
            .map_err(|e| format!("transport {label}: bad frame: {e:?}"))?
            .count();
    }
    let burst = start.elapsed();
    Ok((
        stats::median(&one_way).expect("ROUND_TRIPS > 0"),
        per(burst.as_nanos() as f64, BURST),
    ))
}

fn probe_transports(out: &mut ProbeOutcome) {
    let none = ObserverHandle::none;
    let (transport, inboxes) = InMemoryTransport::new(2);
    let memory = probe_link("transport.memory", &transport, &inboxes[1], &mut out.tracer);
    let sockets = |out: &mut ProbeOutcome, reactor: bool| -> Result<(f64, f64), String> {
        let err = |e| format!("transport probe: socket set-up failed: {e}");
        let (l0, a0) = TcpTransport::bind_ephemeral().map_err(err)?;
        let (l1, a1) = TcpTransport::bind_ephemeral().map_err(err)?;
        let peers = vec![a0, a1];
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        if reactor {
            let t0 = ReactorTransport::spawn(p(0), peers.clone(), l0, tx0, none()).map_err(err)?;
            let _t1 = ReactorTransport::spawn(p(1), peers, l1, tx1, none()).map_err(err)?;
            probe_link("transport.reactor", &t0, &rx1, &mut out.tracer)
        } else {
            let t0 = TcpTransport::spawn(p(0), peers.clone(), l0, tx0, none());
            let _t1 = TcpTransport::spawn(p(1), peers, l1, tx1, none());
            probe_link("transport.tcp", &t0, &rx1, &mut out.tracer)
        }
    };
    let tcp = sockets(out, false);
    let reactor = sockets(out, true);
    let names = [
        (
            "transport.memory_oneway_us",
            "transport.memory_ns_per_msg",
            memory,
        ),
        ("transport.tcp_oneway_us", "transport.tcp_ns_per_msg", tcp),
        (
            "transport.reactor_oneway_us",
            "transport.reactor_ns_per_msg",
            reactor,
        ),
    ];
    for (one_way_name, burst_name, result) in names {
        match result {
            Ok((one_way, burst)) => {
                out.values.insert(one_way_name, one_way);
                out.values.insert(burst_name, burst);
            }
            Err(violation) => out.violations.push(violation),
        }
    }
}

/// Decides whatever is proposed, at once and locally: what is left of a
/// commit when the protocol costs nothing is the runtime's hand-offs.
#[derive(Debug)]
struct DecideOnPropose(ProcessId);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Never;

impl Protocol<u64> for DecideOnPropose {
    type Message = Never;
    fn id(&self) -> ProcessId {
        self.0
    }
    fn on_start(&mut self, _: &mut Effects<u64, Never>) {}
    fn on_propose(&mut self, value: u64, eff: &mut Effects<u64, Never>) {
        eff.decide(value);
    }
    fn on_message(&mut self, _: ProcessId, _: Never, _: &mut Effects<u64, Never>) {}
    fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Never>) {}
    fn decision(&self) -> Option<u64> {
        None
    }
}

fn probe_hand_offs(cmds: &[KvCommand], out: &mut ProbeOutcome) {
    // node: propose → the node thread's decide event.
    let (transport, mut inboxes) = InMemoryTransport::new(1);
    let (decisions_tx, decisions) = unbounded();
    let node = spawn_node(
        DecideOnPropose(p(0)),
        inboxes.remove(0),
        transport,
        NodeOptions::new(decisions_tx),
    );
    let mut turnaround = Vec::with_capacity(HAND_OFFS);
    for i in 0..HAND_OFFS as u64 {
        std::thread::sleep(IDLE_GAP);
        let span = out.tracer.open("node.turnaround", None, i);
        let start = Instant::now();
        node.propose(i);
        let decided = decisions.recv_timeout(COMMIT_TIMEOUT).map(|(_, _, v, _)| v);
        turnaround.push(start.elapsed().as_nanos() as f64 / 1e3);
        out.tracer.close(span);
        if decided != Ok(i) {
            out.violations
                .push(format!("node probe: proposed {i}, saw {decided:?}"));
            break;
        }
    }
    drop(node);
    out.values.insert(
        "node.turnaround_us",
        stats::median(&turnaround).unwrap_or(0.0),
    );

    // proxy: the same through a cluster — router thread, waiter
    // registry and the client's wake-up on top of the node's.
    let built = ClusterBuilder::new(system_config()).build(DecideOnPropose);
    let mut turnaround = Vec::with_capacity(HAND_OFFS);
    match built {
        Ok(cluster) => {
            let client = cluster.proxy_client(p(1));
            for i in 0..HAND_OFFS as u64 {
                std::thread::sleep(IDLE_GAP);
                let span = out.tracer.open("proxy.turnaround", None, i);
                let latency = client.submit_and_wait(i, COMMIT_TIMEOUT);
                out.tracer.close(span);
                match latency {
                    Some(latency) => turnaround.push(latency.as_nanos() as f64 / 1e3),
                    None => {
                        out.violations
                            .push(format!("proxy probe: value {i} never committed"));
                        break;
                    }
                }
            }
        }
        Err(e) => out
            .violations
            .push(format!("proxy probe: cluster build failed: {e}")),
    }
    out.values.insert(
        "proxy.turnaround_us",
        stats::median(&turnaround).unwrap_or(0.0),
    );

    let router = ShardRouter::new(4);
    let start = Instant::now();
    let mut spread = [0u64; 4];
    for cmd in cmds {
        if let KvCommand::Put { key, .. } = cmd {
            spread[router.route(black_box(key.as_bytes())) as usize] += 1;
        }
    }
    let route = start.elapsed();
    out.check(spread.iter().all(|&n| n > 0), || {
        format!("shard probe: empty shard in {spread:?}")
    });
    out.values
        .insert("shard.route_ns", per(route.as_nanos() as f64, cmds.len()));
}

/// One-way hop time on `w`'s backend beyond the injected link delay, in
/// microseconds.
pub fn one_way_us(values: &BTreeMap<&'static str, f64>, w: &Workload) -> f64 {
    let name = match w.backend {
        Backend::Memory => "transport.memory_oneway_us",
        Backend::Tcp => "transport.tcp_oneway_us",
        Backend::Reactor => "transport.reactor_oneway_us",
    };
    values.get(name).copied().unwrap_or(0.0)
}
