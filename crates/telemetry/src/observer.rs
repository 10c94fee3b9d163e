//! The observer hook trait and the nullable handle protocols hold.

use std::fmt;
use std::sync::Arc;

use twostep_types::ProcessId;

use crate::{Path, RecoveryCase};

/// Hooks invoked at interesting protocol and engine transitions.
///
/// All methods default to no-ops so observers implement only what they
/// care about. Implementations must be internally synchronized
/// (`&self` receivers, `Send + Sync`): in the threaded runtime one
/// observer is shared by every node thread.
///
/// Latency and byte values are plain `u64`s in *engine-defined* units:
/// the simulator reports virtual-time units (1000 per Δ), the threaded
/// runtime reports wall-clock microseconds. Consumers know which
/// engine they attached to.
pub trait ProtocolObserver: fmt::Debug + Send + Sync {
    /// `process` decided via `path`.
    ///
    /// Protocols call this synchronously at the point the decision is
    /// recorded, *before* the engine drains the decision effect — so an
    /// engine's subsequent [`ProtocolObserver::decision_latency`] call
    /// for the same process can be attributed to this path.
    fn decided(&self, process: ProcessId, path: Path) {
        let _ = (process, path);
    }

    /// The engine measured `process`'s decision latency (engine units).
    fn decision_latency(&self, process: ProcessId, latency: u64) {
        let _ = (process, latency);
    }

    /// `process` opened a new slow-path ballot (phase one started).
    fn slow_path_entered(&self, process: ProcessId) {
        let _ = process;
    }

    /// Phase one at coordinator `process` completed and the recovery
    /// rule chose a value via `case`.
    fn recovery_case(&self, process: ProcessId, case: RecoveryCase) {
        let _ = (process, case);
    }

    /// The Ω service at `process` now trusts `leader`.
    fn leader_changed(&self, process: ProcessId, leader: ProcessId) {
        let _ = (process, leader);
    }

    /// `process` adopted a higher ballot.
    fn ballot_advanced(&self, process: ProcessId) {
        let _ = process;
    }

    /// The replica at `process` has `depth` commands accepted but not
    /// yet committed (queued or in flight).
    fn queue_depth(&self, process: ProcessId, depth: usize) {
        let _ = (process, depth);
    }

    /// The proxy at `process` proposed a batch of `size` commands in a
    /// fresh slot. `by_pump` tells what released it: `true` if the
    /// commands sat in the queue until the periodic pump tick, `false`
    /// if the event that filled the queue (a submission, or a commit
    /// freeing the pipeline) proposed it in the same step.
    fn batch_proposed(&self, process: ProcessId, size: usize, by_pump: bool) {
        let _ = (process, size, by_pump);
    }

    /// The replica at `process` applied a committed batch of `size`
    /// commands (one consensus slot carried `size` client commands).
    fn batch_committed(&self, process: ProcessId, size: usize) {
        let _ = (process, size);
    }

    /// A client observed one command complete end to end through the
    /// proxy at `process` after `latency` engine units. With batching,
    /// this is the per-command *amortized* latency: each command in a
    /// batch reports its own wait, so the histogram reflects what
    /// clients experience rather than per-slot consensus cost.
    fn amortized_latency(&self, process: ProcessId, latency: u64) {
        let _ = (process, latency);
    }

    /// `process` put a `kind` message of `bytes` encoded bytes on the
    /// wire.
    fn bytes_sent(&self, process: ProcessId, kind: &str, bytes: usize) {
        let _ = (process, kind, bytes);
    }

    /// The transport at `from` gave up on a message to `to`.
    fn message_dropped(&self, from: ProcessId, to: ProcessId) {
        let _ = (from, to);
    }

    /// The Byzantine fault-injection layer at `process` perturbed its
    /// outgoing traffic: `behavior` names the injected behavior
    /// (`"equivocate"`, `"forge"`, `"lie-ballot"`, `"silence"`). Called
    /// once per actually-mutated or actually-dropped message, so the
    /// per-behavior counters measure real injections, not wrapper
    /// invocations.
    fn fault_injected(&self, process: ProcessId, behavior: &str) {
        let _ = (process, behavior);
    }

    /// The transport at `process` re-established a broken connection.
    fn reconnected(&self, process: ProcessId) {
        let _ = process;
    }
}

/// A cheap, clonable, nullable handle to a [`ProtocolObserver`].
///
/// Protocol structs store one of these instead of a generic parameter:
/// the detached handle ([`ObserverHandle::none`], also the `Default`)
/// forwards nothing — every hook is an inlined branch on `None` — so
/// the fuzzer, the model checker and the proof-adjacent tests pay
/// nothing for the instrumentation.
///
/// The `Debug` rendering is deliberately constant per attachment state
/// (`none`/`attached`, never the observer's interior): protocol state
/// fingerprints hash `Debug` output, and a mutating observer must not
/// perturb state-space exploration.
#[derive(Clone, Default)]
pub struct ObserverHandle(Option<Arc<dyn ProtocolObserver>>);

impl fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("ObserverHandle(attached)"),
            None => f.write_str("ObserverHandle(none)"),
        }
    }
}

impl<T: ProtocolObserver + 'static> From<Arc<T>> for ObserverHandle {
    fn from(observer: Arc<T>) -> Self {
        ObserverHandle(Some(observer))
    }
}

impl ObserverHandle {
    /// The detached handle: every hook is a no-op.
    pub const fn none() -> Self {
        ObserverHandle(None)
    }

    /// Attaches `observer`.
    pub fn new(observer: Arc<dyn ProtocolObserver>) -> Self {
        ObserverHandle(Some(observer))
    }

    /// Whether an observer is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// See [`ProtocolObserver::decided`].
    #[inline]
    pub fn decided(&self, process: ProcessId, path: Path) {
        if let Some(o) = &self.0 {
            o.decided(process, path);
        }
    }

    /// See [`ProtocolObserver::decision_latency`].
    #[inline]
    pub fn decision_latency(&self, process: ProcessId, latency: u64) {
        if let Some(o) = &self.0 {
            o.decision_latency(process, latency);
        }
    }

    /// See [`ProtocolObserver::slow_path_entered`].
    #[inline]
    pub fn slow_path_entered(&self, process: ProcessId) {
        if let Some(o) = &self.0 {
            o.slow_path_entered(process);
        }
    }

    /// See [`ProtocolObserver::recovery_case`].
    #[inline]
    pub fn recovery_case(&self, process: ProcessId, case: RecoveryCase) {
        if let Some(o) = &self.0 {
            o.recovery_case(process, case);
        }
    }

    /// See [`ProtocolObserver::leader_changed`].
    #[inline]
    pub fn leader_changed(&self, process: ProcessId, leader: ProcessId) {
        if let Some(o) = &self.0 {
            o.leader_changed(process, leader);
        }
    }

    /// See [`ProtocolObserver::ballot_advanced`].
    #[inline]
    pub fn ballot_advanced(&self, process: ProcessId) {
        if let Some(o) = &self.0 {
            o.ballot_advanced(process);
        }
    }

    /// See [`ProtocolObserver::queue_depth`].
    #[inline]
    pub fn queue_depth(&self, process: ProcessId, depth: usize) {
        if let Some(o) = &self.0 {
            o.queue_depth(process, depth);
        }
    }

    /// See [`ProtocolObserver::batch_proposed`].
    #[inline]
    pub fn batch_proposed(&self, process: ProcessId, size: usize, by_pump: bool) {
        if let Some(o) = &self.0 {
            o.batch_proposed(process, size, by_pump);
        }
    }

    /// See [`ProtocolObserver::batch_committed`].
    #[inline]
    pub fn batch_committed(&self, process: ProcessId, size: usize) {
        if let Some(o) = &self.0 {
            o.batch_committed(process, size);
        }
    }

    /// See [`ProtocolObserver::amortized_latency`].
    #[inline]
    pub fn amortized_latency(&self, process: ProcessId, latency: u64) {
        if let Some(o) = &self.0 {
            o.amortized_latency(process, latency);
        }
    }

    /// See [`ProtocolObserver::bytes_sent`].
    #[inline]
    pub fn bytes_sent(&self, process: ProcessId, kind: &str, bytes: usize) {
        if let Some(o) = &self.0 {
            o.bytes_sent(process, kind, bytes);
        }
    }

    /// See [`ProtocolObserver::message_dropped`].
    #[inline]
    pub fn message_dropped(&self, from: ProcessId, to: ProcessId) {
        if let Some(o) = &self.0 {
            o.message_dropped(from, to);
        }
    }

    /// See [`ProtocolObserver::reconnected`].
    #[inline]
    pub fn reconnected(&self, process: ProcessId) {
        if let Some(o) = &self.0 {
            o.reconnected(process);
        }
    }

    /// See [`ProtocolObserver::fault_injected`].
    #[inline]
    pub fn fault_injected(&self, process: ProcessId, behavior: &str) {
        if let Some(o) = &self.0 {
            o.fault_injected(process, behavior);
        }
    }
}

/// The wire kind of a message — the `kind` of
/// [`ProtocolObserver::bytes_sent`] and of the simulator's trace
/// events: the first word of its `Debug` rendering, i.e. the enum
/// variant name (`Vote(…)` → `"Vote"`).
///
/// Formatting stops at the first payload delimiter (`(`, `{` or space),
/// so the cost does not grow with what the message carries.
pub fn msg_kind<M: fmt::Debug>(msg: &M) -> String {
    struct FirstWord(String);

    impl fmt::Write for FirstWord {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            match s.find(['(', '{', ' ']) {
                Some(end) => {
                    self.0.push_str(&s[..end]);
                    Err(fmt::Error) // the word is complete: stop formatting
                }
                None => {
                    self.0.push_str(s);
                    Ok(())
                }
            }
        }
    }

    let mut word = FirstWord(String::new());
    // An error here is the sink cutting the rendering short, above.
    let _ = fmt::write(&mut word, format_args!("{msg:?}"));
    word.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[derive(Debug, Default)]
    struct CountingObserver {
        decisions: Counter,
    }

    impl ProtocolObserver for CountingObserver {
        fn decided(&self, _process: ProcessId, _path: Path) {
            self.decisions.inc();
        }
    }

    #[test]
    fn msg_kind_extracts_variant_names() {
        #[derive(Debug)]
        #[allow(dead_code)]
        enum M {
            Propose(u64),
            TwoB { bal: u64, val: u64 },
            Ping,
        }
        assert_eq!(msg_kind(&M::Propose(3)), "Propose");
        assert_eq!(msg_kind(&M::TwoB { bal: 1, val: 2 }), "TwoB");
        assert_eq!(msg_kind(&M::Ping), "Ping");
    }

    #[test]
    fn msg_kind_does_not_render_the_payload() {
        /// Panics if its `Debug` is ever reached.
        struct Payload;
        impl fmt::Debug for Payload {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("msg_kind formatted the payload")
            }
        }
        #[derive(Debug)]
        struct Batch(#[allow(dead_code)] Payload);
        assert_eq!(msg_kind(&Batch(Payload)), "Batch");
    }

    #[test]
    fn detached_handle_is_a_noop() {
        let h = ObserverHandle::none();
        assert!(!h.is_attached());
        // None of these may panic or do anything.
        h.decided(ProcessId::new(0), Path::Fast);
        h.decision_latency(ProcessId::new(0), 1);
        h.slow_path_entered(ProcessId::new(0));
        h.recovery_case(ProcessId::new(0), RecoveryCase::Eq);
        h.leader_changed(ProcessId::new(0), ProcessId::new(1));
        h.ballot_advanced(ProcessId::new(0));
        h.queue_depth(ProcessId::new(0), 3);
        h.batch_proposed(ProcessId::new(0), 16, false);
        h.batch_committed(ProcessId::new(0), 16);
        h.amortized_latency(ProcessId::new(0), 250);
        h.bytes_sent(ProcessId::new(0), "TwoB", 16);
        h.message_dropped(ProcessId::new(0), ProcessId::new(1));
        h.reconnected(ProcessId::new(0));
        h.fault_injected(ProcessId::new(0), "equivocate");
    }

    #[test]
    fn attached_handle_forwards() {
        let obs = Arc::new(CountingObserver::default());
        let h = ObserverHandle::from(obs.clone());
        assert!(h.is_attached());
        h.decided(ProcessId::new(0), Path::Fast);
        h.clone().decided(ProcessId::new(1), Path::Slow);
        assert_eq!(obs.decisions.get(), 2);
    }

    #[test]
    fn debug_rendering_is_constant_per_attachment_state() {
        let detached = format!("{:?}", ObserverHandle::none());
        assert_eq!(detached, "ObserverHandle(none)");
        let obs = Arc::new(CountingObserver::default());
        let h = ObserverHandle::from(obs.clone());
        let before = format!("{h:?}");
        h.decided(ProcessId::new(0), Path::Fast);
        assert_eq!(before, format!("{h:?}"), "observer state must not leak");
        assert_eq!(before, "ObserverHandle(attached)");
    }
}
