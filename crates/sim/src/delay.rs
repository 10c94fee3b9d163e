//! Message delay models.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use twostep_types::{Duration, ProcessId, ProcessSet, Time, DELTA};

/// What the network does with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkBehavior {
    /// Deliver after the given delay.
    Deliver(Duration),
    /// Drop the message (only meaningful before GST; links are reliable
    /// afterwards).
    Drop,
}

/// Decides the fate of each message sent through the simulated network.
///
/// Models receive the sender, receiver and send time and return a
/// [`LinkBehavior`]. Self-addressed messages go through the model like
/// any other: in the paper's round model a process's message to itself
/// arrives next round.
pub trait DelayModel: Send {
    /// The behavior of the link `from → to` for a message sent at
    /// `send_time`.
    fn delay(&mut self, from: ProcessId, to: ProcessId, send_time: Time) -> LinkBehavior;
}

/// Definition 2(3): every message sent during a round is delivered
/// precisely at the beginning of the next round.
///
/// A message sent at time `t` (round `⌊t/Δ⌋`) is delivered at
/// `(⌊t/Δ⌋ + 1)·Δ`.
///
/// # Example
///
/// ```rust
/// use twostep_sim::{DelayModel, LinkBehavior, SynchronousRounds};
/// use twostep_types::{Duration, ProcessId, Time, DELTA};
///
/// let mut m = SynchronousRounds;
/// let p = ProcessId::new(0);
/// let q = ProcessId::new(1);
/// assert_eq!(m.delay(p, q, Time::ZERO), LinkBehavior::Deliver(DELTA));
/// // Sent mid-round: still lands exactly on the next boundary.
/// let t = Time::from_units(DELTA.units() + 1);
/// assert_eq!(
///     m.delay(p, q, t),
///     LinkBehavior::Deliver(Duration::from_units(DELTA.units() - 1))
/// );
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SynchronousRounds;

impl DelayModel for SynchronousRounds {
    fn delay(&mut self, _from: ProcessId, _to: ProcessId, send_time: Time) -> LinkBehavior {
        let next_boundary = (send_time.round() + 1) * DELTA.units();
        LinkBehavior::Deliver(Duration::from_units(next_boundary - send_time.units()))
    }
}

/// Every message takes exactly the same delay.
#[derive(Debug, Clone, Copy)]
pub struct UniformDelay(pub Duration);

impl DelayModel for UniformDelay {
    fn delay(&mut self, _from: ProcessId, _to: ProcessId, _send_time: Time) -> LinkBehavior {
        LinkBehavior::Deliver(self.0)
    }
}

/// A network partition layered over an inner delay model.
///
/// During `[from, until)` (with `until = None` meaning forever),
/// messages *sent* between different groups are dropped; everything
/// else, self-addressed messages included, is delegated to the inner
/// model. Messages already in flight when the partition starts still
/// arrive. A process appearing in no group is isolated.
///
/// # Example
///
/// ```rust
/// use twostep_sim::{DelayModel, LinkBehavior, Partition, SynchronousRounds};
/// use twostep_types::{Duration, ProcessId, ProcessSet, Time};
///
/// let groups = vec![
///     [ProcessId::new(0), ProcessId::new(1)].into_iter().collect::<ProcessSet>(),
///     [ProcessId::new(2)].into_iter().collect::<ProcessSet>(),
/// ];
/// let mut m = Partition::new(SynchronousRounds, groups)
///     .active_from(Time::ZERO)
///     .heal_after(Time::ZERO + Duration::deltas(2));
/// let p0 = ProcessId::new(0);
/// let p2 = ProcessId::new(2);
/// assert_eq!(m.delay(p0, p2, Time::ZERO), LinkBehavior::Drop);
/// // After the heal the inner model takes over again.
/// assert!(matches!(
///     m.delay(p0, p2, Time::ZERO + Duration::deltas(2)),
///     LinkBehavior::Deliver(_)
/// ));
/// ```
#[derive(Debug)]
pub struct Partition<D> {
    inner: D,
    groups: Vec<ProcessSet>,
    from: Time,
    until: Option<Time>,
}

impl<D: DelayModel> Partition<D> {
    /// Partitions the network into `groups`, active from time zero and
    /// never healing until configured otherwise.
    pub fn new(inner: D, groups: Vec<ProcessSet>) -> Self {
        Partition {
            inner,
            groups,
            from: Time::ZERO,
            until: None,
        }
    }

    /// Sets when the partition starts cutting links (inclusive).
    pub fn active_from(mut self, from: Time) -> Self {
        self.from = from;
        self
    }

    /// Sets when the partition heals (exclusive: sends at `until` get
    /// through).
    pub fn heal_after(mut self, until: Time) -> Self {
        self.until = Some(until);
        self
    }

    fn cuts(&self, from: ProcessId, to: ProcessId, send_time: Time) -> bool {
        if from == to || send_time < self.from {
            return false;
        }
        if let Some(until) = self.until {
            if send_time >= until {
                return false;
            }
        }
        !self
            .groups
            .iter()
            .any(|g| g.contains(from) && g.contains(to))
    }
}

impl<D: DelayModel> DelayModel for Partition<D> {
    fn delay(&mut self, from: ProcessId, to: ProcessId, send_time: Time) -> LinkBehavior {
        if self.cuts(from, to, send_time) {
            LinkBehavior::Drop
        } else {
            self.inner.delay(from, to, send_time)
        }
    }
}

/// Per-message delay drawn uniformly from `[min, max]`, deterministic for
/// a given seed.
#[derive(Debug)]
pub struct RandomDelay {
    min: Duration,
    max: Duration,
    rng: StdRng,
}

impl RandomDelay {
    /// Creates a random-delay model with delays in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: Duration, max: Duration, seed: u64) -> Self {
        assert!(min <= max, "min delay must not exceed max delay");
        RandomDelay {
            min,
            max,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A model spanning `[Δ/5, Δ]`, a convenient "asynchronous but
    /// post-GST-bounded" default.
    pub fn sub_delta(seed: u64) -> Self {
        Self::new(Duration::from_units(DELTA.units() / 5), DELTA, seed)
    }
}

impl DelayModel for RandomDelay {
    fn delay(&mut self, _from: ProcessId, _to: ProcessId, _send_time: Time) -> LinkBehavior {
        let units = self.rng.gen_range(self.min.units()..=self.max.units());
        LinkBehavior::Deliver(Duration::from_units(units))
    }
}

/// Pre-GST chaos: drops each message with probability `drop_probability`
/// and delays survivors by up to `max_delay`.
///
/// Reliable-link note: the paper assumes reliable links, but protocol
/// messages may still be arbitrarily delayed before GST; dropping models
/// the extreme of that (equivalent to delaying past the horizon of
/// interest) and is how we stress liveness mechanisms in tests.
#[derive(Debug)]
pub struct Lossy {
    drop_probability: f64,
    max_delay: Duration,
    rng: StdRng,
}

impl Lossy {
    /// Creates a lossy model.
    ///
    /// # Panics
    ///
    /// Panics if `drop_probability` is not within `[0, 1]`.
    pub fn new(drop_probability: f64, max_delay: Duration, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability must be in [0, 1]"
        );
        Lossy {
            drop_probability,
            max_delay,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DelayModel for Lossy {
    fn delay(&mut self, _from: ProcessId, _to: ProcessId, _send_time: Time) -> LinkBehavior {
        if self.rng.gen_bool(self.drop_probability) {
            LinkBehavior::Drop
        } else {
            let units = self.rng.gen_range(1..=self.max_delay.units().max(1));
            LinkBehavior::Deliver(Duration::from_units(units))
        }
    }
}

/// Partial synchrony (Dwork–Lynch–Stockmeyer): before GST an arbitrary
/// model applies; from GST on, a well-behaved model (delays `≤ Δ`) takes
/// over.
///
/// # Example
///
/// ```rust
/// use twostep_sim::{Lossy, PartialSynchrony, SynchronousRounds};
/// use twostep_types::{Duration, Time, DELTA};
///
/// let gst = Time::ZERO + DELTA * 10;
/// let model = PartialSynchrony::new(
///     gst,
///     Lossy::new(0.5, DELTA * 4, 42),
///     SynchronousRounds,
/// );
/// # let _ = model;
/// ```
pub struct PartialSynchrony<B, A> {
    gst: Time,
    before: B,
    after: A,
}

impl<B: DelayModel, A: DelayModel> PartialSynchrony<B, A> {
    /// Creates a partially synchronous model switching at `gst`.
    pub fn new(gst: Time, before: B, after: A) -> Self {
        PartialSynchrony { gst, before, after }
    }

    /// The global stabilization time.
    pub fn gst(&self) -> Time {
        self.gst
    }
}

impl<B: DelayModel, A: DelayModel> DelayModel for PartialSynchrony<B, A> {
    fn delay(&mut self, from: ProcessId, to: ProcessId, send_time: Time) -> LinkBehavior {
        if send_time < self.gst {
            // Pre-GST messages must still eventually arrive by GST+Δ at
            // the latest to honour reliable links; we cap the behavior.
            match self.before.delay(from, to, send_time) {
                LinkBehavior::Drop => LinkBehavior::Drop,
                LinkBehavior::Deliver(d) => LinkBehavior::Deliver(d),
            }
        } else {
            self.after.delay(from, to, send_time)
        }
    }
}

/// A wide-area network modelled as a matrix of one-way latencies between
/// the regions hosting each process.
///
/// See [`crate::wan`] for realistic region presets.
#[derive(Debug, Clone)]
pub struct WanMatrix {
    /// `one_way[i][j]` = latency from process i to process j.
    one_way: Vec<Vec<Duration>>,
}

impl WanMatrix {
    /// Creates a WAN model from a full one-way latency matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn new(one_way: Vec<Vec<Duration>>) -> Self {
        let n = one_way.len();
        assert!(
            one_way.iter().all(|row| row.len() == n),
            "latency matrix must be square"
        );
        WanMatrix { one_way }
    }

    /// Number of processes covered.
    pub fn len(&self) -> usize {
        self.one_way.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.one_way.is_empty()
    }

    /// The one-way latency from `from` to `to`.
    pub fn latency(&self, from: ProcessId, to: ProcessId) -> Duration {
        self.one_way[from.index()][to.index()]
    }

    /// The largest one-way latency in the matrix — a valid `Δ` for this
    /// network.
    pub fn max_latency(&self) -> Duration {
        self.one_way
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

impl DelayModel for WanMatrix {
    fn delay(&mut self, from: ProcessId, to: ProcessId, _send_time: Time) -> LinkBehavior {
        LinkBehavior::Deliver(self.latency(from, to))
    }
}

impl DelayModel for Box<dyn DelayModel> {
    fn delay(&mut self, from: ProcessId, to: ProcessId, send_time: Time) -> LinkBehavior {
        (**self).delay(from, to, send_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn synchronous_rounds_land_on_boundaries() {
        let mut m = SynchronousRounds;
        for sent in [0u64, 1, 500, 999, 1000, 1001, 2500] {
            let t = Time::from_units(sent);
            let LinkBehavior::Deliver(d) = m.delay(p(0), p(1), t) else {
                panic!("synchronous model never drops");
            };
            let arrival = t + d;
            assert_eq!(arrival.units() % DELTA.units(), 0, "sent at {sent}");
            assert_eq!(arrival.round(), t.round() + 1, "sent at {sent}");
        }
    }

    #[test]
    fn uniform_is_constant() {
        let mut m = UniformDelay(Duration::from_units(7));
        for _ in 0..3 {
            assert_eq!(
                m.delay(p(0), p(1), Time::ZERO),
                LinkBehavior::Deliver(Duration::from_units(7))
            );
        }
    }

    #[test]
    fn random_delay_within_bounds_and_deterministic() {
        let run = |seed| {
            let mut m = RandomDelay::new(Duration::from_units(10), Duration::from_units(20), seed);
            (0..50)
                .map(|i| match m.delay(p(0), p(1), Time::from_units(i)) {
                    LinkBehavior::Deliver(d) => d.units(),
                    LinkBehavior::Drop => panic!("random model never drops"),
                })
                .collect::<Vec<_>>()
        };
        let a = run(1);
        let b = run(1);
        let c = run(2);
        assert_eq!(a, b, "same seed replays identically");
        assert_ne!(a, c, "different seeds differ");
        assert!(a.iter().all(|&d| (10..=20).contains(&d)));
    }

    #[test]
    #[should_panic(expected = "min delay")]
    fn random_delay_rejects_inverted_bounds() {
        let _ = RandomDelay::new(Duration::from_units(5), Duration::from_units(1), 0);
    }

    #[test]
    fn lossy_drops_roughly_at_rate() {
        let mut m = Lossy::new(0.5, DELTA, 7);
        let drops = (0..1000)
            .filter(|_| m.delay(p(0), p(1), Time::ZERO) == LinkBehavior::Drop)
            .count();
        assert!(
            (350..=650).contains(&drops),
            "got {drops} drops out of 1000"
        );
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn lossy_rejects_bad_probability() {
        let _ = Lossy::new(1.5, DELTA, 0);
    }

    #[test]
    fn partial_synchrony_switches_at_gst() {
        let gst = Time::ZERO + DELTA * 3;
        let mut m = PartialSynchrony::new(
            gst,
            UniformDelay(Duration::from_units(5000)),
            UniformDelay(Duration::from_units(100)),
        );
        assert_eq!(
            m.delay(p(0), p(1), Time::ZERO),
            LinkBehavior::Deliver(Duration::from_units(5000))
        );
        assert_eq!(
            m.delay(p(0), p(1), gst),
            LinkBehavior::Deliver(Duration::from_units(100))
        );
    }

    #[test]
    fn wan_matrix_lookup() {
        let d = |u| Duration::from_units(u);
        let mut m = WanMatrix::new(vec![
            vec![d(0), d(30), d(80)],
            vec![d(30), d(0), d(60)],
            vec![d(80), d(60), d(0)],
        ]);
        assert_eq!(
            m.delay(p(0), p(2), Time::ZERO),
            LinkBehavior::Deliver(d(80))
        );
        assert_eq!(m.latency(p(2), p(1)), d(60));
        assert_eq!(m.max_latency(), d(80));
        assert_eq!(m.len(), 3);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn wan_matrix_rejects_ragged() {
        let d = |u| Duration::from_units(u);
        let _ = WanMatrix::new(vec![vec![d(0), d(1)], vec![d(1)]]);
    }

    #[test]
    fn partition_model_cuts_only_cross_group_in_window() {
        let groups = vec![
            [p(0), p(1)].into_iter().collect::<ProcessSet>(),
            [p(2)].into_iter().collect::<ProcessSet>(),
        ];
        let heal = Time::ZERO + Duration::deltas(2);
        let mut m = Partition::new(UniformDelay(Duration::from_units(10)), groups)
            .active_from(Time::ZERO)
            .heal_after(heal);
        // Cross-group: dropped while the partition is up.
        assert_eq!(m.delay(p(0), p(2), Time::ZERO), LinkBehavior::Drop);
        assert_eq!(m.delay(p(2), p(1), Time::from_units(1)), LinkBehavior::Drop);
        // Same-group and self links pass through to the inner model.
        assert_eq!(
            m.delay(p(0), p(1), Time::ZERO),
            LinkBehavior::Deliver(Duration::from_units(10))
        );
        assert_eq!(
            m.delay(p(2), p(2), Time::ZERO),
            LinkBehavior::Deliver(Duration::from_units(10))
        );
        // After the heal everything passes.
        assert_eq!(
            m.delay(p(0), p(2), heal),
            LinkBehavior::Deliver(Duration::from_units(10))
        );
    }

    #[test]
    fn partition_model_isolates_unlisted_processes() {
        // p2 appears in no group: every non-self link to or from it is cut.
        let groups = vec![[p(0), p(1)].into_iter().collect::<ProcessSet>()];
        let mut m = Partition::new(UniformDelay(Duration::from_units(10)), groups);
        assert_eq!(m.delay(p(2), p(0), Time::ZERO), LinkBehavior::Drop);
        assert_eq!(m.delay(p(1), p(2), Time::ZERO), LinkBehavior::Drop);
        assert_eq!(
            m.delay(p(2), p(2), Time::ZERO),
            LinkBehavior::Deliver(Duration::from_units(10))
        );
    }
}
