//! Command batches: the unit of consensus in the batched SMR pipeline.

use std::sync::Arc;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// An ordered, non-empty group of client commands decided by **one**
/// consensus slot.
///
/// Batching amortizes the paper's per-instance step bounds across many
/// commands: the bounds (Theorems 5–6) govern how fast *one* value is
/// decided, and are indifferent to how much that value carries. A proxy
/// therefore accumulates commands into a `Batch` — bounded by a count
/// knob, released once the queue is as long as its recent batches and
/// by the replica's pump timer at the latest — and proposes the whole
/// batch as a single slot value. Replicas apply batch elements in
/// order, so the committed command stream is the slot-ordered
/// concatenation of batches.
///
/// The commands sit behind an [`Arc`] and are never mutated, so `clone`
/// is a reference bump however much the batch carries. One slot's value
/// is held in a dozen places at its proxy — the in-flight table, the
/// instance's `initial_val` and vote, every outgoing `Propose` and
/// `Decide`, the committed log — and all of them share the one
/// allocation made when the batch left the queue (or the one made when
/// it was decoded, at a follower). On the wire a batch is the sequence
/// of its commands and nothing else: `Serialize`/`Deserialize` delegate
/// to `Vec<C>`, so the bytes are those of the derived impl this type
/// once had.
///
/// `Batch<C>` satisfies the [`Value`](twostep_types::Value) bound
/// whenever `C` does (`Arc` forwards the order, hash and `Debug`
/// obligations to the `Vec` inside; sharing across threads is why
/// `Value` asks for `Sync`), so a batched replica runs unmodified in
/// the simulator, the model checker and the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Batch<C> {
    cmds: Arc<Vec<C>>,
}

// By hand: the vendored serde has no `Arc` impl and the real one gates
// its own behind the `rc` feature.
impl<C: Serialize> Serialize for Batch<C> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.cmds.serialize(serializer)
    }
}

impl<'de, C: Deserialize<'de>> Deserialize<'de> for Batch<C> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let cmds = Vec::deserialize(deserializer)?;
        Ok(Batch {
            cmds: Arc::new(cmds),
        })
    }
}

impl<C> Batch<C> {
    /// Wraps `cmds` (in submission order) into a batch.
    ///
    /// # Panics
    ///
    /// Panics if `cmds` is empty — an empty batch would occupy a slot
    /// without carrying a command, and the replica never proposes one.
    pub fn new(cmds: Vec<C>) -> Self {
        assert!(!cmds.is_empty(), "a batch must carry at least one command");
        Batch {
            cmds: Arc::new(cmds),
        }
    }

    /// A batch of exactly one command (the unbatched degenerate case).
    pub fn single(cmd: C) -> Self {
        Batch::new(vec![cmd])
    }

    /// Number of commands in the batch (always ≥ 1).
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Always `false`: batches are non-empty by construction. Provided
    /// for API completeness alongside [`Batch::len`].
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// The first command of the batch.
    pub fn first(&self) -> Option<&C> {
        self.cmds.first()
    }

    /// Iterates the commands in submission order.
    pub fn iter(&self) -> std::slice::Iter<'_, C> {
        self.cmds.iter()
    }

    /// Consumes the batch, returning its commands in order: moved out
    /// if this was the last holder, copied otherwise.
    pub fn into_vec(self) -> Vec<C>
    where
        C: Clone,
    {
        Arc::try_unwrap(self.cmds).unwrap_or_else(|shared| shared.to_vec())
    }
}

impl<C: Clone> IntoIterator for Batch<C> {
    type Item = C;
    type IntoIter = std::vec::IntoIter<C>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a, C> IntoIterator for &'a Batch<C> {
    type Item = &'a C;
    type IntoIter = std::slice::Iter<'a, C>;

    fn into_iter(self) -> Self::IntoIter {
        self.cmds.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_preserves_order() {
        let b = Batch::new(vec![3u64, 1, 2]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.first(), Some(&3));
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![3, 1, 2]);
        assert_eq!(b.into_vec(), vec![3, 1, 2]);
    }

    #[test]
    fn single_wraps_one_command() {
        let b = Batch::single(9u64);
        assert_eq!(b.len(), 1);
        assert_eq!(b.first(), Some(&9));
    }

    #[test]
    #[should_panic(expected = "at least one command")]
    fn empty_batch_rejected() {
        let _ = Batch::<u64>::new(vec![]);
    }

    #[test]
    fn clones_share_the_commands() {
        let b = Batch::new(vec![String::from("a"), String::from("b")]);
        let c = b.clone();
        assert!(std::ptr::eq(b.first().unwrap(), c.first().unwrap()));
        assert_eq!(b, c);
        // The last holder gets the commands themselves back.
        let at = b.first().unwrap().as_ptr();
        drop(c);
        assert_eq!(b.into_vec()[0].as_ptr(), at);
    }

    #[test]
    fn batches_are_values() {
        fn assert_value<V: twostep_types::Value>() {}
        assert_value::<Batch<u64>>();
        assert_value::<Batch<crate::KvCommand>>();
    }
}
