//! Command batches: the unit of consensus in the batched SMR pipeline.

use serde::{Deserialize, Serialize};

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
/// `Batch<C>` satisfies the [`Value`](twostep_types::Value) bound
/// whenever `C` does (the derives below provide the order, hash and
/// serde obligations), so a batched replica runs unmodified in the
/// simulator, the model checker and the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Batch<C> {
    cmds: Vec<C>,
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
        Batch { cmds }
    }

    /// A batch of exactly one command (the unbatched degenerate case).
    pub fn single(cmd: C) -> Self {
        Batch { cmds: vec![cmd] }
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

    /// Consumes the batch, returning its commands in order.
    pub fn into_vec(self) -> Vec<C> {
        self.cmds
    }
}

impl<C> IntoIterator for Batch<C> {
    type Item = C;
    type IntoIter = std::vec::IntoIter<C>;

    fn into_iter(self) -> Self::IntoIter {
        self.cmds.into_iter()
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
    fn batches_are_values() {
        fn assert_value<V: twostep_types::Value>() {}
        assert_value::<Batch<u64>>();
        assert_value::<Batch<crate::KvCommand>>();
    }
}
