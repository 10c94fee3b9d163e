//! The value trait bound used by all protocols.

use std::fmt::Debug;
use std::hash::Hash;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Requirements on proposable values.
///
/// The paper's protocols compare values (`v ≥ initial_val` at Figure 1
/// line 10, and the max-value tie-break of the recovery rule at line 58),
/// so values must be totally ordered. `⊥` is modelled as `Option::None`,
/// which Rust orders below every `Some(v)` — matching the paper's
/// convention that `⊥` is lower than any other value.
///
/// This is a blanket trait: any `Clone + Ord + Hash + Debug + Send +
/// Sync + Serialize + DeserializeOwned + 'static` type is a [`Value`],
/// including `u64`, `String`, and `Vec<u8>`. (`Sync` because a value is
/// plain data that layers above may share between threads behind an
/// `Arc` rather than copy — the SMR layer's batches do.)
///
/// # Example
///
/// ```rust
/// use twostep_types::Value;
///
/// fn assert_value<V: Value>() {}
/// assert_value::<u64>();
/// assert_value::<String>();
/// assert_value::<Vec<u8>>();
/// ```
pub trait Value:
    Clone + Ord + Eq + Hash + Debug + Send + Sync + Serialize + DeserializeOwned + 'static
{
}

impl<T> Value for T where
    T: Clone + Ord + Eq + Hash + Debug + Send + Sync + Serialize + DeserializeOwned + 'static
{
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_value<V: Value>() {}

    #[test]
    fn standard_types_are_values() {
        assert_value::<u64>();
        assert_value::<u32>();
        assert_value::<i64>();
        assert_value::<String>();
        assert_value::<Vec<u8>>();
        assert_value::<(u64, String)>();
    }

    #[test]
    fn bottom_orders_below_everything() {
        // Option<V> with None as ⊥: None < Some(v) for all v, including
        // the minimum value of the underlying type.
        assert!(None < Some(u64::MIN));
        assert!(None < Some(String::new()));
    }
}
