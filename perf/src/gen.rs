//! Seeded command generation. The program under test receives only
//! these commands; the same `--seed` gives the same stream per client.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use twostep_smr::KvCommand;

use crate::spec::KEYSPACE;

/// The working set: `KEYSPACE` 16-byte keys drawn from `seed` (64
/// random bits each, so distinct for all practical purposes).
pub fn keyspace(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_7973_7061_6365); // "keyspace"
    (0..KEYSPACE)
        .map(|_| format!("{:016x}", rng.gen::<u64>()))
        .collect()
}

/// One client's endless stream of `put(key, value)` commands: uniform
/// keys over the working set, 32-byte values embedding the client id and
/// a sequence number, so every command in a run is unique (the waiter
/// registry matches commits by value).
#[derive(Debug, Clone)]
pub struct CommandStream<'k> {
    keys: &'k [String],
    rng: StdRng,
    client: usize,
    seq: u64,
}

impl<'k> CommandStream<'k> {
    pub fn new(keys: &'k [String], seed: u64, client: usize) -> Self {
        let mix = (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        CommandStream {
            keys,
            rng: StdRng::seed_from_u64(seed ^ mix),
            client,
            seq: 0,
        }
    }
}

impl Iterator for CommandStream<'_> {
    type Item = KvCommand;

    fn next(&mut self) -> Option<KvCommand> {
        let key = &self.keys[self.rng.gen_range(0..self.keys.len())];
        let salt: u64 = self.rng.gen();
        let value = format!("c{:02}-s{:010}-{salt:016x}", self.client, self.seq);
        self.seq += 1;
        Some(KvCommand::put(key.clone(), value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, client: usize, n: usize) -> Vec<KvCommand> {
        let keys = keyspace(seed);
        CommandStream::new(&keys, seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        assert_eq!(first(7, 3, 500), first(7, 3, 500));
        assert_ne!(first(7, 3, 500), first(8, 3, 500));
        assert_ne!(first(7, 3, 500), first(7, 4, 500));
    }

    #[test]
    fn commands_have_the_stated_shape_and_are_unique() {
        let keys = keyspace(1);
        assert_eq!(keys.len(), KEYSPACE);
        let mut seen = std::collections::HashSet::new();
        for client in 0..8 {
            for cmd in CommandStream::new(&keys, 1, client).take(2000) {
                let KvCommand::Put { key, value } = &cmd else {
                    panic!("generator emits only puts")
                };
                assert_eq!(key.len(), 16);
                assert_eq!(value.len(), 32);
                assert!(keys.contains(key));
                assert!(seen.insert(cmd), "duplicate command");
            }
        }
    }
}
