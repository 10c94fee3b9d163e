//! Lint fixture: code that must produce zero findings — guarded quorum
//! arithmetic, acquire/release atomics, and a `#[cfg(test)]` module that
//! uses both forbidden constructs (test code is out of scope).

use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Cfg {
    n: usize,
    f: usize,
}

impl Cfg {
    pub fn n(&self) -> usize {
        self.n
    }

    pub fn f(&self) -> usize {
        self.f
    }
}

pub fn margin(cfg: &Cfg) -> usize {
    cfg.n().saturating_sub(cfg.f())
}

pub fn publish(flag: &AtomicUsize, cfg: &Cfg) {
    flag.store(margin(cfg), Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbidden_constructs_are_fine_in_tests() {
        let cfg = Cfg { n: 5, f: 2 };
        let flag = AtomicUsize::new(cfg.n() - cfg.f());
        assert_eq!(flag.load(Ordering::Relaxed), margin(&cfg));
    }
}
