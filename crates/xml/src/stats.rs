//! Process-wide fast-path counters for the zero-copy substrate.
//!
//! The escape/unescape fast paths ([`crate::escape`]) return
//! `Cow::Borrowed` without allocating; these counters record how often
//! that happened so the wire layer (`wire::stats`) and the E5/E11
//! experiments can report allocations avoided, not just time. Counters
//! are global atomics with relaxed ordering — they are telemetry, not
//! synchronization — and tests compare snapshots with
//! [`SubstrateCounters::since`] rather than resetting, so parallel test
//! threads do not interfere.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ESCAPE_BORROWED: AtomicU64 = AtomicU64::new(0);
static ESCAPE_OWNED: AtomicU64 = AtomicU64::new(0);
static UNESCAPE_BORROWED: AtomicU64 = AtomicU64::new(0);
static UNESCAPE_OWNED: AtomicU64 = AtomicU64::new(0);

pub(crate) fn count_escape(borrowed: bool) {
    if borrowed {
        ESCAPE_BORROWED.fetch_add(1, Relaxed);
    } else {
        ESCAPE_OWNED.fetch_add(1, Relaxed);
    }
}

pub(crate) fn count_unescape(borrowed: bool) {
    if borrowed {
        UNESCAPE_BORROWED.fetch_add(1, Relaxed);
    } else {
        UNESCAPE_OWNED.fetch_add(1, Relaxed);
    }
}

/// A point-in-time copy of the substrate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstrateCounters {
    /// `escape_text`/`escape_attr` calls that borrowed (no allocation).
    pub escape_borrowed: u64,
    /// Escape calls that had to allocate.
    pub escape_owned: u64,
    /// `unescape` calls that borrowed (no allocation).
    pub unescape_borrowed: u64,
    /// Unescape calls that had to allocate.
    pub unescape_owned: u64,
}

impl SubstrateCounters {
    /// Counter deltas relative to an earlier snapshot.
    pub fn since(&self, earlier: &SubstrateCounters) -> SubstrateCounters {
        SubstrateCounters {
            escape_borrowed: self.escape_borrowed.wrapping_sub(earlier.escape_borrowed),
            escape_owned: self.escape_owned.wrapping_sub(earlier.escape_owned),
            unescape_borrowed: self
                .unescape_borrowed
                .wrapping_sub(earlier.unescape_borrowed),
            unescape_owned: self.unescape_owned.wrapping_sub(earlier.unescape_owned),
        }
    }
}

/// Fraction of `hit + miss` calls that took the borrowing fast path, in
/// `[0, 1]`. Returns 1.0 when no call ran (nothing allocated).
pub fn fast_path_rate(hit: u64, miss: u64) -> f64 {
    let total = hit + miss;
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

/// Read the current counter values.
pub fn snapshot() -> SubstrateCounters {
    SubstrateCounters {
        escape_borrowed: ESCAPE_BORROWED.load(Relaxed),
        escape_owned: ESCAPE_OWNED.load(Relaxed),
        unescape_borrowed: UNESCAPE_BORROWED.load(Relaxed),
        unescape_owned: UNESCAPE_OWNED.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = SubstrateCounters {
            escape_borrowed: 10,
            escape_owned: 2,
            unescape_borrowed: 5,
            unescape_owned: 1,
        };
        let b = SubstrateCounters {
            escape_borrowed: 4,
            escape_owned: 2,
            unescape_borrowed: 1,
            unescape_owned: 0,
        };
        let d = a.since(&b);
        assert_eq!(d.escape_borrowed, 6);
        assert_eq!(d.escape_owned, 0);
        assert!((fast_path_rate(d.escape_borrowed, d.escape_owned) - 1.0).abs() < f64::EPSILON);
    }
}
