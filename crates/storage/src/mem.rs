//! The sort-memory ledger — the paper's `M`.
//!
//! Each reordering operation is allocated a fixed number of blocks of
//! operating memory ("unit reorder memory" in §6.1). Operators charge bytes
//! against the ledger while buffering rows and release them when rows are
//! emitted or spilled; the ledger answers "does this still fit in `M`?".

use crate::block::BLOCK_SIZE;
use wf_common::{Error, Result};

/// A byte budget expressed in blocks. Not thread-safe by design: each
/// operator owns its ledger (parallel execution gives each worker its own).
#[derive(Debug, Clone)]
pub struct MemoryLedger {
    budget: usize,
    used: usize,
}

impl MemoryLedger {
    /// A ledger with a budget of `blocks` blocks. At least one block is
    /// required — an external sort cannot make progress with zero memory.
    pub fn with_blocks(blocks: u64) -> Result<Self> {
        if blocks == 0 {
            return Err(Error::Resource(
                "sort memory must be at least one block".into(),
            ));
        }
        Ok(MemoryLedger {
            budget: blocks as usize * BLOCK_SIZE,
            used: 0,
        })
    }

    /// Budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Bytes currently charged.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// True if `bytes` more would still fit.
    pub fn fits(&self, bytes: usize) -> bool {
        self.used + bytes <= self.budget
    }

    /// Charge `bytes` unconditionally (caller decided to exceed; used when a
    /// single row is larger than the whole budget — it must still be
    /// buffered somewhere before spilling).
    pub fn charge(&mut self, bytes: usize) {
        self.used += bytes;
    }

    /// Release `bytes` previously charged.
    pub fn release(&mut self, bytes: usize) {
        debug_assert!(bytes <= self.used, "releasing more than charged");
        self.used = self.used.saturating_sub(bytes);
    }

    /// Release everything.
    pub fn release_all(&mut self) {
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_blocks_rejected() {
        assert!(MemoryLedger::with_blocks(0).is_err());
    }

    #[test]
    fn charge_release_cycle() {
        let mut m = MemoryLedger::with_blocks(1).unwrap();
        assert_eq!(m.budget_bytes(), BLOCK_SIZE);
        m.charge(BLOCK_SIZE);
        assert!(!m.fits(1));
        m.release(BLOCK_SIZE / 2);
        assert!(m.fits(BLOCK_SIZE / 2) && !m.fits(BLOCK_SIZE / 2 + 1));
        m.release_all();
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn forced_charge_can_exceed_budget() {
        let mut m = MemoryLedger::with_blocks(1).unwrap();
        m.charge(10 * BLOCK_SIZE);
        assert!(!m.fits(1));
        assert_eq!(m.used_bytes(), 10 * BLOCK_SIZE);
    }
}
