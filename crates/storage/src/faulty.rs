//! A fault-injecting [`SpillBackend`] wrapper for tests: every object opened
//! through it behaves like the wrapped backend's, except that the n-th read
//! request the backend serves (0-based, counted across its objects) fails or
//! comes back altered, or that every read request first sleeps a fixed
//! delay (a slow medium). Everything else — compressibility, counters,
//! deletion on drop — is the wrapped backend's own, so leak and traffic
//! assertions read the real thing. [`SplitMix`] seeds the damage.

use crate::backend::{BackendCounters, BackendFile, SpillBackend};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wf_common::{Error, Result};

/// SplitMix64, the generator `wf_datagen` uses (this crate sits below it).
pub(crate) struct SplitMix(pub(crate) u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// `len` bytes with no 4-byte repeats to speak of.
    pub(crate) fn noise(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Rewrites a block payload in place.
pub(crate) type Rewrite = Box<dyn Fn(&mut Vec<u8>) + Send + Sync>;

/// What happens to the chosen read request.
pub(crate) enum Fault {
    /// The request returns an I/O-style error.
    Fail,
    /// The request succeeds with its payload rewritten.
    Corrupt(Rewrite),
}

struct Plan {
    /// The read request to damage, and how; `None` damages none.
    fault: Option<(u64, Fault)>,
    /// Slept before every read request, outside any lock, so concurrent
    /// readers overlap their waits.
    delay: Duration,
    reads: AtomicU64,
}

pub(crate) struct FaultyBackend {
    inner: Arc<dyn SpillBackend>,
    plan: Arc<Plan>,
}

impl FaultyBackend {
    /// Wrap `inner`, applying `fault` to its `nth_read`-th read request.
    pub(crate) fn on_read(inner: Arc<dyn SpillBackend>, nth_read: u64, fault: Fault) -> Arc<Self> {
        Self::wrap(inner, Some((nth_read, fault)), Duration::ZERO)
    }

    /// Wrap `inner`, sleeping `delay` before every read request it serves.
    pub(crate) fn slow(inner: Arc<dyn SpillBackend>, delay: Duration) -> Arc<Self> {
        Self::wrap(inner, None, delay)
    }

    fn wrap(
        inner: Arc<dyn SpillBackend>,
        fault: Option<(u64, Fault)>,
        delay: Duration,
    ) -> Arc<Self> {
        Arc::new(FaultyBackend {
            inner,
            plan: Arc::new(Plan {
                fault,
                delay,
                reads: AtomicU64::new(0),
            }),
        })
    }

    /// Read requests issued so far, the faulted one included.
    pub(crate) fn reads(&self) -> u64 {
        self.plan.reads.load(Ordering::SeqCst)
    }
}

impl SpillBackend for FaultyBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compressible(&self) -> bool {
        self.inner.compressible()
    }

    fn open(&self) -> Result<Box<dyn BackendFile>> {
        Ok(Box::new(FaultyFile {
            inner: self.inner.open()?,
            plan: Arc::clone(&self.plan),
        }))
    }

    fn counters(&self) -> &Arc<BackendCounters> {
        self.inner.counters()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
}

struct FaultyFile {
    inner: Box<dyn BackendFile>,
    plan: Arc<Plan>,
}

impl BackendFile for FaultyFile {
    fn append_block(&mut self, block: &[u8]) -> Result<()> {
        self.inner.append_block(block)
    }

    fn read_block(&self, idx: u64) -> Result<Vec<u8>> {
        let request = self.plan.reads.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.plan.delay);
        let mut block = self.inner.read_block(idx)?;
        match &self.plan.fault {
            Some((nth, Fault::Fail)) if *nth == request => Err(Error::Execution(format!(
                "injected fault: read request {request} failed"
            ))),
            Some((nth, Fault::Corrupt(rewrite))) if *nth == request => {
                rewrite(&mut block);
                Ok(block)
            }
            _ => Ok(block),
        }
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn delete(&self) {
        self.inner.delete();
    }

    fn counters(&self) -> &Arc<BackendCounters> {
        self.inner.counters()
    }
}
