//! Cooperative cancellation for long-running queries.
//!
//! The serving layer (`cpq-service`) executes queries under per-request
//! deadlines; a query that blows its budget must stop promptly instead of
//! occupying a worker until it finishes naturally. The engine threads a
//! [`CancelToken`] through its main loops and polls it once per node-pair
//! visit — coarse enough to cost nothing next to a page read and decode,
//! fine enough that a cancelled query stops within one node visit.
//!
//! Cancellation is cooperative and lossless: an interrupted run returns the
//! best pairs found so far (see [`ExecCtx`](crate::ExecCtx)),
//! never a panic or a poisoned structure.

use cpq_check::sync::atomic::{AtomicBool, Ordering};
use cpq_check::sync::Arc;
use std::time::{Duration, Instant};

/// A cheaply-cloneable cancellation handle, optionally carrying a deadline.
///
/// Clones share one flag: cancelling any clone cancels them all. The
/// deadline, when present, is fixed at construction; once it passes, the
/// token latches the flag on the next poll so subsequent checks are a single
/// relaxed atomic load.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; it only cancels via [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that auto-cancels `budget` from now.
    pub fn expiring_in(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// The deadline, when one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Requests cancellation (idempotent, visible to all clones).
    pub fn cancel(&self) {
        // ordering: Release — pairs with the Acquire poll in
        // `is_cancelled`: whatever the canceller wrote before cancelling
        // (e.g. a reason recorded next to the token) is visible to the
        // query thread once it observes the flag.
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Polls the token: `true` once cancelled or past the deadline.
    ///
    /// The fast path — not cancelled, no deadline — is one atomic load.
    /// A passed deadline is latched into the flag so the `Instant::now()`
    /// call is paid at most until the first expired poll.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in `cancel`.
        // Upgraded from Relaxed: the flag is advisory today, but the
        // lifecycle-flag convention (Release store / Acquire load) costs
        // nothing on x86/aarch64 loads and keeps the token safe to use as
        // a hand-off signal.
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // ordering: Release — latch matches `cancel`'s convention.
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn token_is_send_sync() {
        assert_send_sync::<CancelToken>();
    }

    #[test]
    fn manual_cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
    }

    #[test]
    fn deadline_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "expired deadline stays cancelled");
        let far = CancelToken::expiring_in(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.deadline().is_some());
    }
}
