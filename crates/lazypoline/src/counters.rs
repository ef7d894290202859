//! Engine-wide event counters (exposed via [`crate::Stats`]).
//!
//! Counters are *sharded per thread*: every thread bumps its own
//! cache-line-sized slot, and readers aggregate across slots. The
//! previous design (one global `AtomicU64` per counter) put every
//! dispatching thread's `lock xadd` on the same cache line — on the
//! fast path that contended line was charged once per syscall, which
//! is exactly the kind of overhead the paper's design works to
//! eliminate. Shards make the common case a local, uncontended RMW.
//!
//! Constraints honoured here:
//!
//! * **Async-signal-safe**: `bump` runs inside the `SIGSYS` handler
//!   and the signal wrapper. Shard storage is a static array (no
//!   allocation, ever) and the thread→shard assignment uses a
//!   const-initialized TLS cell (plain TLS read, no lazy init
//!   machinery).
//! * **Fixed memory**: 64 shards regardless of thread count; threads
//!   beyond 64 share shards round-robin, which only means some lines
//!   are contended again — never lost counts.
//! * **API shape**: `Stats` aggregates on read; totals are exact once
//!   writers quiesce (relaxed increments are still atomic per slot).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One engine event stream, identified by its slot index within a
/// shard. The statics below are the only instances.
pub(crate) struct Counter(usize);

/// Slow-path (`SIGSYS`) deliveries.
pub(crate) static SLOW_PATH_HITS: Counter = Counter(0);
/// Syscall sites rewritten to `call rax`.
pub(crate) static SITES_PATCHED: Counter = Counter(1);
/// Syscalls that reached the dispatcher (fast path + re-executed slow
/// path + emulated-unpatchable).
pub(crate) static DISPATCHES: Counter = Counter(2);
/// Syscalls emulated directly in the SIGSYS handler because the site
/// could not be patched.
pub(crate) static UNPATCHABLE_EMULATIONS: Counter = Counter(3);
/// Application signal-handler invocations routed through the wrapper.
pub(crate) static SIGNALS_WRAPPED: Counter = Counter(4);
/// Retries of a patch attempt after a transient `mprotect` failure
/// (`EAGAIN`/`ENOMEM`) in the slow path.
pub(crate) static PATCH_RETRIES: Counter = Counter(5);
/// Pages inserted into the unpatchable-page blocklist after persistent
/// patch failure.
pub(crate) static PAGES_BLOCKLISTED: Counter = Counter(6);
/// Syscalls emulated in the handler because lazy rewriting is disabled
/// (pure-SUD configuration or `Mode::SudOnly` degradation) — a config
/// state, distinct from [`UNPATCHABLE_EMULATIONS`] failures.
pub(crate) static DISABLED_MODE_EMULATIONS: Counter = Counter(7);

// Exactly 8 counters: one cache line per shard (the layout unit test
// asserts this). A 9th counter would double every shard — split a new
// event stream into a second shard array instead.
const NUM_COUNTERS: usize = 8;
const NUM_SHARDS: usize = 64;

/// One thread's slots for all the counters, padded to a cache line so
/// two threads' shards never false-share.
#[repr(align(64))]
struct Shard {
    slots: [AtomicU64; NUM_COUNTERS],
}

static SHARDS: [Shard; NUM_SHARDS] = [const {
    Shard {
        slots: [const { AtomicU64::new(0) }; NUM_COUNTERS],
    }
}; NUM_SHARDS];

/// Round-robin shard assignment for new threads.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index; `usize::MAX` = not yet assigned.
    /// Const-initialized so the first access — possibly from a signal
    /// handler — performs no lazy initialization.
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_index() -> usize {
    SHARD_IDX.with(|c| {
        let cached = c.get();
        if cached != usize::MAX {
            return cached;
        }
        // A signal interrupting between the fetch_add and the set can
        // at worst burn an extra index — assignment stays valid.
        let idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
        c.set(idx);
        idx
    })
}

/// Adds one to `counter` on the calling thread's shard.
#[inline]
pub(crate) fn bump(counter: &Counter) {
    SHARDS[shard_index()].slots[counter.0].fetch_add(1, Ordering::Relaxed);
}

/// Adds `n` to `counter` on the calling thread's shard (bulk events,
/// e.g. a static prescan reporting how many sites it rewrote).
#[inline]
pub(crate) fn add(counter: &Counter, n: u64) {
    SHARDS[shard_index()].slots[counter.0].fetch_add(n, Ordering::Relaxed);
}

/// Sums `counter` across all shards. Exact once writers quiesce;
/// during concurrent bumping it is a momentary snapshot, same as the
/// old single-atomic read.
pub(crate) fn get(counter: &Counter) -> u64 {
    SHARDS
        .iter()
        .map(|s| s.slots[counter.0].load(Ordering::Relaxed))
        .sum()
}

/// Serializes unit tests that bump the process-global counters with
/// tests that read them twice and compare.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get() {
        let _lock = test_lock();
        // Tests share the process-global counters, so assert on deltas.
        let before = get(&SIGNALS_WRAPPED);
        bump(&SIGNALS_WRAPPED);
        bump(&SIGNALS_WRAPPED);
        assert_eq!(get(&SIGNALS_WRAPPED), before + 2);
    }

    #[test]
    fn shards_aggregate_across_threads() {
        let _lock = test_lock();
        let before = get(&UNPATCHABLE_EMULATIONS);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        bump(&UNPATCHABLE_EMULATIONS);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(get(&UNPATCHABLE_EMULATIONS), before + 8 * 1000);
    }

    #[test]
    fn shard_layout_is_cache_line_sized() {
        assert_eq!(std::mem::align_of::<Shard>(), 64);
        assert_eq!(std::mem::size_of::<Shard>(), 64);
    }

    #[test]
    fn thread_shard_is_stable_within_a_thread() {
        let a = shard_index();
        let b = shard_index();
        assert_eq!(a, b);
        assert!(a < NUM_SHARDS);
    }
}
