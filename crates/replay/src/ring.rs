//! Lock-free per-thread SPSC flight-recorder rings.
//!
//! The recorder's hot path runs inside the interposer — potentially in
//! signal-handler context, potentially interrupting `malloc` — so it
//! must never take a lock, call into the allocator, or block. Every
//! recording thread therefore owns one single-producer/single-consumer
//! ring from a fixed pool of ring *headers*: the producer is that
//! thread alone, the consumer is the (single) drainer. Slot storage is
//! `mmap`ed directly (a raw syscall — async-signal-safe, no `malloc`)
//! the first time a ring is claimed, sized by the runtime
//! configuration ([`configure`] / [`LP_RING_CAPACITY`]).
//!
//! A full ring **drops the new event and counts the drop** rather than
//! blocking or overwriting — the flight-recorder contract is "never
//! perturb the application; account for every event either in the
//! trace or in the drop counter". On top of that policy sits
//! **adaptive growth**: a producer that observes sustained near-full
//! occupancy (or an outright drop) flags the ring, and the next time
//! the producer sees the ring *empty* — which a live drain thread
//! makes frequent — it swaps in a doubled slot array. Growth is
//! producer-side only and happens strictly at empty, which keeps the
//! SPSC publication protocol untouched (see [`SpscRing::grow_now`]).
//!
//! Threads beyond the pool size share nothing: they record nothing and
//! count their events into a pool-exhaustion drop counter, preserving
//! the `recorded + dropped == observed` invariant.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::event::EventRecord;

/// Default entries per ring — the compile-time value before PR 6, now
/// just the fallback when [`LP_RING_CAPACITY`] is unset. Power of two
/// (masked indexing); at 88 bytes per record one default ring is
/// 88 KiB, mapped only when a thread actually claims it.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Ring headers in the pool: the most threads that can record. Headers
/// are tiny (the slot arrays are mapped on claim), so the headroom is
/// cheap.
pub const HARD_MAX_RINGS: usize = 512;

/// Largest accepted/grown per-ring capacity (records). At 88 bytes per
/// record this caps one ring's slot array at 360 MiB — far beyond any
/// sane configuration, present so arithmetic cannot overflow.
pub const MAX_RING_CAPACITY: usize = 1 << 22;

/// Environment variable overriding the per-ring capacity (records;
/// must be a power of two in `[64, MAX_RING_CAPACITY]`).
pub const LP_RING_CAPACITY: &str = "LP_RING_CAPACITY";

/// Environment variable opting into producer-side cooperative
/// yielding: any non-empty value other than `0` makes a near-full push
/// `sched_yield` the producer, giving a same-core drain thread a
/// timeslice before the ring overflows. Off by default — yielding
/// perturbs the application (the flight-recorder contract), so it is
/// strictly an opt-in for single-core deployments where the PR 6 async
/// drain thread cannot run concurrently with the producer.
pub const LP_DRAIN_YIELD: &str = "LP_DRAIN_YIELD";

/// Near-full threshold: a push that leaves occupancy at or above 3/4
/// of capacity counts as backpressure and requests growth.
const NEAR_FULL_NUM: usize = 3;
const NEAR_FULL_DEN: usize = 4;

/// Ceiling adaptive growth will not double past (unless the configured
/// capacity is explicitly larger): 128k records ≈ 11 MiB per hot ring.
const GROWTH_CEILING: usize = 1 << 17;

// ——— runtime configuration ————————————————————————————————————————

/// Why a ring configuration was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingConfigError {
    /// The value parsed but is not a power of two.
    NotPowerOfTwo {
        /// Which variable/parameter was rejected.
        var: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The value is a power of two but outside the accepted range.
    OutOfRange {
        /// Which variable/parameter was rejected.
        var: &'static str,
        /// The offending value.
        value: u64,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// The value did not parse as an unsigned integer.
    NotANumber {
        /// Which variable/parameter was rejected.
        var: &'static str,
        /// The raw string.
        value: String,
    },
}

impl std::fmt::Display for RingConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingConfigError::NotPowerOfTwo { var, value } => {
                write!(f, "{var}={value} is not a power of two")
            }
            RingConfigError::OutOfRange {
                var,
                value,
                min,
                max,
            } => write!(f, "{var}={value} outside accepted range [{min}, {max}]"),
            RingConfigError::NotANumber { var, value } => {
                write!(f, "{var}={value:?} is not an unsigned integer")
            }
        }
    }
}

impl std::error::Error for RingConfigError {}

impl From<RingConfigError> for std::io::Error {
    fn from(e: RingConfigError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// Configured per-ring capacity (0 = unset, use default). Applies to
/// rings claimed *after* the store; already-claimed rings keep their
/// storage (growth still doubles them).
static CONFIG_CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Whether near-full pushes yield the producer ([`LP_DRAIN_YIELD`]).
static DRAIN_YIELD: AtomicBool = AtomicBool::new(false);
/// Times a near-full push actually yielded (process-wide; the knob is
/// global, so the counter is too).
static DRAIN_YIELDS: AtomicU64 = AtomicU64::new(0);

/// Sets the per-ring capacity programmatically. It must be a power of
/// two (validated with a typed [`RingConfigError`]); affects rings
/// claimed after the call.
pub fn configure(capacity: usize) -> Result<(), RingConfigError> {
    validate(LP_RING_CAPACITY, capacity as u64, 64, MAX_RING_CAPACITY as u64)?;
    CONFIG_CAPACITY.store(capacity, Ordering::Release);
    Ok(())
}

/// Reads [`LP_RING_CAPACITY`] and [`LP_DRAIN_YIELD`] and applies them.
/// Unset/empty variables keep the current setting; malformed values
/// are a typed error (never a silent fallback). Call this from a
/// normal (non-signal) context — session/handler setup does.
pub fn configure_from_env() -> Result<(), RingConfigError> {
    if let Some(v) = env_value(LP_RING_CAPACITY)? {
        configure(v as usize)?;
    }
    // Boolean knob: set and not "0" means on (no typed error — any
    // value is a valid intent).
    if let Ok(s) = std::env::var(LP_DRAIN_YIELD) {
        set_drain_yield(!s.is_empty() && s != "0");
    }
    Ok(())
}

/// Enables/disables producer-side yielding programmatically (the
/// [`LP_DRAIN_YIELD`] equivalent).
pub fn set_drain_yield(enabled: bool) {
    DRAIN_YIELD.store(enabled, Ordering::Relaxed);
}

/// Whether near-full pushes currently yield.
pub fn drain_yield_enabled() -> bool {
    DRAIN_YIELD.load(Ordering::Relaxed)
}

/// Times a near-full push `sched_yield`ed the producer (process-wide).
pub fn total_drain_yields() -> u64 {
    DRAIN_YIELDS.load(Ordering::Relaxed)
}

fn env_value(var: &'static str) -> Result<Option<u64>, RingConfigError> {
    match std::env::var(var) {
        Ok(s) if !s.is_empty() => s
            .parse::<u64>()
            .map(Some)
            .map_err(|_| RingConfigError::NotANumber { var, value: s }),
        _ => Ok(None),
    }
}

fn validate(var: &'static str, value: u64, min: u64, max: u64) -> Result<(), RingConfigError> {
    if !value.is_power_of_two() {
        return Err(RingConfigError::NotPowerOfTwo { var, value });
    }
    if value < min || value > max {
        return Err(RingConfigError::OutOfRange {
            var,
            value,
            min,
            max,
        });
    }
    Ok(())
}

/// The per-ring capacity new claims will use.
pub fn configured_capacity() -> usize {
    match CONFIG_CAPACITY.load(Ordering::Acquire) {
        0 => DEFAULT_RING_CAPACITY,
        n => n,
    }
}

// ——— slot storage (mmap, allocator-free) ———————————————————————————

/// Maps `capacity` record slots with anonymous memory via the raw
/// `mmap` syscall — no allocator, async-signal-safe. Null on failure.
fn map_slots(capacity: usize) -> *mut EventRecord {
    let bytes = capacity * std::mem::size_of::<EventRecord>();
    // PROT_READ|PROT_WRITE = 3, MAP_PRIVATE|MAP_ANONYMOUS = 0x22.
    // SAFETY: anonymous mapping, kernel picks the address; no memory is
    // touched on failure (negative errno return).
    let ret = unsafe {
        syscalls::raw::syscall6(
            syscalls::nr::MMAP,
            0,
            bytes as u64,
            3,
            0x22,
            u64::MAX, // fd = -1
            0,
        )
    };
    if (ret as i64) < 0 {
        std::ptr::null_mut()
    } else {
        ret as *mut EventRecord
    }
}

/// Unmaps a slot array previously produced by [`map_slots`].
fn unmap_slots(ptr: *mut EventRecord, capacity: usize) {
    let bytes = capacity * std::mem::size_of::<EventRecord>();
    // SAFETY: `ptr`/`bytes` come from a successful map_slots call and
    // the caller guarantees no outstanding reference (see grow_now).
    unsafe {
        syscalls::raw::syscall2(syscalls::nr::MUNMAP, ptr as u64, bytes as u64);
    }
}

// ——— the ring ———————————————————————————————————————————————————————

/// A single-producer single-consumer ring of [`EventRecord`]s with a
/// drop-and-count overflow policy and producer-side adaptive growth.
///
/// # Contract
///
/// `push` may be called from **one** thread at a time (the owning
/// producer); `drain` from one thread at a time (the drainer). The two
/// sides may run concurrently. The static pool upholds this by
/// assigning each ring to at most one producer thread for the process
/// lifetime and serializing drains behind the recorder session.
///
/// # Growth protocol
///
/// Only the producer ever replaces `slots`/`capacity`, and only while
/// it observes the ring **empty** (`head == tail`). The consumer reads
/// `slots`/`capacity` only after an `Acquire` load of `head` showed
/// the ring non-empty — and a non-empty ring is never swapped — so the
/// consumer always dereferences the array its records were written to.
/// All records live in one array at any instant (a swap at empty means
/// no record straddles generations), which keeps masked indexing with
/// monotonic head/tail correct across capacity changes.
pub struct SpscRing {
    /// Next write index (monotonic; slot = index & (capacity - 1)).
    head: AtomicUsize,
    /// Next read index (monotonic).
    tail: AtomicUsize,
    /// Events dropped because the ring was full (or unmappable).
    dropped: AtomicU64,
    /// Pushes that left occupancy at ≥ 3/4 capacity (backpressure).
    near_full: AtomicU64,
    /// Times the producer doubled the slot array.
    grows: AtomicU64,
    /// Producer saw pressure (near-full or a drop); grow at next empty.
    want_grow: AtomicBool,
    /// `dropped` as of the last growth decision (producer-only). Drops
    /// since then are hard evidence of undersizing: the next growth
    /// jumps straight to the ceiling instead of doubling, so a
    /// burst-heavy producer does not bleed events across several
    /// doubling rounds.
    dropped_at_last_grow: AtomicU64,
    /// Slot array; null until first push maps it.
    slots: AtomicPtr<EventRecord>,
    /// Power-of-two slot count (0 until mapped).
    capacity: AtomicUsize,
}

impl SpscRing {
    /// An empty, unmapped ring. `const` so the pool lives in a static;
    /// the slot array is mapped by the first `push`.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> SpscRing {
        SpscRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            near_full: AtomicU64::new(0),
            grows: AtomicU64::new(0),
            want_grow: AtomicBool::new(false),
            dropped_at_last_grow: AtomicU64::new(0),
            slots: AtomicPtr::new(std::ptr::null_mut()),
            capacity: AtomicUsize::new(0),
        }
    }

    /// A ring with storage mapped eagerly at `capacity` (power of two)
    /// — for tests and embedders; pool rings map lazily on claim.
    pub fn with_capacity(capacity: usize) -> SpscRing {
        assert!(capacity.is_power_of_two(), "ring capacity must be 2^n");
        let ring = SpscRing::new();
        let slots = map_slots(capacity);
        assert!(!slots.is_null(), "mmap of {capacity} ring slots failed");
        ring.slots.store(slots, Ordering::Release);
        ring.capacity.store(capacity, Ordering::Release);
        ring
    }

    /// Appends `rec`; returns `false` (and counts the drop) when full.
    ///
    /// Producer side only. Allocator-free and async-signal-safe (the
    /// lazy first-push mapping and adaptive growth go through the raw
    /// `mmap` syscall).
    #[inline]
    pub fn push(&self, rec: EventRecord) -> bool {
        let mut cap = self.capacity.load(Ordering::Relaxed);
        let mut slots = self.slots.load(Ordering::Relaxed);
        if slots.is_null() {
            cap = configured_capacity();
            slots = map_slots(cap);
            if slots.is_null() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            self.slots.store(slots, Ordering::Release);
            self.capacity.store(cap, Ordering::Release);
        }
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let occupied = head.wrapping_sub(tail);
        if occupied >= cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.want_grow.store(true, Ordering::Relaxed);
            crate::drain::wake_if_parked();
            return false;
        }
        if occupied == 0 && self.want_grow.load(Ordering::Relaxed) {
            (slots, cap) = self.grow_now(slots, cap);
        }
        // SAFETY: slot `head` is outside `[tail, head)` so the consumer
        // is not reading it; this thread is the only producer.
        unsafe {
            *slots.add(head & (cap - 1)) = rec;
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
        if (occupied + 1) * NEAR_FULL_DEN >= cap * NEAR_FULL_NUM {
            self.near_full.fetch_add(1, Ordering::Relaxed);
            self.want_grow.store(true, Ordering::Relaxed);
            // A parked drainer must not ride out its timeout against a
            // 3/4-full ring: this is the backpressure signal.
            crate::drain::wake_if_parked();
            // Opt-in single-core relief: donate the rest of this
            // timeslice so the drainer can empty the ring before the
            // producer overflows it. A raw syscall — still allocator-
            // free and async-signal-safe.
            if DRAIN_YIELD.load(Ordering::Relaxed) {
                DRAIN_YIELDS.fetch_add(1, Ordering::Relaxed);
                unsafe {
                    syscalls::raw::syscall0(syscalls::nr::SCHED_YIELD);
                }
            }
        }
        true
    }

    /// Doubles the slot array. Producer side, called only at observed
    /// `head == tail`: the consumer never dereferences `slots` unless
    /// it saw the ring non-empty, every consumer read of the old array
    /// happened-before its `Release` store of `tail` (which this
    /// producer `Acquire`-loaded to observe emptiness), so the old
    /// array is quiescent and can be unmapped immediately.
    #[cold]
    fn grow_now(
        &self,
        old_slots: *mut EventRecord,
        old_cap: usize,
    ) -> (*mut EventRecord, usize) {
        self.want_grow.store(false, Ordering::Relaxed);
        let ceiling = GROWTH_CEILING.max(configured_capacity());
        if old_cap >= ceiling {
            return (old_slots, old_cap);
        }
        // Drops since the last growth decision mean doubling was (or
        // would be) too slow for this producer's burst rate — e.g. a
        // CPU-bound burst on a single core, where the drainer only
        // runs when the producer's timeslice expires. Jump to the
        // ceiling so at most one burst window ever pays the loss.
        let dropped = self.dropped.load(Ordering::Relaxed);
        let new_cap = if dropped > self.dropped_at_last_grow.load(Ordering::Relaxed) {
            ceiling
        } else {
            (old_cap * 2).min(ceiling)
        };
        self.dropped_at_last_grow.store(dropped, Ordering::Relaxed);
        let new_slots = map_slots(new_cap);
        if new_slots.is_null() {
            return (old_slots, old_cap); // keep recording at old size
        }
        self.slots.store(new_slots, Ordering::Release);
        self.capacity.store(new_cap, Ordering::Release);
        self.grows.fetch_add(1, Ordering::Relaxed);
        TOTAL_GROWS.fetch_add(1, Ordering::Relaxed);
        unmap_slots(old_slots, old_cap);
        (new_slots, new_cap)
    }

    /// Removes every available record in FIFO order, passing each to
    /// `f`. Returns how many were drained. Consumer side only.
    pub fn drain(&self, mut f: impl FnMut(EventRecord)) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if head == tail {
            return 0;
        }
        // Loaded after the Acquire on `head`: a non-empty ring is never
        // swapped, so this is the array the records were written to.
        let slots = self.slots.load(Ordering::Acquire);
        let cap = self.capacity.load(Ordering::Acquire);
        let mut idx = tail;
        while idx != head {
            // SAFETY: slots in `[tail, head)` are published by the
            // producer's Release store and not rewritten until the
            // consumer advances tail past them.
            let rec = unsafe { *slots.add(idx & (cap - 1)) };
            f(rec);
            idx = idx.wrapping_add(1);
        }
        self.tail.store(head, Ordering::Release);
        head.wrapping_sub(tail)
    }

    /// Records currently buffered (racy snapshot).
    pub fn len(&self) -> usize {
        self.head
            .load(Ordering::Acquire)
            .wrapping_sub(self.tail.load(Ordering::Acquire))
    }

    /// Whether the ring currently holds no records (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current slot count (0 before the first push maps storage).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Cumulative events dropped to the overflow policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Cumulative pushes that observed near-full occupancy.
    pub fn near_full(&self) -> u64 {
        self.near_full.load(Ordering::Relaxed)
    }

    /// Times this ring's slot array was doubled.
    pub fn grows(&self) -> u64 {
        self.grows.load(Ordering::Relaxed)
    }
}

impl Drop for SpscRing {
    fn drop(&mut self) {
        let slots = self.slots.load(Ordering::Acquire);
        let cap = self.capacity.load(Ordering::Acquire);
        if !slots.is_null() {
            unmap_slots(slots, cap);
        }
    }
}

// ——— the static pool ———————————————————————————————————————————————

static RINGS: [SpscRing; HARD_MAX_RINGS] = [const { SpscRing::new() }; HARD_MAX_RINGS];

/// Next pool slot to hand out (monotonic; never reused — a ring's
/// producer assignment is for the thread's lifetime, which keeps the
/// SPSC contract trivially true).
static NEXT_RING: AtomicUsize = AtomicUsize::new(0);

/// Events dropped because more than [`HARD_MAX_RINGS`] threads
/// recorded.
static POOL_EXHAUSTED_DROPS: AtomicU64 = AtomicU64::new(0);

/// Adaptive growths across the pool (and standalone rings).
static TOTAL_GROWS: AtomicU64 = AtomicU64::new(0);

/// TLS sentinel: not yet assigned.
const UNASSIGNED: usize = usize::MAX;
/// TLS sentinel: pool exhausted, this thread records nothing.
const NO_RING: usize = usize::MAX - 1;

thread_local! {
    /// This thread's ring index. Const-initialized so the first access
    /// — possibly from a signal handler — performs no lazy init.
    static RING_IDX: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// Appends `rec` to the calling thread's ring, claiming one from the
/// pool on first use. Returns `false` when the event was dropped
/// (ring full, or pool exhausted) — the drop is counted either way.
#[inline]
pub fn push_current_thread(rec: EventRecord) -> bool {
    let idx = RING_IDX.with(|c| {
        let cached = c.get();
        if cached != UNASSIGNED {
            return cached;
        }
        let claimed = NEXT_RING.fetch_add(1, Ordering::Relaxed);
        let idx = if claimed < HARD_MAX_RINGS {
            claimed
        } else {
            NO_RING
        };
        c.set(idx);
        idx
    });
    if idx == NO_RING {
        POOL_EXHAUSTED_DROPS.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    RINGS[idx].push(rec)
}

/// How many pool rings are currently claimed by threads.
pub fn rings_claimed() -> usize {
    NEXT_RING.load(Ordering::Relaxed).min(HARD_MAX_RINGS)
}

/// Drains every claimed pool ring, passing records to `f` (per-ring
/// FIFO order; cross-ring interleaving is the caller's to resolve,
/// e.g. by sorting on [`EventRecord::tsc`]). Single drainer at a time.
pub fn drain_all(mut f: impl FnMut(EventRecord)) -> usize {
    RINGS[..rings_claimed()]
        .iter()
        .map(|r| r.drain(&mut f))
        .sum()
}

/// Cumulative events dropped across the pool: full rings plus
/// pool-exhausted threads.
pub fn total_dropped() -> u64 {
    RINGS[..rings_claimed()]
        .iter()
        .map(SpscRing::dropped)
        .sum::<u64>()
        + POOL_EXHAUSTED_DROPS.load(Ordering::Relaxed)
}

/// Cumulative near-full (backpressure) observations across the pool.
pub fn total_near_full() -> u64 {
    RINGS[..rings_claimed()]
        .iter()
        .map(SpscRing::near_full)
        .sum()
}

/// Cumulative adaptive ring growths (pool and standalone rings).
pub fn total_grows() -> u64 {
    TOTAL_GROWS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u64) -> EventRecord {
        EventRecord {
            sysno: n,
            tsc: n,
            ..EventRecord::ZERO
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let ring = SpscRing::with_capacity(1024);
        for i in 0..10 {
            assert!(ring.push(rec(i)));
        }
        let mut seen = Vec::new();
        assert_eq!(ring.drain(|r| seen.push(r.sysno)), 10);
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(ring.is_empty());
    }

    #[test]
    fn lazy_mapping_on_first_push() {
        let ring = SpscRing::new();
        assert_eq!(ring.capacity(), 0);
        assert!(ring.push(rec(1)));
        assert!(ring.capacity().is_power_of_two());
        let mut n = 0;
        ring.drain(|_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let cap = 256u64;
        let ring = SpscRing::with_capacity(cap as usize);
        for i in 0..(cap + 17) {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), cap as usize);
        assert_eq!(ring.dropped(), 17);
        // The *oldest* events survive (drop-newest policy).
        let mut first = None;
        ring.drain(|r| {
            first.get_or_insert(r.sysno);
        });
        assert_eq!(first, Some(0));
    }

    #[test]
    fn wraparound_across_many_generations() {
        let cap = 1024;
        let ring = SpscRing::with_capacity(cap);
        let mut expect = 0u64;
        for gen in 0..5 {
            let n = cap / 2 + gen; // never fills: no drops
            for i in 0..n {
                assert!(ring.push(rec(expect + i as u64)));
            }
            let mut drained = Vec::new();
            assert_eq!(ring.drain(|r| drained.push(r.sysno)), n);
            assert_eq!(drained.first(), Some(&expect));
            assert_eq!(drained.last(), Some(&(expect + n as u64 - 1)));
            expect += n as u64;
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn near_full_requests_growth_and_grow_happens_at_empty() {
        let ring = SpscRing::with_capacity(64);
        // Fill to 3/4: the crossing push flags backpressure.
        for i in 0..48 {
            assert!(ring.push(rec(i)));
        }
        assert!(ring.near_full() > 0, "3/4 occupancy observed");
        assert_eq!(ring.grows(), 0, "no growth while non-empty");
        ring.drain(|_| {});
        // First push at empty performs the doubling, then stores.
        assert!(ring.push(rec(99)));
        assert_eq!(ring.grows(), 1);
        assert_eq!(ring.capacity(), 128);
        let mut seen = Vec::new();
        ring.drain(|r| seen.push(r.sysno));
        assert_eq!(seen, vec![99], "record landed in the grown array");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn drain_yield_fires_only_when_enabled() {
        // Fresh rings per phase: backpressure from the first phase
        // would otherwise grow the ring at the next empty push and put
        // the 3/4 threshold out of reach.
        set_drain_yield(false);
        let quiet = SpscRing::with_capacity(64);
        for i in 0..48 {
            assert!(quiet.push(rec(i)));
        }
        assert!(quiet.near_full() > 0);
        let before = total_drain_yields();

        // Enabled: the near-full crossing push yields and counts.
        set_drain_yield(true);
        let noisy = SpscRing::with_capacity(64);
        for i in 0..48 {
            assert!(noisy.push(rec(i)));
        }
        set_drain_yield(false);
        let fired = total_drain_yields() - before;
        assert!(fired > 0, "yield counter proves the knob fires");
        assert!(noisy.near_full() > 0);
        assert_eq!(noisy.dropped(), 0);
    }

    #[test]
    fn a_drop_grows_straight_to_the_ceiling() {
        let ring = SpscRing::with_capacity(64);
        for i in 0..70 {
            ring.push(rec(i));
        }
        assert_eq!(ring.dropped(), 6);
        ring.drain(|_| {});
        // Actual loss is hard evidence of undersizing: no doubling
        // ladder, straight to the growth ceiling.
        assert!(ring.push(rec(0)));
        assert_eq!(ring.capacity(), GROWTH_CEILING.max(configured_capacity()));
        assert_eq!(ring.grows(), 1);
        ring.drain(|_| {});
        // Near-full pressure without loss still doubles (nothing to
        // double to here: already at the ceiling).
        ring.want_grow.store(true, Ordering::Relaxed);
        ring.push(rec(1));
        assert_eq!(ring.capacity(), GROWTH_CEILING.max(configured_capacity()));
        ring.drain(|_| {});
    }

    #[test]
    fn growth_stops_at_ceiling() {
        let ring = SpscRing::with_capacity(GROWTH_CEILING.max(configured_capacity()));
        let cap = ring.capacity();
        ring.push(rec(0));
        ring.drain(|_| {});
        // Force a grow request and give it an empty observation.
        ring.want_grow.store(true, Ordering::Relaxed);
        ring.push(rec(1));
        assert_eq!(ring.capacity(), cap, "ceiling respected");
        assert_eq!(ring.grows(), 0);
        ring.drain(|_| {});
    }

    #[test]
    fn configure_validates_and_applies() {
        // Typed errors, no state change on failure.
        assert!(matches!(
            configure(1000),
            Err(RingConfigError::NotPowerOfTwo { var, value: 1000 })
                if var == LP_RING_CAPACITY
        ));
        assert!(matches!(
            configure(MAX_RING_CAPACITY * 2),
            Err(RingConfigError::OutOfRange { var, .. }) if var == LP_RING_CAPACITY
        ));
        assert!(matches!(
            configure(16),
            Err(RingConfigError::OutOfRange { var, value: 16, .. })
                if var == LP_RING_CAPACITY
        ));
        // A valid configuration round-trips through the accessor.
        let cap0 = configured_capacity();
        configure(2048).unwrap();
        assert_eq!(configured_capacity(), 2048);
        // Restore (tests share the process).
        CONFIG_CAPACITY.store(
            if cap0 == DEFAULT_RING_CAPACITY { 0 } else { cap0 },
            Ordering::Release,
        );
    }

    #[test]
    fn concurrent_producer_consumer() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let ring = Arc::new(SpscRing::with_capacity(1024));
        let done = Arc::new(AtomicBool::new(false));
        const N: u64 = 50_000;

        let producer = {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..N {
                    if ring.push(rec(i)) {
                        pushed += 1;
                    }
                }
                done.store(true, Ordering::Release);
                pushed
            })
        };

        let mut seen = Vec::new();
        loop {
            ring.drain(|r| seen.push(r.sysno));
            if done.load(Ordering::Acquire) && ring.is_empty() {
                break;
            }
        }
        let pushed = producer.join().unwrap();
        assert_eq!(seen.len() as u64, pushed);
        assert_eq!(pushed + ring.dropped(), N, "every event accounted for");
        // Drained values are a strictly increasing subsequence of 0..N.
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "order violated");
    }

    #[test]
    fn concurrent_producer_consumer_with_growth() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // Tiny ring + concurrent drainer: growth fires mid-stream and
        // the accounting + FIFO-order invariants must survive it. The
        // schedule is pinned so growth cannot depend on who runs
        // faster: the producer fills the ring (passing near-full, which
        // requests growth) and waits for the drainer to empty it; the
        // drainer waits for that pressure before its first drain. The
        // producer's next push then sees the ring empty and grows it
        // while the drainer is live, and the rest of the stream races
        // freely.
        let ring = Arc::new(SpscRing::with_capacity(64));
        let done = Arc::new(AtomicBool::new(false));
        const N: u64 = 100_000;

        let producer = {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..N {
                    if i == 64 {
                        while !ring.is_empty() {
                            std::thread::yield_now();
                        }
                    }
                    if ring.push(rec(i)) {
                        pushed += 1;
                    }
                }
                done.store(true, Ordering::Release);
                pushed
            })
        };

        while ring.near_full() == 0 {
            std::thread::yield_now();
        }
        let mut seen = Vec::new();
        loop {
            ring.drain(|r| seen.push(r.sysno));
            if done.load(Ordering::Acquire) && ring.is_empty() {
                break;
            }
        }
        let pushed = producer.join().unwrap();
        assert_eq!(seen.len() as u64, pushed);
        assert_eq!(pushed + ring.dropped(), N, "every event accounted for");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "order violated");
        assert!(ring.grows() > 0, "growth engaged under pressure");
        assert!(ring.capacity() > 64);
    }
}
