//! The dedicated drain thread: continuously sweeps the flight-recorder
//! rings into the trace writer so producers never meet a full ring at
//! steady state.
//!
//! The thread is spawned by [`Recorder`](crate::Recorder) **before**
//! the interposition mechanism installs. That ordering is load-bearing
//! twice over: syscall-user-dispatch enrollment is per-thread and
//! inherited across `clone`, so a thread that exists before install is
//! never enrolled — the drainer's own syscalls (mmap remaps,
//! ftruncate) are neither interposed nor recorded, and it cannot
//! deadlock against the engine it serves.
//!
//! Each sweep drains every claimed ring, sorts the batch by `tsc` (the
//! cross-thread merge key), and appends it to the writer. Between
//! empty sweeps the thread backs off adaptively — a bounded stretch of
//! `yield_now`, then `park_timeout` — so an idle recorder costs
//! nothing measurable. [`DrainHandle::stop`] sets the stop flag,
//! unparks, and joins; the thread's exit path re-sweeps until the
//! rings are empty, so every event pushed before `stop` lands in the
//! trace.
//!
//! # Sharded draining (`LP_DRAIN_SHARDS`)
//!
//! One drainer keeps up with a handful of producers, but when many
//! cores produce at saturation a single sweep loop becomes the
//! bottleneck: it must memcpy every ring's batch *and* delta-compress
//! it through one `TraceWriter`. [`spawn_sharded`] instead runs `M`
//! drainer threads, shard `i` owning the rings whose pool index is
//! `idx % M` ([`ring::drain_partition`]) — a stable partition, so
//! every ring keeps exactly one consumer and the SPSC contract holds.
//! Each shard spills raw [`EventRecord`]s into its own side spool file
//! (`<trace>.shard<i>`, an [`MmapSink`] — appends are memcpys into the
//! page cache, no shared lock anywhere on the drain path). At
//! [`ShardedDrainHandle::stop`] the shards are joined, the spools are
//! read back, merged by `tsc`, appended through the single
//! `TraceWriter` (so the on-disk trace format is identical to the
//! unsharded one), and deleted. Per-shard progress is observable via
//! [`shard_drained`].

use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::{EventRecord, RECORD_SIZE};
use crate::format::TraceWriter;
use crate::ring;
use crate::spill::MmapSink;

/// Hard upper bound on `LP_DRAIN_SHARDS`.
pub const MAX_SHARDS: usize = 16;

/// Records drained by each shard (process lifetime). Shard 0 also
/// counts the unsharded drainer's sweeps.
static SHARD_DRAINED: [AtomicU64; MAX_SHARDS] = [const { AtomicU64::new(0) }; MAX_SHARDS];

/// Records drained by shard `shard` since process start (shard 0
/// includes all unsharded draining).
pub fn shard_drained(shard: usize) -> u64 {
    SHARD_DRAINED
        .get(shard)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Records appended to a trace by drain sweeps (process lifetime).
pub(crate) static EVENTS_SPILLED: AtomicU64 = AtomicU64::new(0);

/// Consecutive empty sweeps that merely yield before the thread starts
/// parking.
const YIELD_SWEEPS: u32 = 64;

/// Park duration once idle. Long enough to vacate the CPU, short
/// enough that a burst after silence meets a drainer at most ~200µs
/// behind — a few hundred records at production rates, well inside a
/// default ring. Producers additionally cut the park short: a push
/// that crosses the near-full threshold calls [`wake_if_parked`].
const IDLE_PARK: Duration = Duration::from_micros(200);

/// How many drainer threads have announced they are parking. Checked
/// by producers on near-full pushes so a burst arriving mid-park wakes
/// the drainers instead of riding out the timeout against a filling
/// ring. Relaxed ordering throughout: a missed wake costs at most one
/// `IDLE_PARK` of latency (the park always times out), never an event.
static PARKED: AtomicUsize = AtomicUsize::new(0);

/// The running drainer threads' handles, for producer-side wakes. One
/// recorder session exists at a time; it registers 1 (unsharded) or M
/// (sharded) threads here.
static DRAINERS: Mutex<Vec<std::thread::Thread>> = Mutex::new(Vec::new());

/// Unparks any registered drainer threads that are parking. Called
/// from the producer hot path (possibly signal context), so it must
/// not block: `try_lock` skips the wake under contention, which only
/// ever delays the sweep by the bounded park timeout.
#[cold]
pub(crate) fn wake_if_parked() {
    if PARKED.load(Ordering::Relaxed) == 0 {
        return;
    }
    if let Ok(guard) = DRAINERS.try_lock() {
        for t in guard.iter() {
            t.unpark();
        }
    }
}

/// A running drain thread plus its stop signal.
pub(crate) struct DrainHandle<W: Write + Seek + Send + 'static> {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<TraceWriter<W>>>,
}

impl<W: Write + Seek + Send + 'static> DrainHandle<W> {
    /// Signals the thread, joins it, and returns the writer (with
    /// every pre-`stop` event appended) or the first spill error.
    pub(crate) fn stop(self) -> io::Result<TraceWriter<W>> {
        self.stop.store(true, Ordering::Release);
        if let Ok(mut guard) = DRAINERS.lock() {
            guard.clear();
        }
        self.thread.thread().unpark();
        self.thread
            .join()
            .map_err(|_| io::Error::other("drain thread panicked"))?
    }
}

/// Spawns the drain thread around `writer`. Call before the
/// interposition mechanism installs (see module docs).
pub(crate) fn spawn<W: Write + Seek + Send + 'static>(
    writer: TraceWriter<W>,
) -> io::Result<DrainHandle<W>> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("lp-drain".into())
        .spawn(move || run(writer, &stop2))?;
    if let Ok(mut guard) = DRAINERS.lock() {
        guard.clear();
        guard.push(thread.thread().clone());
    }
    Ok(DrainHandle { stop, thread })
}

fn run<W: Write + Seek>(
    mut writer: TraceWriter<W>,
    stop: &AtomicBool,
) -> io::Result<TraceWriter<W>> {
    let mut pending: Vec<EventRecord> = Vec::new();
    let mut idle_sweeps = 0u32;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let n = sweep(&mut writer, &mut pending)?;
        if n == 0 {
            if stopping {
                return Ok(writer);
            }
            if idle_sweeps < YIELD_SWEEPS {
                idle_sweeps += 1;
                std::thread::yield_now();
            } else {
                PARKED.fetch_add(1, Ordering::Relaxed);
                // Re-sweep after announcing the park: a producer that
                // went near-full between the empty sweep above and the
                // increment would have read PARKED == 0 and skipped
                // its wake. Only park when still empty.
                if sweep(&mut writer, &mut pending)? == 0 {
                    std::thread::park_timeout(IDLE_PARK);
                }
                PARKED.fetch_sub(1, Ordering::Relaxed);
            }
        } else {
            idle_sweeps = 0;
        }
        // A non-empty sweep during stop loops straight back around:
        // producers racing the stop signal still get their last events
        // spilled before the thread exits on the empty sweep.
    }
}

/// One sweep: drain every ring, merge by timestamp, append.
pub(crate) fn sweep<W: Write + Seek>(
    writer: &mut TraceWriter<W>,
    pending: &mut Vec<EventRecord>,
) -> io::Result<usize> {
    pending.clear();
    ring::drain_all(|rec| pending.push(rec));
    // One claimed ring is already in tsc order (one producer, in-order
    // rdtsc stamps); the merge sort only earns its keep across rings.
    if ring::rings_claimed() > 1 {
        pending.sort_by_key(|r| r.tsc);
    }
    for rec in pending.iter() {
        writer.append(rec)?;
    }
    EVENTS_SPILLED.fetch_add(pending.len() as u64, Ordering::Relaxed);
    SHARD_DRAINED[0].fetch_add(pending.len() as u64, Ordering::Relaxed);
    Ok(pending.len())
}

// ——— sharded draining ————————————————————————————————————————————————

/// `M` running shard drainers plus the writer they merge into at stop.
pub(crate) struct ShardedDrainHandle<W: Write + Seek + Send + 'static> {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<io::Result<u64>>>,
    spools: Vec<PathBuf>,
    writer: Option<TraceWriter<W>>,
}

impl<W: Write + Seek + Send + 'static> ShardedDrainHandle<W> {
    /// Signals every shard, joins them, merges the spools by `tsc`
    /// through the writer (then deletes them), and returns the writer.
    pub(crate) fn stop(mut self) -> io::Result<TraceWriter<W>> {
        self.stop.store(true, Ordering::Release);
        if let Ok(mut guard) = DRAINERS.lock() {
            guard.clear();
        }
        for t in &self.threads {
            t.thread().unpark();
        }
        let mut first_err = None;
        for t in self.threads.drain(..) {
            match t.join() {
                Ok(Ok(_records)) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or_else(|| Some(io::Error::other("shard drainer panicked")))
                }
            }
        }
        let mut writer = self
            .writer
            .take()
            .expect("sharded handle stopped only once");
        if let Some(e) = first_err {
            return Err(e);
        }
        // Merge: the spools hold raw records in per-shard tsc order;
        // one global sort restores the cross-thread interleaving and
        // the delta-compressing writer sees exactly the stream a
        // single drainer would have produced.
        let mut all: Vec<EventRecord> = Vec::new();
        for spool in &self.spools {
            let bytes = crate::spill::read_back(spool)?;
            for chunk in bytes.chunks_exact(RECORD_SIZE) {
                all.push(EventRecord::decode(chunk.try_into().unwrap()));
            }
        }
        all.sort_by_key(|r| r.tsc);
        for rec in &all {
            writer.append(rec)?;
        }
        for spool in &self.spools {
            let _ = std::fs::remove_file(spool);
        }
        Ok(writer)
    }
}

impl<W: Write + Seek + Send + 'static> Drop for ShardedDrainHandle<W> {
    fn drop(&mut self) {
        // Dropped without stop() (error paths): stop the threads so
        // they don't spin forever; spools are left for inspection.
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// Spawns `shards` drainer threads partitioning the ring pool, each
/// spilling raw records to `<trace_path>.shard<i>`. Call before the
/// interposition mechanism installs, exactly like [`spawn`].
pub(crate) fn spawn_sharded<W: Write + Seek + Send + 'static>(
    writer: TraceWriter<W>,
    shards: usize,
    trace_path: &Path,
) -> io::Result<ShardedDrainHandle<W>> {
    let shards = shards.clamp(1, MAX_SHARDS);
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::with_capacity(shards);
    let mut spools = Vec::with_capacity(shards);
    let mut registry = Vec::with_capacity(shards);
    for shard in 0..shards {
        let spool = trace_path.with_extension(format!("shard{shard}"));
        let sink = MmapSink::create(&spool)?;
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(format!("lp-drain-{shard}"))
            .spawn(move || run_shard(sink, shard, shards, &stop2))?;
        registry.push(thread.thread().clone());
        spools.push(spool);
        threads.push(thread);
    }
    if let Ok(mut guard) = DRAINERS.lock() {
        *guard = registry;
    }
    Ok(ShardedDrainHandle {
        stop,
        threads,
        spools,
        writer: Some(writer),
    })
}

/// One shard's drain loop: sweep the partition into the spool with the
/// same adaptive backoff as the unsharded drainer. Returns the records
/// drained by this shard during the session.
fn run_shard(
    mut sink: MmapSink,
    shard: usize,
    shards: usize,
    stop: &AtomicBool,
) -> io::Result<u64> {
    let mut pending: Vec<EventRecord> = Vec::new();
    let mut total = 0u64;
    let mut idle_sweeps = 0u32;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let n = sweep_shard(&mut sink, shard, shards, &mut pending)?;
        total += n as u64;
        if n == 0 {
            if stopping {
                return Ok(total);
            }
            if idle_sweeps < YIELD_SWEEPS {
                idle_sweeps += 1;
                std::thread::yield_now();
            } else {
                PARKED.fetch_add(1, Ordering::Relaxed);
                // Same announce-then-recheck dance as the unsharded
                // drainer (see `run`).
                let n = sweep_shard(&mut sink, shard, shards, &mut pending)?;
                total += n as u64;
                if n == 0 {
                    std::thread::park_timeout(IDLE_PARK);
                }
                PARKED.fetch_sub(1, Ordering::Relaxed);
            }
        } else {
            idle_sweeps = 0;
        }
    }
}

/// One sharded sweep: drain the partition, append raw records to the
/// spool. No sort — per-ring FIFO is preserved and the global merge
/// happens once at stop.
fn sweep_shard(
    sink: &mut MmapSink,
    shard: usize,
    shards: usize,
    pending: &mut Vec<EventRecord>,
) -> io::Result<usize> {
    pending.clear();
    ring::drain_partition(shard, shards, |rec| pending.push(rec));
    for rec in pending.iter() {
        sink.write_all(&rec.encode())?;
    }
    EVENTS_SPILLED.fetch_add(pending.len() as u64, Ordering::Relaxed);
    SHARD_DRAINED[shard].fetch_add(pending.len() as u64, Ordering::Relaxed);
    Ok(pending.len())
}
