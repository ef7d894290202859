//! The record-side interposer: a [`SyscallHandler`] that mirrors every
//! intercepted syscall into the flight-recorder rings, and a
//! [`Recorder`] session that drains the rings into a trace file.

use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use interpose::{Action, InterestSet, SyscallEvent, SyscallHandler};

use crate::drain;
use crate::event::EventRecord;
use crate::format::{TraceHeader, TraceWriter};
use crate::ring;
use crate::spill::MmapSink;

/// Events successfully recorded into a ring (process lifetime).
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);

/// Events successfully recorded into a ring since process start.
pub fn events_recorded() -> u64 {
    EVENTS_RECORDED.load(Ordering::Relaxed)
}

/// Events dropped by the overflow policy (full ring or exhausted ring
/// pool) since process start. `events_recorded() + events_dropped()`
/// equals the number of syscalls the recorder observed.
pub fn events_dropped() -> u64 {
    ring::total_dropped()
}

/// Records the drain thread spilled from the rings into a trace since
/// process start.
pub fn events_spilled() -> u64 {
    drain::EVENTS_SPILLED.load(Ordering::Relaxed)
}

thread_local! {
    /// Cached kernel tid — one `gettid` per thread, then free reads.
    /// Const-init so the first access (possibly from signal context)
    /// performs no lazy initialization.
    static CACHED_TID: Cell<u32> = const { Cell::new(0) };
}

#[inline]
fn current_tid() -> u32 {
    CACHED_TID.with(|c| {
        let cached = c.get();
        if cached != 0 {
            return cached;
        }
        // SAFETY: gettid takes no arguments and cannot fail.
        let tid = unsafe { syscalls::raw::syscall0(syscalls::nr::GETTID) } as u32;
        c.set(tid);
        tid
    })
}

#[inline]
fn timestamp() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc has no side effects or preconditions.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

/// A [`SyscallHandler`] that records every event it sees into the
/// calling thread's flight-recorder ring, then defers the actual
/// decision to an optional inner handler.
///
/// The hot path is allocation-free and async-signal-safe: it builds a
/// fixed-size [`EventRecord`] on the stack and memcpys it into a
/// pre-allocated ring slot. Syscalls the inner handler answers with
/// `Return`/`Fail` are recorded immediately (their result is already
/// known); `Passthrough` syscalls are recorded in [`post`] with the
/// real kernel return value.
///
/// [`post`]: SyscallHandler::post
pub struct RecordHandler {
    inner: Option<Box<dyn SyscallHandler>>,
}

impl RecordHandler {
    /// Records around `inner`: events flow to `inner` exactly as they
    /// would without recording, and every one is mirrored into a ring.
    pub fn wrapping(inner: Box<dyn SyscallHandler>) -> RecordHandler {
        RecordHandler { inner: Some(inner) }
    }

    /// A pure recorder: every syscall passes through, every syscall is
    /// recorded.
    pub fn passthrough() -> RecordHandler {
        RecordHandler { inner: None }
    }

    #[inline]
    fn record(&self, event: &SyscallEvent, ret: u64) {
        let ok = ring::push_current_thread(EventRecord {
            sysno: event.call.nr,
            args: event.call.args,
            ret,
            tsc: timestamp(),
            site: event.site as u64,
            tid: current_tid(),
        });
        if ok {
            EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl SyscallHandler for RecordHandler {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        let action = match &self.inner {
            Some(inner) => inner.handle(event),
            None => Action::Passthrough,
        };
        // Short-circuited syscalls never reach `post`; their result is
        // decided right here, so record them now (post-rewrite args).
        if let Some(ret) = action.as_ret() {
            self.record(event, ret);
        }
        action
    }

    fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
        let ret = match &self.inner {
            Some(inner) => inner.post(event, ret),
            None => ret,
        };
        self.record(event, ret);
        ret
    }

    fn name(&self) -> &str {
        "record"
    }

    fn interest(&self) -> InterestSet {
        // Recording wants *everything*, regardless of what the inner
        // handler is interested in — a trace with holes cannot replay.
        InterestSet::all()
    }
}

/// Only one recorder session may drain the shared ring pool at a time.
static SESSION_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Summary of a finished recording session.
#[derive(Clone, Debug)]
pub struct RecordSummary {
    /// Trace file the session wrote.
    pub path: PathBuf,
    /// Records written to the trace.
    pub events: u64,
    /// Events dropped by the overflow policy during the session.
    pub dropped: u64,
    /// Trace file size in bytes (header included).
    pub bytes: u64,
}

impl RecordSummary {
    /// Fraction of observed events the session dropped (0.0 = lossless).
    pub fn drop_rate(&self) -> f64 {
        let total = self.events + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }

    /// A ring capacity that would likely have made this session
    /// lossless (`None` when it already was): the current capacity
    /// scaled by the observed overflow, rounded up to a power of two.
    pub fn suggested_ring_capacity(&self) -> Option<usize> {
        if self.dropped == 0 {
            return None;
        }
        let factor = (self.events + self.dropped)
            .div_ceil(self.events.max(1))
            .max(2) as usize;
        Some(
            ring::configured_capacity()
                .saturating_mul(factor)
                .next_power_of_two()
                .min(ring::MAX_RING_CAPACITY),
        )
    }
}

/// A recording session: owns the trace file, spills the
/// flight-recorder rings into it, and patches the final drop count on
/// [`finish`](Recorder::finish).
///
/// The session runs one dedicated drain thread that sweeps the rings
/// continuously into an mmap-backed LPTRACE2 trace — at steady state
/// producers never meet a full ring, so `events_dropped == 0`.
/// `LP_RING_CAPACITY` is validated and applied here (a malformed value
/// fails the install, never silently falls back).
///
/// Create it *before* installing the [`RecordHandler`] — it clears
/// stale ring contents, and the drain thread must be spawned before
/// the mechanism installs so it is never enrolled in syscall
/// interposition (its own spill syscalls stay out of the trace).
/// `finish` after the handler is uninstalled.
pub struct Recorder {
    /// `None` once finished.
    drain: Option<drain::DrainHandle<MmapSink>>,
    path: PathBuf,
    dropped_at_start: u64,
}

impl Recorder {
    /// Opens `path` for writing, stamps the trace header, and starts
    /// the drain thread.
    ///
    /// `source_mechanism` is the registry name of the mechanism the
    /// recording will run under — replay reads it back to choose its
    /// own base mechanism.
    pub fn to_path(path: &Path, source_mechanism: &str) -> io::Result<Recorder> {
        // Validate configuration before touching any state: a typo'd
        // LP_RING_CAPACITY must fail the install, not half-start it.
        ring::configure_from_env()?;

        if SESSION_ACTIVE.swap(true, Ordering::AcqRel) {
            return Err(io::Error::other("another recording session is active"));
        }
        let release_on = |e: io::Error| {
            SESSION_ACTIVE.store(false, Ordering::Release);
            e
        };
        // Discard events from before this session so the trace starts
        // clean; drops up to now are not this session's drops.
        ring::drain_all(|_| {});
        let dropped_at_start = ring::total_dropped();

        let header = TraceHeader::new(source_mechanism, calibrate_tsc_hz());
        let sink = MmapSink::create(path).map_err(release_on)?;
        let writer = TraceWriter::new(sink, &header).map_err(release_on)?;
        let drain = drain::spawn(writer).map_err(release_on)?;
        Ok(Recorder {
            drain: Some(drain),
            path: path.to_path_buf(),
            dropped_at_start,
        })
    }

    /// Final drain (stops and joins the drain thread), patches the
    /// session's drop count into the header, and closes the trace.
    pub fn finish(mut self) -> io::Result<RecordSummary> {
        self.finish_inner()
            .expect("finish on a live recorder always has a writer")
    }

    fn finish_inner(&mut self) -> Option<io::Result<RecordSummary>> {
        let writer = match self.drain.take()?.stop() {
            Ok(w) => w,
            Err(e) => {
                SESSION_ACTIVE.store(false, Ordering::Release);
                return Some(Err(e));
            }
        };
        let dropped = ring::total_dropped() - self.dropped_at_start;
        let bytes = writer.bytes();
        let result = writer.finalize(dropped).map(|(_, events)| RecordSummary {
            path: self.path.clone(),
            events,
            dropped,
            bytes,
        });
        SESSION_ACTIVE.store(false, Ordering::Release);
        Some(result)
    }
}

impl Drop for Recorder {
    /// Best-effort finish for sessions dropped without an explicit
    /// [`finish`](Recorder::finish): the trace on disk stays complete
    /// and the drop count gets patched, but errors are swallowed.
    fn drop(&mut self) {
        let _ = self.finish_inner();
    }
}

/// Estimates the TSC frequency by timing a short sleep against
/// `CLOCK_MONOTONIC`. Good to a few percent — enough for the header's
/// "clock calibration" field to convert trace timestamps to wall time.
fn calibrate_tsc_hz() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let t0 = std::time::Instant::now();
        let c0 = timestamp();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let cycles = timestamp().wrapping_sub(c0);
        let nanos = t0.elapsed().as_nanos() as u64;
        if nanos == 0 {
            return 0;
        }
        (cycles as u128 * 1_000_000_000u128 / nanos as u128) as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use syscalls::{nr, SyscallArgs};

    #[test]
    fn short_circuited_actions_record_their_result() {
        struct Deny;
        impl SyscallHandler for Deny {
            fn handle(&self, _ev: &mut SyscallEvent) -> Action {
                Action::Return(1234)
            }
        }
        let before = events_recorded();
        let h = RecordHandler::wrapping(Box::new(Deny));
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        assert_eq!(h.handle(&mut ev), Action::Return(1234));
        assert_eq!(events_recorded(), before + 1);
    }

    #[test]
    fn passthrough_records_in_post_with_real_ret() {
        let before = events_recorded();
        let h = RecordHandler::passthrough();
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        assert_eq!(h.handle(&mut ev), Action::Passthrough);
        assert_eq!(events_recorded(), before, "handle alone records nothing");
        assert_eq!(h.post(&ev, 777), 777);
        assert_eq!(events_recorded(), before + 1);
    }

    #[test]
    fn tid_is_cached_and_nonzero() {
        assert_ne!(current_tid(), 0);
        assert_eq!(current_tid(), current_tid());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tsc_calibration_is_plausible() {
        let hz = calibrate_tsc_hz();
        // Any machine running this is somewhere between 100 MHz and 10 GHz.
        assert!(hz > 100_000_000 && hz < 10_000_000_000, "tsc_hz = {hz}");
    }
}
