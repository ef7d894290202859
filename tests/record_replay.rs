//! End-to-end record → replay → divergence-detection over the
//! simulated mechanisms, plus flight-recorder accounting under
//! concurrency.
//!
//! The flight-recorder rings, the recorder session, and `LP_TRACE_OUT`
//! are process-global, so every test that records serializes behind
//! one lock.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use lazypoline_suite::{interpose, mechanism, replay, sim_workloads};
use replay::{DivergenceKind, HEADER_SIZE, RECORD_SIZE};

static RECORD_LOCK: Mutex<()> = Mutex::new(());

fn record_lock() -> MutexGuard<'static, ()> {
    RECORD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lp_rr_{tag}_{}.lpt", std::process::id()))
}

/// Records the fixed JIT workload under `sim:lazypoline+record` and
/// returns the (LPTRACE2) trace path (caller removes it). Tests that
/// poke fixed byte offsets work on a copy of the committed LPTRACE1
/// fixture instead ([`v1_fixture_copy`]).
fn record_jit_trace(tag: &str) -> PathBuf {
    let trace = temp_trace(tag);
    std::env::set_var("LP_TRACE_OUT", &trace);
    let backend = mechanism::by_name("sim:lazypoline+record").expect("+record name parses");
    let mut active = backend
        .install(Box::new(interpose::PassthroughHandler))
        .expect("sim backends always install");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("guest runs");
    assert_eq!(out.exit, 0);
    let summary = active
        .finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    std::env::remove_var("LP_TRACE_OUT");
    assert_eq!(
        summary.events,
        out.observed.len() as u64,
        "every observed syscall lands in the trace"
    );
    assert_eq!(summary.dropped, 0);
    trace
}

/// The committed LPTRACE1 fixture (the JIT workload, fixed 88-byte
/// records).
fn v1_fixture() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v1.lpt")
}

/// A temp copy of [`v1_fixture`] (caller removes it), for tests that
/// mutate or cut known byte offsets.
fn v1_fixture_copy(tag: &str) -> PathBuf {
    let trace = temp_trace(tag);
    std::fs::copy(v1_fixture(), &trace).unwrap();
    trace
}

#[test]
fn sim_record_then_replay_with_zero_divergences() {
    let _g = record_lock();
    let trace = record_jit_trace("roundtrip");

    let name = format!("replay:{}", trace.display());
    let mut active = mechanism::by_name(&name)
        .expect("replay name parses")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("trace loads");
    // The replay base comes from the trace header: a sim mechanism.
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("replay base is simulated");
    assert_eq!(out.exit, 0);

    let state = active.replay_state().expect("replay backend").clone();
    assert_eq!(
        state.position(),
        state.len(),
        "the whole trace was consumed"
    );
    assert_eq!(state.divergences(), 0);
    assert!(active.replay_divergence().is_none());
    let stats = active.stats();
    assert_eq!(stats.replay_divergences, 0);
    assert!(stats.dispatches > 0);

    drop(active);
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn mutated_trace_reports_structured_divergence_not_panic() {
    let trace = v1_fixture_copy("mutated");

    // Flip the second record's syscall number to `write` (1).
    let mut bytes = std::fs::read(&trace).unwrap();
    let k = 1;
    let off = HEADER_SIZE + k * RECORD_SIZE;
    bytes[off..off + 8].copy_from_slice(&1u64.to_le_bytes());
    std::fs::write(&trace, &bytes).unwrap();

    let name = format!("replay:{}", trace.display());
    let mut active = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .expect("a mutated-but-well-formed trace still loads");
    active
        .run_program(&sim_workloads::jit::build())
        .expect("execution continues best-effort past the divergence");

    let d = active
        .replay_divergence()
        .expect("the mutation must be detected");
    assert_eq!(d.kind, DivergenceKind::Sysno);
    assert_eq!(d.offset, k as u64, "detected at the mutated record");
    assert_eq!(d.expected.unwrap().sysno, 1, "trace said write");
    assert!(active.stats().replay_divergences >= 1);

    drop(active);
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn corrupt_header_is_a_structured_install_error() {
    let trace = temp_trace("garbage");
    std::fs::write(&trace, [0xabu8; 200]).unwrap();
    let name = format!("replay:{}", trace.display());
    let Err(err) = mechanism::by_name(&name)
        .expect("the name form always parses")
        .install(Box::new(interpose::PassthroughHandler))
    else {
        panic!("garbage cannot install");
    };
    match err {
        mechanism::InstallError::Io(e) => {
            assert!(e.to_string().contains("bad magic"), "{e}");
        }
        other => panic!("expected Io error, got {other}"),
    }
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn truncated_trace_is_a_structured_install_error() {
    let trace = v1_fixture_copy("truncated");
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::write(&trace, &bytes[..bytes.len() - (RECORD_SIZE / 2)]).unwrap();

    let name = format!("replay:{}", trace.display());
    let Err(err) = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
    else {
        panic!("a mid-record cut cannot install");
    };
    assert!(
        matches!(&err, mechanism::InstallError::Io(e) if e.to_string().contains("truncated")),
        "unexpected: {err}"
    );
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn multi_thread_recording_accounts_for_every_event() {
    use interpose::{SyscallEvent, SyscallHandler};
    use syscalls::SyscallArgs;

    let _g = record_lock();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000; // ≫ ring capacity: forces drops

    let before_recorded = replay::events_recorded();
    let before_dropped = replay::events_dropped();

    let handler = std::sync::Arc::new(replay::RecordHandler::passthrough());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handler = std::sync::Arc::clone(&handler);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let ev =
                        SyscallEvent::new(SyscallArgs::new(syscalls::nr::GETPID, [t as u64; 6]));
                    handler.post(&ev, i);
                }
            });
        }
    });

    let recorded = replay::events_recorded() - before_recorded;
    let dropped = replay::events_dropped() - before_dropped;
    assert_eq!(
        recorded + dropped,
        THREADS as u64 * PER_THREAD,
        "recorded + dropped accounts for every observed event"
    );
    assert!(recorded > 0, "rings accepted events");
    assert!(dropped > 0, "overflow policy engaged under pressure");

    // Leave the rings empty for whichever test records next.
    replay::ring::drain_all(|_| {});
}

#[test]
fn drainer_sustains_multi_producer_load_with_zero_drops() {
    use interpose::{SyscallEvent, SyscallHandler};
    use syscalls::SyscallArgs;

    let _g = record_lock();
    const THREADS: usize = 6;
    const PER_THREAD: u64 = 20_000;
    const PRODUCED: u64 = THREADS as u64 * PER_THREAD;

    // Rings sized to hold a full per-thread burst: zero drops is then a
    // guarantee, not a race against drainer latency — the drain thread
    // still has to spill every event for the summary to balance.
    let trace = temp_trace("soak");
    std::env::set_var("LP_TRACE_OUT", &trace);
    std::env::set_var(replay::ring::LP_RING_CAPACITY, "32768");
    let backend = mechanism::by_name("sim:lazypoline+record").unwrap();
    let mut active = backend
        .install(Box::new(interpose::PassthroughHandler))
        .expect("session opens with a live drain thread");
    std::env::remove_var("LP_TRACE_OUT");
    std::env::remove_var(replay::ring::LP_RING_CAPACITY);

    let before_recorded = replay::events_recorded();
    let before_dropped = replay::events_dropped();
    let handler = std::sync::Arc::new(replay::RecordHandler::passthrough());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handler = std::sync::Arc::clone(&handler);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let ev =
                        SyscallEvent::new(SyscallArgs::new(syscalls::nr::GETPID, [t as u64; 6]));
                    handler.post(&ev, i);
                }
            });
        }
    });

    let recorded = replay::events_recorded() - before_recorded;
    let dropped = replay::events_dropped() - before_dropped;
    assert_eq!(recorded + dropped, PRODUCED, "every event accounted for");
    assert_eq!(dropped, 0, "live drainer + adequate rings: nothing drops");

    let summary = active
        .finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.events, PRODUCED, "every produced event is spilled");
    assert!(
        summary.bytes * 2 < PRODUCED * replay::RECORD_SIZE as u64,
        "LPTRACE2 beats the fixed layout: {} bytes for {PRODUCED} events",
        summary.bytes
    );

    // The trace itself holds every event, decodable transparently.
    let (header, records) = replay::read_trace_path(&trace).unwrap();
    assert_eq!(header.version, replay::VERSION2);
    assert_eq!(records.len() as u64, PRODUCED);

    // Per-ring FIFO is the drainer's ordering guarantee: each
    // producer's events (tagged by args[0], numbered by ret) appear in
    // the order it pushed them.
    for t in 0..THREADS as u64 {
        let seq: Vec<u64> = records
            .iter()
            .filter(|r| r.args[0] == t)
            .map(|r| r.ret)
            .collect();
        assert!(
            seq.iter().copied().eq(0..PER_THREAD),
            "producer {t}: {} events, out of order or incomplete",
            seq.len()
        );
    }

    // Restore the default capacity for whichever test records next.
    replay::ring::configure(replay::ring::DEFAULT_RING_CAPACITY).unwrap();
    drop(active);
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn malformed_ring_capacity_env_is_a_typed_install_error() {
    let _g = record_lock();
    let trace = temp_trace("badcap");
    std::env::set_var("LP_TRACE_OUT", &trace);
    std::env::set_var(replay::ring::LP_RING_CAPACITY, "1000"); // not 2^n
    let err = mechanism::by_name("sim:lazypoline+record")
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .err()
        .expect("a malformed ring capacity must fail install, not fall back");
    std::env::remove_var(replay::ring::LP_RING_CAPACITY);
    std::env::remove_var("LP_TRACE_OUT");
    match err {
        mechanism::InstallError::Io(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
            assert!(e.to_string().contains("power of two"), "{e}");
            assert!(e.to_string().contains("LP_RING_CAPACITY"), "{e}");
        }
        other => panic!("expected Io(InvalidInput), got {other}"),
    }
    let _ = std::fs::remove_file(&trace);
}

/// The committed LPTRACE1 fixture (recorded before the LPTRACE2
/// migration) must keep decoding and replaying unchanged — backward
/// compatibility for existing traces is part of the format contract.
#[test]
fn committed_lptrace1_fixture_decodes_and_replays() {
    let fixture = v1_fixture();
    let (header, records) = replay::read_trace_path(&fixture).expect("fixture decodes");
    assert_eq!(header.version, replay::VERSION);
    assert_eq!(header.source_mechanism, "sim:lazypoline");
    assert!(!records.is_empty());

    let name = format!("replay:{}", fixture.display());
    let mut active = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .expect("v1 fixture loads");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("replay base is simulated");
    assert_eq!(out.exit, 0);
    let state = active.replay_state().expect("replay backend").clone();
    assert_eq!(state.position(), state.len(), "whole fixture consumed");
    assert_eq!(state.divergences(), 0);
}

/// The committed LPTRACE2 fixture must keep decoding and replaying
/// unchanged too — it is also the sfip subsystem's canonical learning
/// input (see `tests/sfip.rs`), so both consumers pin the same bytes.
#[test]
fn committed_lptrace2_fixture_decodes_and_replays() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/jit_v2.lpt2");
    let (header, records) = replay::read_trace_path(&fixture).expect("fixture decodes");
    assert_eq!(header.version, replay::VERSION2);
    assert_eq!(header.source_mechanism, "sim:lazypoline");
    assert_eq!(records.len(), 4, "mmap + jitted getpid + static getpid + exit_group");

    let name = format!("replay:{}", fixture.display());
    let mut active = mechanism::by_name(&name)
        .unwrap()
        .install(Box::new(interpose::PassthroughHandler))
        .expect("v2 fixture loads");
    let out = active
        .run_program(&sim_workloads::jit::build())
        .expect("replay base is simulated");
    assert_eq!(out.exit, 0);
    let state = active.replay_state().expect("replay backend").clone();
    assert_eq!(state.position(), state.len(), "whole fixture consumed");
    assert_eq!(state.divergences(), 0);
}

#[test]
fn record_composes_with_any_sim_mechanism_and_counts_in_stats() {
    let _g = record_lock();
    // No LP_TRACE_OUT: flight-recorder-only mode (rings + counters, no
    // file).
    std::env::remove_var("LP_TRACE_OUT");
    let backend = mechanism::by_name("sim:zpoline+record").expect("+record composes");
    assert_eq!(backend.name(), "sim:zpoline+record");
    let mut active = backend
        .install(Box::new(interpose::PassthroughHandler))
        .unwrap();
    let out = active
        .run_program(&sim_workloads::bench::microbench(64))
        .expect("guest runs");
    let stats = active.stats();
    assert_eq!(stats.mechanism, "sim:zpoline+record");
    assert!(
        stats.events_recorded + stats.events_dropped >= out.observed.len() as u64,
        "recorder saw at least the delivered events"
    );
    assert!(active.finish_recording().is_none(), "no trace session");
    drop(active);
    replay::ring::drain_all(|_| {});
}

#[test]
fn dynamic_names_are_cached_and_bad_forms_rejected() {
    let a = mechanism::by_name("sim:lazypoline+record").unwrap();
    let b = mechanism::by_name("sim:lazypoline+record").unwrap();
    assert!(
        std::ptr::eq(a, b),
        "same dynamic name resolves to the same leaked instance"
    );
    assert!(mechanism::by_name("nonsense+record").is_none());
    assert!(mechanism::by_name("replay:").is_none());
    assert!(mechanism::by_name("replay").is_none());
}
