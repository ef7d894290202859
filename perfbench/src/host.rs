//! Host facts and the few kernel interfaces the benchmark needs beyond
//! the vendored `libc` subset: clocks, CPU affinity, per-process CPU
//! time, and the result stamp.

use std::fmt::Write as _;
use std::path::Path;

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage`: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
pub struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

impl Rusage {
    /// User plus system CPU time, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        let us = (self.utime_sec + self.stime_sec) * 1_000_000 + self.utime_usec + self.stime_usec;
        us.max(0) as u64 * 1000
    }
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn signal(sig: i32, handler: usize) -> usize;
}

fn clock(id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(id, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `CLOCK_MONOTONIC` in nanoseconds: one time base shared by every
/// process on the host, so child-measured spans line up with the
/// parent's.
pub fn now_ns() -> u64 {
    clock(CLOCK_MONOTONIC)
}

/// CPU time of the calling process, all threads, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Pins the calling thread (and what it later spawns) to `cpu`.
pub fn pin_to_cpu(cpu: usize) -> std::io::Result<()> {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask buffer is 128 bytes, matching `size`.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: the mask buffer is 128 bytes, matching `size`.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return vec![0];
    }
    (0..1024)
        .filter(|c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Waits for `pid` and returns its raw wait status and CPU usage.
pub fn wait_rusage(pid: u32) -> std::io::Result<(i32, Rusage)> {
    let mut status = 0;
    let mut ru = Rusage::default();
    // SAFETY: both out-pointers are valid for writes.
    if unsafe { wait4(pid as i32, &mut status, 0, &mut ru) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((status, ru))
}

/// Installs a plain signal handler.
pub fn on_signal(sig: i32, handler: extern "C" fn(i32)) {
    // SAFETY: `handler` is an `extern "C" fn(i32)`, the shape signal(2)
    // expects; the caller keeps it async-signal-safe.
    unsafe { signal(sig, handler as usize) };
}

/// CPU time of every live thread of `pid`, from
/// `/proc/<pid>/task/*/schedstat` (nanosecond run time). `None` once
/// the process is gone.
pub fn task_cpu_ns(pid: u32) -> Option<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = entry.ok()?.path().join("schedstat");
        if let Ok(s) = std::fs::read_to_string(path) {
            total += s.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// `Cpus_allowed_list` of a live process.
pub fn affinity_of(pid: u32) -> String {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "?".into())
}

/// Names a terminating signal the way reports spell it.
pub fn signal_name(sig: i32) -> String {
    match sig {
        4 => "SIGILL".into(),
        6 => "SIGABRT".into(),
        7 => "SIGBUS".into(),
        8 => "SIGFPE".into(),
        9 => "SIGKILL".into(),
        11 => "SIGSEGV".into(),
        15 => "SIGTERM".into(),
        31 => "SIGSYS".into(),
        n => format!("signal {n}"),
    }
}

/// The CPUs for the generator and for the deployment children: disjoint
/// when the host allows it, shared otherwise.
pub fn cpu_plan() -> (Option<usize>, Option<usize>) {
    let cpus = allowed_cpus();
    if cpus.len() >= 2 {
        (Some(cpus[0]), Some(cpus[1]))
    } else {
        (None, None)
    }
}

/// SplitMix64: the seeded generator behind every workload input.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per input kind by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over bytes, the benchmark's checksum and source digest.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_dir(h: &mut u64, dir: &Path) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            digest_dir(h, &p);
        } else if matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "py")
        ) {
            *h = fnv(*h, p.to_string_lossy().as_bytes());
            *h = fnv(*h, &std::fs::read(&p).unwrap_or_default());
        }
    }
}

/// The commit the run measured: `git rev-parse HEAD` where the tree is a
/// git checkout, plus a digest of the sources that were built (the
/// tree the benchmark runs in need not be a git repository).
pub fn commit_stamp() -> (String, String) {
    // Only this directory's own repository counts, not an enclosing one.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut h = FNV_INIT;
    for d in ["crates", "examples", "perfbench"] {
        digest_dir(&mut h, Path::new(d));
    }
    (commit, format!("{h:016x}"))
}

/// The host part of every result: kernel, CPU model, CPU count.
pub fn host_json() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    // Online CPUs, not this (pinned) process's share of them.
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(1);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"kernel\":{},\"cpu\":{},\"nproc\":{nproc}}}",
        json_str(&kernel),
        json_str(&cpu)
    );
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
