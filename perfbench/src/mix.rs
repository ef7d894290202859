//! `syscall_mix`: a seeded stream of cheap syscalls made from 48
//! benchmark-emitted `syscall` sites spread over two code pages, run
//! closed-loop in one child per deployment.
//!
//! The same child also serves the traced run's layer ladder: each rung
//! is a deployment name — a mechanism registry name, or a `direct:*`
//! handler driven through [`interpose::interpose_syscall`] without any
//! mechanism underneath.

use std::io::{BufRead, Write};
use std::sync::Arc;

use interpose::{InterestSet, PassthroughHandler, SyscallHandler};
use syscalls::SyscallArgs;

use crate::host::{self, now_ns, process_cpu_ns, Rng};
use crate::rounds::{Deployments, Quantum};
use crate::worker::{fields, pairs, Worker};

/// Distinct `syscall` instructions the stream is made from.
pub const SITES: usize = 48;
/// Bytes between consecutive sites (each site is one aligned slot).
const SITE_STRIDE: usize = 128;
/// Ops in one pass over the stream.
pub const STREAM_LEN: usize = 1024;
/// Passes run before a child reports ready; the first rewrites every
/// site under the rewriting deployments.
const WARMUP_PASSES: usize = 8;

macro_rules! syscall_sites {
    ($($i:literal)*) => {
        // Each slot: `site(nr, a0, a1, a2) -> ret` in the SysV ABI,
        // one `syscall` instruction per slot. The block starts on a
        // page boundary; 48 slots of 128 bytes cover two pages.
        std::arch::global_asm!(
            ".pushsection .text.perfbench_sites,\"ax\",@progbits",
            ".balign 4096",
            ".globl perfbench_sites",
            "perfbench_sites:",
            $(
                concat!(".balign 128 # site ", stringify!($i)),
                "mov rax, rdi",
                "mov rdi, rsi",
                "mov rsi, rdx",
                "mov rdx, rcx",
                "syscall",
                "ret",
            )*
            ".popsection",
        );
    };
}

syscall_sites!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23
    24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
);

extern "C" {
    static perfbench_sites: u8;
}

type SiteFn = extern "sysv64" fn(u64, u64, u64, u64) -> u64;

fn site_addr(i: usize) -> usize {
    assert!(i < SITES);
    // Taking the address of the asm-defined label; it is never read.
    std::ptr::addr_of!(perfbench_sites) as usize + i * SITE_STRIDE
}

/// The syscalls the stream draws from: each is cheap (well under
/// 300 ns bare), side-effect free, and returns the same value in every
/// deployment child.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Nonexistent,
    Getppid,
    Getuid,
    Getgid,
    Read8,
    Lseek,
    Fstat,
    GetFd,
}

/// Every kind appears equally often in a pass, so the seed changes the
/// order and the site layout, not the mix.
const KINDS: [Kind; 8] = [
    Kind::Nonexistent,
    Kind::Getppid,
    Kind::Getuid,
    Kind::Getgid,
    Kind::Read8,
    Kind::Lseek,
    Kind::Fstat,
    Kind::GetFd,
];

/// `0..n` repeated to `len` entries, in seeded order.
fn shuffled(len: usize, n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).map(|i| i % n).collect();
    for i in (1..len).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

#[derive(Clone, Copy)]
struct Op {
    site: SiteFn,
    site_addr: usize,
    nr: u64,
    args: [u64; 3],
}

/// How each op enters the kernel.
#[derive(Clone, Copy, PartialEq)]
enum Entry {
    /// From the op's `syscall` site (bare, SUD, rewritten).
    Site,
    /// From the op's site, re-arming the SUD selector first — classic
    /// selector-only SUD leaves it at ALLOW after each trap.
    SiteRearm,
    /// Through the interposer's decision path without a mechanism.
    Direct,
}

/// A child's instance of the seeded stream.
struct Stream {
    ops: Vec<Op>,
    _zero: std::fs::File,
    _buf: Box<[u8; 256]>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        use std::os::fd::AsRawFd;
        let zero = std::fs::File::open("/dev/zero").expect("/dev/zero opens");
        let fd = zero.as_raw_fd() as u64;
        let mut buf = Box::new([0u8; 256]);
        let bp = buf.as_mut_ptr() as u64;
        let mut rng = Rng::new(seed, 1);
        let kinds = shuffled(STREAM_LEN, KINDS.len(), &mut rng);
        let sites = shuffled(STREAM_LEN, SITES, &mut rng);
        let ops = kinds
            .into_iter()
            .zip(sites)
            .map(|(kind, site)| {
                let (nr, args) = match KINDS[kind] {
                    Kind::Nonexistent => (syscalls::NONEXISTENT_SYSCALL, [0; 3]),
                    Kind::Getppid => (110, [0; 3]),
                    Kind::Getuid => (102, [0; 3]),
                    Kind::Getgid => (104, [0; 3]),
                    Kind::Read8 => (0, [fd, bp, 8]),
                    Kind::Lseek => (8, [fd, 0, 1]),
                    Kind::Fstat => (5, [fd, bp, 0]),
                    Kind::GetFd => (72, [fd, 1, 0]),
                };
                let addr = site_addr(site);
                // SAFETY: `addr` is the start of a slot emitted by
                // `syscall_sites!`, which has exactly this signature.
                let f: SiteFn = unsafe { std::mem::transmute::<usize, SiteFn>(addr) };
                Op {
                    site: f,
                    site_addr: addr,
                    nr,
                    args,
                }
            })
            .collect();
        Stream {
            ops,
            _zero: zero,
            _buf: buf,
        }
    }

    /// One pass; returns the FNV hash of every return value.
    #[inline(never)]
    fn pass(&self, how: Entry) -> u64 {
        let mut h = host::FNV_INIT;
        for op in &self.ops {
            let [a0, a1, a2] = op.args;
            let ret = match how {
                Entry::Site => (op.site)(op.nr, a0, a1, a2),
                Entry::SiteRearm => {
                    sud::set_selector(sud::Dispatch::Block);
                    (op.site)(op.nr, a0, a1, a2)
                }
                Entry::Direct => interpose::interpose_syscall(
                    SyscallArgs::new(op.nr, [a0, a1, a2, 0, 0, 0]),
                    op.site_addr,
                    // SAFETY: the stream's syscalls only read or write
                    // the child's own buffer and descriptor.
                    |c| unsafe { syscalls::raw::syscall(c) },
                ),
            };
            h = (h ^ ret).wrapping_mul(0x0100_0000_01b3);
        }
        std::hint::black_box(h)
    }
}

/// A handler whose interest excludes every syscall in the stream, so
/// each op takes the interest-miss exit of the decision path.
struct MissHandler;

impl SyscallHandler for MissHandler {
    fn handle(&self, _event: &mut interpose::SyscallEvent) -> interpose::Action {
        interpose::Action::Passthrough
    }
    fn interest(&self) -> InterestSet {
        InterestSet::of(&[257])
    }
}

/// What a child installed.
enum Installed {
    Registry(mechanism::ActiveMechanism),
    Direct(Option<interpose::HandlerGuard>, Option<replay::Recorder>),
}

fn env_path(key: &str) -> Result<std::path::PathBuf, String> {
    std::env::var_os(key)
        .map(Into::into)
        .ok_or_else(|| format!("{key} is not set"))
}

/// Installs `name`; returns the installation, how ops enter, and the
/// hook-library load time (ns) where the deployment loads one.
fn install(name: &str) -> Result<(Installed, Entry, u64), String> {
    let direct =
        |h: Box<dyn SyscallHandler>| Installed::Direct(Some(interpose::install_handler(h)), None);
    Ok(match name {
        "direct:pass" => (direct(Box::new(PassthroughHandler)), Entry::Direct, 0),
        "direct:miss" => (direct(Box::new(MissHandler)), Entry::Direct, 0),
        "direct:hooks" => {
            let t0 = now_ns();
            let hooks =
                hookabi::load_from_spec("hook_count").map_err(|e| format!("hook load: {e}"))?;
            let load = now_ns() - t0;
            let stack = interpose::HookStack::new();
            stack.attach(Box::new(PassthroughHandler), 0);
            for hook in hooks {
                let prio = hook.priority();
                stack.attach_dynamic(Box::new(hook), prio);
            }
            (direct(Box::new(stack)), Entry::Direct, load)
        }
        "direct:sfip" => {
            let policy =
                sfip::Policy::load(&env_path(sfip::POLICY_ENV)?).map_err(|e| e.to_string())?;
            let h = sfip::SfipHandler::new(
                Arc::new(policy),
                sfip::ViolationAction::Count,
                false,
                Box::new(PassthroughHandler),
            );
            (direct(Box::new(h)), Entry::Direct, 0)
        }
        "direct:record" => {
            let path = env_path(mechanism::TRACE_OUT_ENV)?;
            let rec = replay::Recorder::to_path(&path, name).map_err(|e| e.to_string())?;
            let guard = interpose::install_handler(Box::new(replay::RecordHandler::passthrough()));
            (Installed::Direct(Some(guard), Some(rec)), Entry::Direct, 0)
        }
        _ => {
            let m = mechanism::by_name(name).ok_or_else(|| format!("unknown deployment {name}"))?;
            let active = m
                .install(Box::new(PassthroughHandler))
                .map_err(|e| format!("install failed: {e}"))?;
            let how = if name == "sud-raw" {
                Entry::SiteRearm
            } else {
                Entry::Site
            };
            (Installed::Registry(active), how, 0)
        }
    })
}

fn stats_line(inst: &Installed, ops: u64) -> String {
    let mut kv: Vec<(&str, u64)> = match inst {
        Installed::Registry(a) => {
            let s = a.stats();
            vec![
                ("dispatches", s.dispatches),
                ("slow_path_hits", s.slow_path_hits),
                ("sites_patched", s.sites_patched),
                ("hook_dispatches", s.hook_dispatches),
                ("sfip_checks", s.sfip_checks),
                ("sfip_violations", s.sfip_violations),
                ("events_recorded", s.events_recorded),
                ("events_dropped", s.events_dropped),
                ("ring_grows", s.ring_grows),
                ("ring_near_full", s.ring_near_full),
                ("drain_yields", s.drain_yields),
            ]
        }
        Installed::Direct(..) => vec![
            ("hook_dispatches", interpose::hook_dispatches()),
            ("sfip_checks", sfip::checks()),
            ("sfip_violations", sfip::violations()),
            ("events_recorded", replay::events_recorded()),
            ("events_dropped", replay::events_dropped()),
        ],
    };
    kv.push(("ops", ops));
    let mut out = String::from("stats");
    for (k, v) in kv {
        out.push_str(&format!(" {k}={v}"));
    }
    out
}

/// Ends a recording deployment's trace session:
/// `finished <start> <end> <events> <bytes> <dropped>`.
fn finish_line(inst: &mut Installed) -> String {
    let t0 = now_ns();
    let summary = match inst {
        Installed::Registry(a) => a.finish_recording(),
        Installed::Direct(guard, rec) => rec.take().map(|r| {
            // The handler must be gone before the session ends.
            drop(guard.take());
            r.finish()
        }),
    };
    match summary {
        Some(Ok(s)) => format!(
            "finished {t0} {} {} {} {}",
            now_ns(),
            s.events,
            s.bytes,
            s.dropped
        ),
        Some(Err(e)) => format!("error finishing trace: {e}"),
        None => "error no trace session".into(),
    }
}

/// Child entry: `child mix <deployment> <seed>`.
///
/// Replies `ready <install_start> <install_end> <warm_end> <hash>
/// <load_ns>` once installed and warmed up, then serves
/// `run <ms> <expected-hash> <keep-samples>`, `stats`, `finish` until
/// stdin closes.
pub fn child_main(name: &str, seed: u64) -> ! {
    let stream = Stream::new(seed);
    let out = std::io::stdout();
    let t0 = now_ns();
    let (mut inst, how, load_ns) = match install(name) {
        Ok(v) => v,
        Err(e) => {
            let _ = writeln!(out.lock(), "error {e}");
            std::process::exit(3);
        }
    };
    let t1 = now_ns();
    for _ in 0..WARMUP_PASSES {
        stream.pass(how);
    }
    if name == "zpoline" {
        // Sites are rewritten; drop SUD for pure-rewriting operation.
        if let Installed::Registry(a) = &mut inst {
            a.detach();
        }
    }
    let hash = stream.pass(how);
    let mut ops = (WARMUP_PASSES as u64 + 1) * STREAM_LEN as u64;
    let _ = writeln!(out.lock(), "ready {t0} {t1} {} {hash} {load_ns}", now_ns());
    let _ = out.lock().flush();

    let stdin = std::io::stdin();
    let mut line = String::new();
    while stdin.lock().read_line(&mut line).is_ok_and(|n| n > 0) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let reply = match f.as_slice() {
            ["run", ms, expect, keep] => {
                let (ms, expect): (u64, u64) =
                    (ms.parse().unwrap_or(10), expect.parse().unwrap_or(0));
                let keep = *keep == "1";
                let mut samples = Vec::new();
                let (start, cpu0) = (now_ns(), process_cpu_ns());
                let (mut passes, mut bad, mut end) = (0u64, 0u64, start);
                while end - start < ms * 1_000_000 {
                    let p0 = now_ns();
                    bad += (stream.pass(how) != expect) as u64;
                    end = now_ns();
                    passes += 1;
                    if keep {
                        samples.push(end - p0);
                    }
                }
                ops += passes * STREAM_LEN as u64;
                let mut r = format!(
                    "done {start} {end} {} {passes} {bad}",
                    process_cpu_ns() - cpu0
                );
                for s in samples {
                    r.push_str(&format!(" {s}"));
                }
                r
            }
            ["stats"] => stats_line(&inst, ops),
            ["finish"] => finish_line(&mut inst),
            _ => format!("error unknown command {:?}", line.trim()),
        };
        let mut o = out.lock();
        let _ = writeln!(o, "{reply}");
        let _ = o.flush();
        line.clear();
    }
    drop(inst);
    std::process::exit(0);
}

/// Set-up timings of learning a `+sfip` policy from a `+record` trace.
pub struct Learned {
    /// Where the policy was saved.
    pub policy: std::path::PathBuf,
    /// `finish_recording` wall time, ns.
    pub finish_ns: Option<u64>,
    /// `read_trace_path` wall time per decoded event, ns.
    pub decode_ns_per_event: f64,
    /// `Policy::learn` wall time, ns.
    pub learn_ns: u64,
}

/// Environment a deployment needs: the hook library for `+hooks`, the
/// learned policy (audit mode) for `+sfip`, a trace file for `+record`.
/// Every value is printed with the result.
pub fn env_for(
    name: &str,
    tmp: &std::path::Path,
    policy: Option<&std::path::Path>,
) -> Vec<(String, String)> {
    let mut env = Vec::new();
    if name.ends_with("+hooks") {
        env.push((mechanism::HOOKS_ENV.to_string(), "hook_count".to_string()));
    }
    if name.ends_with("+sfip") || name == "direct:sfip" {
        let p = policy.map(|p| p.display().to_string()).unwrap_or_default();
        env.push((sfip::POLICY_ENV.to_string(), p));
        env.push((sfip::ACTION_ENV.to_string(), "count".to_string()));
    }
    if name.ends_with("+record") || name == "direct:record" {
        let file = format!(
            "{}-{}.lpt",
            name.replace([':', '+'], "_"),
            std::process::id()
        );
        env.push((
            mechanism::TRACE_OUT_ENV.to_string(),
            tmp.join(file).display().to_string(),
        ));
    }
    env
}

/// Decodes `trace`, learns a transition policy from it, and saves the
/// policy next to it. `None` (with a message) when the trace is
/// unusable — the `+sfip` deployments then fail to install and are
/// reported failed.
pub fn learn_policy(
    trace: &std::path::Path,
    tmp: &std::path::Path,
    op: u64,
    finish_ns: Option<u64>,
    tracer: &mut crate::trace::Tracer,
    parent: Option<usize>,
) -> Option<Learned> {
    let t0 = now_ns();
    let records = match replay::read_trace_path(trace) {
        Ok((_, r)) if !r.is_empty() => r,
        Ok(_) => {
            eprintln!("perfbench: {} holds no events", trace.display());
            return None;
        }
        Err(e) => {
            eprintln!("perfbench: reading {}: {e}", trace.display());
            return None;
        }
    };
    let t1 = now_ns();
    let policy = sfip::Policy::learn(&records, "lazypoline+record").ok()?;
    let t2 = now_ns();
    tracer.record("replay.decode", t0, t1, parent, op);
    tracer.record("sfip.learn", t1, t2, parent, op);
    let path = tmp.join(format!("policy-{op}.sfip"));
    policy.save(&path).ok()?;
    let _ = std::fs::remove_file(trace);
    Some(Learned {
        policy: path,
        finish_ns,
        decode_ns_per_event: (t1 - t0) as f64 / records.len() as f64,
        learn_ns: t2 - t1,
    })
}

/// The `syscall_mix` deployments (or the ladder's rungs), one child
/// each.
pub struct MixBench {
    /// The children, `none` first.
    pub workers: Vec<Worker>,
    reference: u64,
    /// Install wall time per deployment, ns.
    pub install_ns: std::collections::BTreeMap<String, u64>,
    /// `hookabi::load_from_spec` wall time in the `direct:hooks` child.
    pub load_ns: Option<u64>,
    /// Policy-learning timings, when a deployment needed a policy.
    pub learned: Option<Learned>,
}

/// Round length used while learning a policy.
const LEARN_MS: u64 = 50;

impl MixBench {
    /// Starts `none` (whose first pass fixes the reference hash), learns
    /// a policy from a `+record` child's trace when a deployment needs
    /// one, then starts the other deployments.
    pub fn setup(
        names: &[&str],
        seed: u64,
        tmp: &std::path::Path,
        cpu: Option<usize>,
        tracer: &mut crate::trace::Tracer,
        op: u64,
    ) -> MixBench {
        assert_eq!(names.first(), Some(&"none"), "none comes first");
        let root = tracer.begin("setup.mix", None, op);
        let mut bench = MixBench {
            workers: Vec::new(),
            reference: 0,
            install_ns: Default::default(),
            load_ns: None,
            learned: None,
        };
        let (none, reference) = bench.start("none", seed, Vec::new(), cpu, tracer, root, op);
        bench.reference = reference;
        bench.workers.push(none);
        let policy = if names
            .iter()
            .any(|n| n.ends_with("+sfip") || *n == "direct:sfip")
        {
            let trace = tmp.join(format!("mix-learn-{op}.lpt"));
            let env = vec![(
                mechanism::TRACE_OUT_ENV.to_string(),
                trace.display().to_string(),
            )];
            let (mut w, _) = bench.start("lazypoline+record", seed, env, cpu, tracer, root, op);
            w.request(&format!("run {LEARN_MS} {} 0", bench.reference), "learning");
            let fin = w
                .request("finish", "learning")
                .and_then(|r| fields(&r, "finished"));
            let finish_ns = fin.as_ref().map(|f| {
                tracer.record("replay.finish", f[0], f[1], root, op);
                f[1] - f[0]
            });
            w.finish();
            bench.learned = learn_policy(&trace, tmp, op, finish_ns, tracer, root);
            bench.learned.as_ref().map(|l| l.policy.clone())
        } else {
            None
        };
        for &name in &names[1..] {
            let env = env_for(name, tmp, policy.as_deref());
            let (w, _) = bench.start(name, seed, env, cpu, tracer, root, op);
            bench.workers.push(w);
        }
        tracer.end(root);
        bench
    }

    #[allow(clippy::too_many_arguments)]
    fn start(
        &mut self,
        name: &str,
        seed: u64,
        env: Vec<(String, String)>,
        cpu: Option<usize>,
        tracer: &mut crate::trace::Tracer,
        parent: Option<usize>,
        op: u64,
    ) -> (Worker, u64) {
        let span = tracer.begin(&format!("deploy.{name}"), parent, op);
        let mut w = Worker::spawn("mix", name, &[seed.to_string()], env, cpu)
            .unwrap_or_else(|e| panic!("spawning the {name} child: {e}"));
        let mut hash = 0;
        if let Some(f) = w.read_reply("install").and_then(|r| fields(&r, "ready")) {
            if let [t0, t1, t2, h, load] = f[..] {
                tracer.record("mechanism.install", t0, t1, span, op);
                tracer.record("warmup", t1, t2, span, op);
                self.install_ns.insert(name.to_string(), t1 - t0);
                if load > 0 {
                    tracer.record("hookabi.load", t0, t0 + load, span, op);
                    self.load_ns = Some(load);
                }
                hash = h;
            }
        }
        tracer.end(span);
        (w, hash)
    }

    /// Counter deltas since install of deployment `idx`.
    pub fn stats(&mut self, idx: usize) -> Vec<(String, u64)> {
        self.workers[idx]
            .request("stats", "stats")
            .map(|r| pairs(&r, "stats"))
            .unwrap_or_default()
    }

    /// Ends deployment `idx`'s trace session: `(events, bytes)`.
    pub fn finish_trace(&mut self, idx: usize) -> Option<(u64, u64)> {
        let f = fields(&self.workers[idx].request("finish", "finish")?, "finished")?;
        Some((f[2], f[3]))
    }
}

impl Deployments for MixBench {
    fn names(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.name.clone()).collect()
    }

    fn quantum(&mut self, idx: usize, ms: u64, keep: bool) -> Option<Quantum> {
        let gen0 = process_cpu_ns();
        let cmd = format!("run {ms} {} {}", self.reference, keep as u8);
        let reply = self.workers[idx].request(&cmd, "round")?;
        let f = fields(&reply, "done")?;
        let (start, end, cpu, passes, bad) = (f[0], f[1], f[2], f[3], f[4]);
        let ops = passes * STREAM_LEN as u64;
        Some(Quantum {
            cost: (end - start) as f64 / ops as f64,
            cpu: cpu as f64 / ops as f64,
            ops,
            failed: bad * STREAM_LEN as u64,
            samples: f[5..]
                .iter()
                .map(|&s| s as f64 / STREAM_LEN as f64)
                .collect(),
            wall_ns: end - start,
            gen_cpu_ns: process_cpu_ns() - gen0,
        })
    }
}
