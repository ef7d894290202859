//! Native end-to-end tests of the lazypoline engine, run in
//! subprocesses.
//!
//! Engine initialization permanently rewrites code in the running
//! process (that is the design), so every scenario executes in a
//! fresh re-execution of this test binary (`LP_SCENARIO=<name>`), and
//! the parent asserts on exit status. Custom harness (`harness =
//! false` in Cargo.toml).

use std::process::Command;

use interpose::{Action, CountHandler, PolicyBuilder, SyscallEvent, SyscallHandler};
use lazypoline::Config;
use std::sync::atomic::{AtomicU64, Ordering};

fn environment_ready() -> bool {
    zpoline::Trampoline::environment_supported() && sud::is_supported()
}

/// Installs a named backend from the mechanism registry around
/// `handler` — the scenarios' single entry point into native
/// interposition. (The fault-injection scenarios below bypass this and
/// drive `lazypoline::init` directly: they assert on engine internals
/// beneath the mechanism layer.)
fn install(name: &str, handler: Box<dyn SyscallHandler>) -> mechanism::ActiveMechanism {
    mechanism::by_name(name)
        .unwrap_or_else(|| panic!("unknown mechanism {name}"))
        .install(handler)
        .unwrap_or_else(|e| panic!("install {name}: {e}"))
}

// ——— scenarios (run in child processes) ————————————————————————————

fn scenario_engine_counts() {
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Fwd(&'static CountHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
    }
    let mut active = install("lazypoline", Box::new(Fwd(counter)));

    for _ in 0..50 {
        let _ = std::fs::metadata("/tmp");
    }
    let tmp = std::env::temp_dir().join(format!("lp-native-{}", std::process::id()));
    std::fs::write(&tmp, b"roundtrip").unwrap();
    let back = std::fs::read(&tmp).unwrap();
    std::fs::remove_file(&tmp).unwrap();
    assert_eq!(back, b"roundtrip");

    active.detach();
    let stats = active.stats();
    assert!(stats.sites_patched >= 3, "{stats:?}");
    assert!(stats.dispatches > stats.slow_path_hits, "{stats:?}");
    assert!(
        counter.count(syscalls::nr::STATX) >= 50
            || counter.count(syscalls::nr::NEWFSTATAT) >= 50,
        "metadata syscalls uncounted"
    );
}

fn scenario_signals() {
    static HANDLER_RAN: AtomicU64 = AtomicU64::new(0);
    static SEEN_KILL: AtomicU64 = AtomicU64::new(0);

    struct Spy;
    impl SyscallHandler for Spy {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == syscalls::nr::TGKILL || ev.call.nr == syscalls::nr::KILL {
                SEEN_KILL.fetch_add(1, Ordering::SeqCst);
            }
            Action::Passthrough
        }
    }

    extern "C" fn on_usr1(_sig: libc::c_int) {
        // Handler performs syscalls of its own — they must be
        // interposed too (paper Fig. 3 step ②).
        let _ = std::fs::metadata("/proc/self");
        HANDLER_RAN.fetch_add(1, Ordering::SeqCst);
    }

    let mut active = install("lazypoline", Box::new(Spy));

    unsafe {
        // Register through libc (this rt_sigaction is itself
        // interposed and wrapped).
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_usr1 as *const () as usize;
        sa.sa_flags = 0;
        assert_eq!(libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut()), 0);

        // Query must transparently report the app handler, not the
        // wrapper.
        let mut q: libc::sigaction = std::mem::zeroed();
        assert_eq!(libc::sigaction(libc::SIGUSR1, std::ptr::null(), &mut q), 0);
        assert_eq!(q.sa_sigaction, on_usr1 as *const () as usize);

        for _ in 0..5 {
            libc::raise(libc::SIGUSR1);
        }
    }
    assert_eq!(HANDLER_RAN.load(Ordering::SeqCst), 5);
    // After each delivery the selector must be live again: new syscall
    // sites still get discovered.
    let pre = active.stats().signals_wrapped;
    assert!(pre >= 5, "wrapped {pre}");
    assert!(sud::selector() == sud::Dispatch::Block, "selector lost");

    // The raise() syscalls themselves were observed.
    assert!(SEEN_KILL.load(Ordering::SeqCst) >= 1);
    active.detach();
}

fn scenario_threads() {
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Fwd(&'static CountHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
    }
    let mut active = install("lazypoline", Box::new(Fwd(counter)));

    // Threads created *after* enrollment are enrolled via the clone
    // shim (paper §IV-B(a)).
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let p = std::env::temp_dir().join(format!("lp-thread-{i}-{}", std::process::id()));
                for _ in 0..25 {
                    std::fs::write(&p, b"x").unwrap();
                    let _ = std::fs::read(&p).unwrap();
                }
                std::fs::remove_file(&p).unwrap();
                std::process::id()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), std::process::id());
    }
    active.detach();
    // 4 threads × 25 writes must all have been observed.
    assert!(
        counter.count(syscalls::nr::WRITE) >= 100,
        "writes observed: {}",
        counter.count(syscalls::nr::WRITE)
    );
    assert!(counter.count(syscalls::nr::UNLINK) + counter.count(syscalls::nr::UNLINKAT) >= 4);
}

fn scenario_fork() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let pid = libc::fork();
        assert!(pid >= 0);
        if pid == 0 {
            // Child: still interposed (re-enrolled); do some work.
            let before = lazypoline::stats().dispatches;
            let _ = std::fs::metadata("/tmp");
            let after = lazypoline::stats().dispatches;
            libc::_exit(if after > before { 33 } else { 1 });
        }
        let mut status = 0;
        libc::waitpid(pid, &mut status, 0);
        assert!(libc::WIFEXITED(status));
        assert_eq!(libc::WEXITSTATUS(status), 33, "child was not interposed");
    }
    active.detach();
}

fn scenario_sud_only() {
    // lazy_rewriting = false: a pure SUD interposer. Everything still
    // works, nothing is patched.
    let mut active = install("sud", Box::new(interpose::PassthroughHandler));
    let tmp = std::env::temp_dir().join(format!("lp-sudonly-{}", std::process::id()));
    std::fs::write(&tmp, b"pure sud").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"pure sud");
    std::fs::remove_file(&tmp).unwrap();
    active.detach();
    let stats = active.stats();
    assert_eq!(stats.sites_patched, 0, "{stats:?}");
    // Disabled rewriting is a *configuration* state, counted apart from
    // genuine patch failures.
    assert!(stats.disabled_mode_emulations >= 5, "{stats:?}");
    assert_eq!(stats.unpatchable_emulations, 0, "{stats:?}");
    assert!(stats.slow_path_hits >= 5, "{stats:?}");
}

fn scenario_xstate() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    // Interposed getpid with a live xmm sentinel (the Listing 1
    // pattern) — via the *slow path first*, then the fast path.
    for round in 0..3u64 {
        let sentinel = 0xfeed_0000_0000_0000u64 | round;
        let after: u64;
        let pid: u64;
        unsafe {
            std::arch::asm!(
                "movq xmm9, {sent}",
                "mov eax, 39",
                "syscall",
                "movq {after}, xmm9",
                sent = in(reg) sentinel,
                after = out(reg) after,
                out("rax") pid,
                out("rcx") _, out("r11") _,
                in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
                in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
            );
        }
        assert_eq!(pid, std::process::id() as u64, "round {round}");
        assert_eq!(after, sentinel, "xmm9 clobbered in round {round}");
    }
    active.detach();
    assert!(active.stats().sites_patched >= 1);
}

fn scenario_rewrite_stress() {
    // Many threads hammering overlapping syscall sites: the rewrite
    // spinlock and already-patched race handling must hold up.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                for j in 0..50 {
                    let p = std::env::temp_dir()
                        .join(format!("lp-stress-{i}-{}", std::process::id()));
                    std::fs::write(&p, format!("{j}")).unwrap();
                    let s = std::fs::read_to_string(&p).unwrap();
                    assert_eq!(s, format!("{j}"));
                    std::fs::remove_file(&p).unwrap();
                    let _ = std::fs::metadata("/tmp");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    active.detach();
    let stats = active.stats();
    assert!(stats.dispatches >= 1000, "{stats:?}");
}

fn scenario_policy_native() {
    let policy = PolicyBuilder::allow_by_default()
        .deny(syscalls::nr::SOCKET)
        .build();
    let mut active = install("lazypoline", Box::new(policy));
    let denied = std::net::TcpStream::connect("127.0.0.1:1").is_err();
    let allowed = std::fs::metadata("/tmp").is_ok();
    active.detach();
    assert!(denied && allowed);
}

fn scenario_post_rewrite() {
    // The post hook can rewrite results — here getpid is shifted by 7.
    struct Shift;
    impl SyscallHandler for Shift {
        fn handle(&self, _ev: &mut SyscallEvent) -> Action {
            Action::Passthrough
        }
        fn post(&self, ev: &SyscallEvent, ret: u64) -> u64 {
            if ev.call.nr == syscalls::nr::GETPID {
                ret + 7
            } else {
                ret
            }
        }
    }
    // Reference taken *before* interposition: once a site is patched
    // it keeps dispatching even after unenroll (one-way by design), so
    // a post-unenroll getpid would be rewritten too.
    let real = std::process::id() as u64;
    let mut active = install("lazypoline", Box::new(Shift));
    let seen = unsafe { libc::getpid() } as u64;
    active.detach();
    assert_eq!(seen, real + 7, "post hook did not rewrite the result");
}

fn scenario_latency_histogram() {
    let h: &'static interpose::LatencyHandler =
        Box::leak(Box::new(interpose::LatencyHandler::new()));
    struct Fwd(&'static interpose::LatencyHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
        fn post(&self, ev: &SyscallEvent, ret: u64) -> u64 {
            self.0.post(ev, ret)
        }
    }
    let mut active = install("lazypoline", Box::new(Fwd(h)));
    for _ in 0..200 {
        let _ = std::fs::metadata("/tmp");
    }
    active.detach();
    assert!(h.samples() >= 200, "samples {}", h.samples());
    let median = h.approx_median().unwrap();
    assert!(median > 16, "implausible syscall latency {median}");
}

fn scenario_sigprocmask_guard() {
    // An application blocking "all" signals must not be able to stall
    // interposition: the dispatcher strips SIGSYS from every mask.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let mut all: libc::sigset_t = std::mem::zeroed();
        libc::sigfillset(&mut all);
        assert_eq!(
            libc::pthread_sigmask(libc::SIG_BLOCK, &all, std::ptr::null_mut()),
            0
        );
        // A brand-new syscall site (distinct asm) must still be
        // discovered through SIGSYS even though the app asked for a
        // full block.
        let before = lazypoline::stats().slow_path_hits;
        let pid: u64;
        std::arch::asm!(
            "mov eax, 39",
            "syscall",
            out("rax") pid,
            out("rcx") _, out("r11") _,
            in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
            in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
        );
        let after = lazypoline::stats().slow_path_hits;
        assert_eq!(pid, std::process::id() as u64);
        assert!(after > before, "slow path stalled by sigprocmask");
        // And SIGSYS is indeed not blocked in the resulting mask.
        let mut cur: libc::sigset_t = std::mem::zeroed();
        libc::pthread_sigmask(libc::SIG_BLOCK, std::ptr::null(), &mut cur);
        assert_eq!(libc::sigismember(&cur, libc::SIGSYS), 0);
        assert_eq!(libc::sigismember(&cur, libc::SIGUSR2), 1);
        let mut none: libc::sigset_t = std::mem::zeroed();
        libc::sigemptyset(&mut none);
        libc::pthread_sigmask(libc::SIG_SETMASK, &none, std::ptr::null_mut());
    }
    active.detach();
}

fn scenario_nested_signals() {
    static OUTER: AtomicU64 = AtomicU64::new(0);
    static INNER: AtomicU64 = AtomicU64::new(0);

    extern "C" fn on_usr2(_sig: libc::c_int) {
        INNER.fetch_add(1, Ordering::SeqCst);
        let _ = std::fs::metadata("/proc/self/status");
    }
    extern "C" fn on_usr1(_sig: libc::c_int) {
        OUTER.fetch_add(1, Ordering::SeqCst);
        unsafe { libc::raise(libc::SIGUSR2) };
        // More interposed work after the nested delivery returned.
        let _ = std::fs::metadata("/proc/self");
    }

    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_usr1 as *const () as usize;
        libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut());
        let mut sa2: libc::sigaction = std::mem::zeroed();
        sa2.sa_sigaction = on_usr2 as *const () as usize;
        libc::sigaction(libc::SIGUSR2, &sa2, std::ptr::null_mut());
        for _ in 0..3 {
            libc::raise(libc::SIGUSR1);
        }
    }
    assert_eq!(OUTER.load(Ordering::SeqCst), 3);
    assert_eq!(INNER.load(Ordering::SeqCst), 3);
    assert_eq!(sud::selector(), sud::Dispatch::Block, "selector lost");
    let wrapped = lazypoline::stats().signals_wrapped;
    assert!(wrapped >= 6, "wrapped {wrapped}");
    active.detach();
    // Still fully functional afterwards.
    assert!(std::fs::metadata("/tmp").is_ok());
}

fn scenario_path_remap() {
    // Deep pointer inspection + rewriting: redirect a well-known path
    // to a file we control — the expressiveness seccomp-bpf cannot
    // provide (paper §II-A: "does not allow … dereferencing pointers").
    let decoy = std::env::temp_dir().join(format!("lp-decoy-{}", std::process::id()));
    std::fs::write(&decoy, b"remapped contents\n").unwrap();
    let remap = interpose::PathRemapHandler::new()
        .rule("/etc/hostname", decoy.to_str().unwrap());
    let mut active = install("lazypoline", Box::new(remap));
    let seen = std::fs::read_to_string("/etc/hostname").unwrap();
    let untouched = std::fs::read_to_string("/proc/self/comm").unwrap();
    active.detach();
    std::fs::remove_file(&decoy).unwrap();
    assert_eq!(seen, "remapped contents\n", "open was not redirected");
    assert!(!untouched.is_empty(), "unrelated opens broke");
}

/// Emits `count` tiny JIT functions (`mov eax, GETPID; syscall; ret`)
/// at 64-byte intervals on one freshly mapped RWX page, padding with
/// `ret` so a linear sweep of the page stays synchronized. Returns the
/// page base.
unsafe fn emit_getpid_page(count: usize) -> *mut u8 {
    assert!(count * 64 <= 4096);
    let page = libc::mmap(
        std::ptr::null_mut(),
        4096,
        libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
        libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
        -1,
        0,
    );
    assert_ne!(page, libc::MAP_FAILED);
    let p = page as *mut u8;
    std::ptr::write_bytes(p, 0xc3, 4096);
    for i in 0..count {
        let code: [u8; 8] = [
            0xb8,
            syscalls::nr::GETPID as u8,
            0,
            0,
            0, // mov eax, 39
            0x0f,
            0x05, // syscall
            0xc3, // ret
        ];
        std::ptr::copy_nonoverlapping(code.as_ptr(), p.add(i * 64), code.len());
    }
    p
}

const JIT_SITES: usize = 8;

fn scenario_batch_rewrite() {
    // Multi-site workload, batching on (the default): the FIRST site's
    // SIGSYS must patch every site on the page, so the remaining calls
    // all enter through the fast path.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    unsafe {
        let p = emit_getpid_page(JIT_SITES);
        // Resolve the expected pid *before* the measurement window:
        // libc's own getpid syscall site would otherwise contribute
        // its SIGSYS to the counters being asserted on.
        let pid = std::process::id() as u64;
        let before = lazypoline::stats();
        for i in 0..JIT_SITES {
            let f: extern "C" fn() -> u64 = std::mem::transmute(p.add(i * 64));
            assert_eq!(f(), pid, "site {i}");
        }
        let after = lazypoline::stats();
        let slow = after.slow_path_hits - before.slow_path_hits;
        let patched = after.sites_patched - before.sites_patched;
        // One SIGSYS patched the whole page; every subsequent site was
        // already `call rax` when first executed.
        assert_eq!(slow, 1, "batch did not amortize SIGSYS: {after:?}");
        assert!(patched >= JIT_SITES as u64, "page not swept: {after:?}");
        libc::munmap(p as *mut _, 4096);
    }
    active.detach();
}

fn scenario_batch_ablation() {
    // Same workload with batch_rewriting off: every site pays its own
    // SIGSYS — the baseline batch rewriting is measured against.
    let mut active = install("lazypoline-nobatch", Box::new(interpose::PassthroughHandler));
    unsafe {
        let p = emit_getpid_page(JIT_SITES);
        // Keep libc's getpid site out of the measurement window (see
        // scenario_batch_rewrite).
        let pid = std::process::id() as u64;
        let before = lazypoline::stats();
        for i in 0..JIT_SITES {
            let f: extern "C" fn() -> u64 = std::mem::transmute(p.add(i * 64));
            assert_eq!(f(), pid, "site {i}");
        }
        let after = lazypoline::stats();
        let slow = after.slow_path_hits - before.slow_path_hits;
        assert_eq!(
            slow, JIT_SITES as u64,
            "expected one SIGSYS per site without batching: {after:?}"
        );
        libc::munmap(p as *mut _, 4096);
    }
    active.detach();
}

// ——— robustness scenarios (fault injection / degradation) ———————————

/// One interposable `getpid` through inline asm — a single, distinct
/// syscall site owned by this test (`#[inline(never)]` keeps it one
/// site however often it is called).
#[inline(never)]
fn asm_getpid() -> u64 {
    let ret: u64;
    unsafe {
        std::arch::asm!(
            "mov eax, 39",
            "syscall",
            out("rax") ret,
            out("rcx") _, out("r11") _,
            in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
            in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
        );
    }
    ret
}

fn scenario_fault_sud_only() {
    // The trampoline install fails (injected) → the engine must degrade
    // to Mode::SudOnly and still observe every syscall.
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Fwd(&'static CountHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
    }
    interpose::set_global_handler(Box::new(Fwd(counter)));
    faultinject::arm(
        faultinject::Site::TrampolineInstall,
        faultinject::Schedule::FirstK(1),
        None,
    );
    let engine = lazypoline::init(Config::default()).expect("init must degrade, not fail");
    assert_eq!(lazypoline::mode(), lazypoline::Mode::SudOnly);
    assert!(engine.is_enrolled());

    let pid = std::process::id() as u64;
    for i in 0..20 {
        assert_eq!(asm_getpid(), pid, "call {i}");
    }
    let tmp = std::env::temp_dir().join(format!("lp-fsud-{}", std::process::id()));
    std::fs::write(&tmp, b"degraded but alive").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"degraded but alive");
    std::fs::remove_file(&tmp).unwrap();

    engine.unenroll_current_thread();
    let h = lazypoline::health();
    assert_eq!(h.mode, lazypoline::Mode::SudOnly);
    assert!(h.faults_injected >= 1, "{h:?}");
    assert_eq!(h.stats.sites_patched, 0, "SudOnly must never rewrite: {h:?}");
    assert!(h.stats.disabled_mode_emulations >= 20, "{h:?}");
    assert!(
        counter.count(syscalls::nr::GETPID) >= 20,
        "lost interpositions in SudOnly: {}",
        counter.count(syscalls::nr::GETPID)
    );
    faultinject::disarm_all();
}

fn scenario_fault_unpatchable_page() {
    // A page whose mprotect persistently fails (injected): bounded
    // retry, then blocklist; the syscall itself must still succeed via
    // emulation, and the site's bytes stay untouched.
    interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
    let engine = lazypoline::init(Config::default()).expect("init");
    unsafe {
        let p = emit_getpid_page(2);
        let pid = std::process::id() as u64;
        let f0: extern "C" fn() -> u64 = std::mem::transmute(p);
        let f1: extern "C" fn() -> u64 = std::mem::transmute(p.add(64));
        // Warm the snapshot path so the armed window below performs no
        // syscalls besides the JIT sites under test.
        let _ = lazypoline::health();

        faultinject::arm(
            faultinject::Site::PatchMprotect,
            faultinject::Schedule::EveryNth(1),
            None, // default EAGAIN: transient, so the retry loop engages
        );
        let before = lazypoline::health();
        let r0 = f0();
        let mid = lazypoline::health();
        let mut rs = [0u64; 5];
        for r in rs.iter_mut() {
            *r = f0();
        }
        let after = lazypoline::health();
        faultinject::disarm(faultinject::Site::PatchMprotect);

        // (Asserting only now: format!/panic machinery may syscall.)
        assert_eq!(r0, pid, "emulation returned the wrong result");
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(*r, pid, "blocklisted call {i}");
        }
        // Exactly one retry burst: initial attempt + PATCH_RETRY_LIMIT
        // retries, then the page was blocklisted.
        assert_eq!(
            mid.stats.patch_retries - before.stats.patch_retries,
            3,
            "{mid:?}"
        );
        assert_eq!(
            mid.stats.pages_blocklisted - before.stats.pages_blocklisted,
            1,
            "{mid:?}"
        );
        assert_eq!(mid.patch_blocklist_pages - before.patch_blocklist_pages, 1);
        assert_eq!(
            mid.stats.unpatchable_emulations - before.stats.unpatchable_emulations,
            1
        );
        assert_eq!(mid.faults_injected - before.faults_injected, 4);
        // The five follow-up trips short-circuited on the blocklist: no
        // further patch attempts, no further retries.
        assert_eq!(
            after.stats.patch_retries, mid.stats.patch_retries,
            "{after:?}"
        );
        assert_eq!(after.faults_injected, mid.faults_injected, "{after:?}");
        assert_eq!(
            after.stats.unpatchable_emulations - mid.stats.unpatchable_emulations,
            5
        );
        assert_eq!(after.stats.pages_blocklisted, mid.stats.pages_blocklisted);
        // The site's bytes were never rewritten.
        assert_eq!(*p.add(5), 0x0f, "syscall opcode gone");
        assert_eq!(*p.add(6), 0x05, "syscall opcode gone");

        // Even disarmed, the other site on the same page goes straight
        // to emulation via the blocklist.
        let s0 = lazypoline::stats();
        assert_eq!(f1(), pid);
        let s1 = lazypoline::stats();
        assert_eq!(s1.unpatchable_emulations - s0.unpatchable_emulations, 1);
        assert_eq!(s1.sites_patched, s0.sites_patched);

        // A fresh page is unaffected and patches normally.
        let q = emit_getpid_page(1);
        let g: extern "C" fn() -> u64 = std::mem::transmute(q);
        assert_eq!(g(), pid);
        let s2 = lazypoline::stats();
        assert!(s2.sites_patched > s1.sites_patched, "{s2:?}");
        libc::munmap(q as *mut _, 4096);
        libc::munmap(p as *mut _, 4096);
    }
    engine.unenroll_current_thread();
}

fn scenario_fault_soak() {
    // Multi-threaded hammer with each seam armed in turn; nothing may
    // abort and no interposition may be lost.
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Fwd(&'static CountHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
    }
    interpose::set_global_handler(Box::new(Fwd(counter)));

    // Phase 1 arms via the environment path (covers arm_from_env).
    std::env::set_var("LAZYPOLINE_FAULTS", "patch_mprotect:every=5");
    let engine = lazypoline::init(Config::default()).expect("init");
    assert_eq!(lazypoline::mode(), lazypoline::Mode::Hybrid);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let p = std::env::temp_dir().join(format!("lp-soak-{i}-{}", std::process::id()));
                for _ in 0..50 {
                    std::fs::write(&p, b"x").unwrap();
                    let _ = std::fs::read(&p).unwrap();
                }
                std::fs::remove_file(&p).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        counter.count(syscalls::nr::WRITE) >= 200,
        "lost writes under patch faults: {}",
        counter.count(syscalls::nr::WRITE)
    );
    assert!(
        faultinject::injected(faultinject::Site::PatchMprotect) > 0,
        "env-armed seam never fired"
    );
    assert!(lazypoline::stats().patch_retries > 0, "retry path never exercised");
    faultinject::disarm(faultinject::Site::PatchMprotect);

    // Phase 2: dropped selector writes — repaired transparently.
    let base = counter.count(syscalls::nr::WRITE);
    faultinject::arm_from_spec("selector_write:every=7").unwrap();
    let p = std::env::temp_dir().join(format!("lp-soak-sel-{}", std::process::id()));
    for _ in 0..50 {
        std::fs::write(&p, b"y").unwrap();
    }
    std::fs::remove_file(&p).unwrap();
    faultinject::disarm(faultinject::Site::SelectorWrite);
    assert!(counter.count(syscalls::nr::WRITE) >= base + 50);
    assert!(faultinject::injected(faultinject::Site::SelectorWrite) > 0);

    // Phase 3: transient enrollment failure at thread creation — the
    // clone shim's bounded retry must still enroll the thread.
    let base = counter.count(syscalls::nr::WRITE);
    faultinject::arm(
        faultinject::Site::SudEnroll,
        faultinject::Schedule::FirstK(2),
        None,
    );
    std::thread::spawn(|| {
        let p = std::env::temp_dir().join(format!("lp-soak-enr-{}", std::process::id()));
        for _ in 0..25 {
            std::fs::write(&p, b"z").unwrap();
        }
        std::fs::remove_file(&p).unwrap();
    })
    .join()
    .unwrap();
    faultinject::disarm_all();
    assert!(
        counter.count(syscalls::nr::WRITE) >= base + 25,
        "thread lost interposition after transient enroll faults"
    );
    assert_eq!(faultinject::injected(faultinject::Site::SudEnroll), 2);

    engine.unenroll_current_thread();
    let h = lazypoline::health();
    assert!(h.faults_injected >= 3, "{h:?}");
    assert_eq!(h.quarantined_handlers, 0, "{h:?}");
}

fn scenario_fault_soak_sudonly() {
    // Pure-SUD hammer with emulation faults (EINTR) and dropped
    // selector writes injected concurrently: every call either succeeds
    // or observes a clean EINTR — never a wrong result, never a crash.
    use std::sync::atomic::AtomicBool;
    static READY: AtomicU64 = AtomicU64::new(0);
    static START: AtomicBool = AtomicBool::new(false);
    static DONE: AtomicU64 = AtomicU64::new(0);
    static EXIT: AtomicBool = AtomicBool::new(false);
    static OK_CALLS: AtomicU64 = AtomicU64::new(0);
    static EINTR_CALLS: AtomicU64 = AtomicU64::new(0);
    static BAD_CALLS: AtomicU64 = AtomicU64::new(0);
    const THREADS: u64 = 4;
    const CALLS: u64 = 200;

    interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
    let engine = lazypoline::init(Config {
        lazy_rewriting: false,
        ..Config::default()
    })
    .expect("init");
    let pid = std::process::id() as u64;
    let eintr = syscalls::Errno::EINTR.as_ret();

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                // Allocation- and syscall-free between the gates: with
                // the emulate seam armed, *any* syscall can fail.
                READY.fetch_add(1, Ordering::SeqCst);
                while !START.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                for _ in 0..CALLS {
                    let r = asm_getpid();
                    if r == pid {
                        OK_CALLS.fetch_add(1, Ordering::SeqCst);
                    } else if r == eintr {
                        EINTR_CALLS.fetch_add(1, Ordering::SeqCst);
                    } else {
                        BAD_CALLS.fetch_add(1, Ordering::SeqCst);
                    }
                }
                DONE.fetch_add(1, Ordering::SeqCst);
                while !EXIT.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();

    // Arm only once every thread is parked at the start line — thread
    // startup itself performs syscalls that must stay clean.
    while READY.load(Ordering::SeqCst) < THREADS {
        std::hint::spin_loop();
    }
    faultinject::arm(
        faultinject::Site::SlowpathEmulate,
        faultinject::Schedule::EveryNth(7),
        None, // default EINTR
    );
    faultinject::arm(
        faultinject::Site::SelectorWrite,
        faultinject::Schedule::EveryNth(9),
        None,
    );
    START.store(true, Ordering::SeqCst);
    while DONE.load(Ordering::SeqCst) < THREADS {
        std::hint::spin_loop();
    }
    faultinject::disarm_all();
    EXIT.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }

    let ok = OK_CALLS.load(Ordering::SeqCst);
    let intr = EINTR_CALLS.load(Ordering::SeqCst);
    let bad = BAD_CALLS.load(Ordering::SeqCst);
    assert_eq!(bad, 0, "corrupted syscall results under fault soak");
    assert_eq!(ok + intr, THREADS * CALLS, "lost calls");
    assert!(ok > 0 && intr > 0, "soak did not exercise both outcomes: ok={ok} intr={intr}");
    assert_eq!(
        intr,
        faultinject::injected(faultinject::Site::SlowpathEmulate),
        "every injected emulate fault must surface as exactly one EINTR"
    );
    assert!(faultinject::injected(faultinject::Site::SelectorWrite) > 0);
    assert_eq!(sud::selector(), sud::Dispatch::Block, "selector repair failed");
    engine.unenroll_current_thread();
}

fn scenario_panic_quarantine() {
    // A handler panicking mid-stream is quarantined: the panic is
    // contained, the triggering syscall and all later ones pass
    // through, and a fresh handler revives interposition.
    static EVENTS: AtomicU64 = AtomicU64::new(0);
    struct PanicOnThird;
    impl SyscallHandler for PanicOnThird {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == syscalls::nr::GETPID {
                let n = EVENTS.fetch_add(1, Ordering::SeqCst) + 1;
                if n == 3 {
                    panic!("deliberate handler bug on event {n}");
                }
            }
            Action::Passthrough
        }
    }

    let pid = std::process::id() as u64;
    // The panic is expected; keep its backtrace out of the output.
    std::panic::set_hook(Box::new(|_| {}));
    interpose::set_global_handler(Box::new(PanicOnThird));
    let engine = lazypoline::init(Config::default()).expect("init");

    for i in 0..10 {
        assert_eq!(asm_getpid(), pid, "call {i} returned garbage");
    }
    assert_eq!(
        EVENTS.load(Ordering::SeqCst),
        3,
        "handler kept running after its panic"
    );
    let h = lazypoline::health();
    assert_eq!(h.quarantined_handlers, 1, "{h:?}");

    // Installing a fresh handler lifts the quarantine.
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Fwd(&'static CountHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
    }
    interpose::set_global_handler(Box::new(Fwd(counter)));
    for _ in 0..5 {
        assert_eq!(asm_getpid(), pid);
    }
    assert!(
        counter.count(syscalls::nr::GETPID) >= 5,
        "interposition not revived after quarantine"
    );
    assert_eq!(lazypoline::health().quarantined_handlers, 1);
    engine.unenroll_current_thread();
}

fn scenario_fault_prescan_only() {
    // SUD enrollment fails persistently (injected) → the engine must
    // degrade to Mode::PrescanOnly: statically rewritten libc sites
    // still dispatch, nothing SIGSYS-based runs.
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Fwd(&'static CountHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
    }
    interpose::set_global_handler(Box::new(Fwd(counter)));
    faultinject::arm(
        faultinject::Site::SudEnroll,
        faultinject::Schedule::EveryNth(1),
        None,
    );
    let engine = lazypoline::init(Config::default()).expect("init must degrade, not fail");
    faultinject::disarm_all();

    assert_eq!(lazypoline::mode(), lazypoline::Mode::PrescanOnly);
    assert!(!engine.is_enrolled(), "nothing to enroll in without SUD");

    let tmp = std::env::temp_dir().join(format!("lp-prescan-{}", std::process::id()));
    std::fs::write(&tmp, b"prescan").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"prescan");
    std::fs::remove_file(&tmp).unwrap();

    let h = lazypoline::health();
    assert_eq!(h.mode, lazypoline::Mode::PrescanOnly);
    assert!(h.faults_injected >= 1, "{h:?}");
    assert_eq!(h.stats.slow_path_hits, 0, "SIGSYS fired without SUD: {h:?}");
    assert!(h.stats.sites_patched >= 1, "prescan rewrote nothing: {h:?}");
    assert!(
        counter.count(syscalls::nr::WRITE) >= 1,
        "prescanned libc write not interposed"
    );
}

fn scenario_degraded_smoke() {
    // Honors whatever LAZYPOLINE_FAULTS the harness (e.g. the CI fault
    // matrix) passed through: init must succeed — degraded if need be —
    // and basic I/O must keep working. A `pkey_*` seam is only reached
    // by the hardened installer, so that spec installs it and expects
    // the MPK rung to degrade to the seccomp backstop alone.
    let spec = std::env::var("LAZYPOLINE_FAULTS").unwrap_or_default();
    let pkey_spec = spec.contains("pkey_");
    let (_hardened, engine) = if pkey_spec {
        let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
        (Some(active), None)
    } else {
        interpose::set_global_handler(Box::new(interpose::PassthroughHandler));
        let engine = lazypoline::init(Config::default()).expect("init must degrade, not fail");
        (None, Some(engine))
    };

    let tmp = std::env::temp_dir().join(format!("lp-degraded-{}", std::process::id()));
    std::fs::write(&tmp, b"degraded").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"degraded");
    std::fs::remove_file(&tmp).unwrap();

    let h = lazypoline::health();
    let expected = if spec.contains("trampoline_install") {
        lazypoline::Mode::SudOnly
    } else if spec.contains("sud_enroll") {
        lazypoline::Mode::PrescanOnly
    } else {
        lazypoline::Mode::Hybrid
    };
    assert_eq!(h.mode, expected, "spec={spec:?} health={h:?}");
    if pkey_spec {
        assert_eq!(
            h.harden,
            lazypoline::harden::HardenLevel::BackstopOnly,
            "spec={spec:?} health={h:?}"
        );
        println!("degraded_smoke: harden level {:?}", h.harden);
    }
    if !spec.is_empty() {
        assert!(h.faults_injected >= 1, "armed faults never fired: {h:?}");
    }
    if let Some(engine) = engine {
        engine.unenroll_current_thread();
    }
}

// ——— mechanism-layer scenarios ——————————————————————————————————————

/// One syscall to the non-existent number 500 through inline asm — a
/// single distinct site, like [`asm_getpid`].
#[inline(never)]
fn asm_nosys() -> u64 {
    let ret: u64;
    unsafe {
        std::arch::asm!(
            "mov eax, 500",
            "syscall",
            out("rax") ret,
            out("rcx") _, out("r11") _,
            in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
            in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
        );
    }
    ret
}

fn scenario_mechanism_differential() {
    // Cross-mechanism differential: a fixed syscall workload must
    // produce identical observable results under every native backend,
    // each constructed purely by registry name. Backends differ only in
    // *how many* events they can observe (exhaustive vs one-shot vs
    // none), never in what the application sees.
    static GETPID_SEEN: AtomicU64 = AtomicU64::new(0);
    static NOSYS_SEEN: AtomicU64 = AtomicU64::new(0);
    struct Recorder;
    impl SyscallHandler for Recorder {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            if ev.call.nr == syscalls::nr::GETPID {
                GETPID_SEEN.fetch_add(1, Ordering::SeqCst);
            } else if ev.call.nr == syscalls::NONEXISTENT_SYSCALL {
                NOSYS_SEEN.fetch_add(1, Ordering::SeqCst);
            }
            Action::Passthrough
        }
    }

    // Execution order matters only for the SIGSYS owners: `none` and
    // `sud-allow` run first so the asm sites are still virgin (no
    // trampoline dispatch can reach a handler), and `sud-raw` must
    // precede any engine-backed row (it owns the SIGSYS disposition).
    let backends: &[(&str, bool)] = &[
        // (name, exhaustive observation expected)
        ("none", false),
        ("sud-allow", false),
        ("sud-raw", false),
        ("sud", true),
        ("lazypoline", true),
        ("lazypoline-nox", true),
        ("lazypoline-nobatch", true),
        ("zpoline", true),
    ];

    let pid = std::process::id() as u64;
    let enosys = syscalls::Errno::ENOSYS.as_ret();
    let mut reference: Option<Vec<u64>> = None;
    for &(name, exhaustive) in backends {
        GETPID_SEEN.store(0, Ordering::SeqCst);
        NOSYS_SEEN.store(0, Ordering::SeqCst);
        let mut active = install(name, Box::new(Recorder));
        let mut results = Vec::new();
        for _ in 0..8 {
            results.push(asm_getpid());
        }
        results.push(asm_nosys());
        active.detach();
        let stats = active.stats();
        drop(active);

        // 1. Observable results are identical across every backend.
        assert_eq!(results[..8], [pid; 8], "{name}: wrong getpid results");
        assert_eq!(results[8], enosys, "{name}: wrong ENOSYS result");
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(*r, results, "{name}: differs from reference"),
        }

        // 2. Observation counts match each backend's contract.
        let getpids = GETPID_SEEN.load(Ordering::SeqCst);
        let nosys = NOSYS_SEEN.load(Ordering::SeqCst);
        if exhaustive {
            assert!(getpids >= 8, "{name}: observed {getpids} < 8 getpids");
            assert!(nosys >= 1, "{name}: missed the nr-500 syscall");
            assert!(stats.dispatches >= 9, "{name}: {stats:?}");
        } else if name == "sud-raw" {
            // One-shot per arming: exactly the first syscall.
            assert_eq!(getpids, 1, "{name}: one-shot contract broken");
            assert_eq!(nosys, 0, "{name}");
            assert_eq!(stats.dispatches, 1, "{name}: {stats:?}");
        } else {
            assert_eq!(getpids + nosys, 0, "{name}: observed without a mechanism");
            assert_eq!(stats.dispatches, 0, "{name}: {stats:?}");
        }
    }
}

fn scenario_mechanism_smoke() {
    // Honors whatever LP_MECHANISM the harness (e.g. the CI mechanism
    // matrix) passed through: the named backend must install, interpose
    // a small workload, and tear down cleanly.
    let backend = mechanism::from_env()
        .unwrap_or_else(|e| panic!("LP_MECHANISM must name a registered mechanism: {e}"));
    // Names with an `+sfip` layer need a policy at install. CI's
    // enforce rows export a learned LP_SFIP_POLICY; when the harness
    // didn't, an allow-everything policy keeps the row exercising the
    // check path (counted per syscall) without constraining the
    // workload.
    struct Scratch(Option<std::path::PathBuf>);
    impl Drop for Scratch {
        fn drop(&mut self) {
            if let Some(p) = self.0.take() {
                let _ = std::fs::remove_file(p);
            }
        }
    }
    let mut scratch = Scratch(None);
    if mechanism::has_layer(backend.name(), "sfip")
        && std::env::var_os(sfip::POLICY_ENV).is_none()
    {
        let path = std::env::temp_dir().join(format!("lp-smoke-{}.sfip", std::process::id()));
        sfip::Policy::allow_all("smoke").save(&path).expect("policy saves");
        std::env::set_var(sfip::POLICY_ENV, &path);
        if std::env::var_os(sfip::ACTION_ENV).is_none() {
            std::env::set_var(sfip::ACTION_ENV, "count");
        }
        scratch.0 = Some(path);
    }
    if backend.name().starts_with("sim:") {
        // Simulated backend: drive a canned program through the same
        // trait instead of this process's syscalls.
        let mut active = backend
            .install(Box::new(interpose::PassthroughHandler))
            .expect("sim install");
        let outcome = active
            .run_program(&sim_workloads::bench::microbench(50))
            .expect("sim run");
        assert_eq!(outcome.exit, 0, "{}: bad exit", active.mechanism_name());
        if mechanism::has_layer(active.mechanism_name(), "hooks") {
            let s = active.stats();
            assert!(
                s.hooks_loaded > 0,
                "{}: LP_HOOKS loaded no hooks — the matrix row is vacuous",
                active.mechanism_name()
            );
        }
        if mechanism::has_layer(active.mechanism_name(), "sfip") {
            let s = active.stats();
            assert!(
                s.sfip_checks > 0,
                "{}: no syscalls were flow-checked — the matrix row is vacuous",
                active.mechanism_name()
            );
        }
        println!(
            "mechanism {}: simulated, {} syscalls observed",
            active.mechanism_name(),
            outcome.observed.len()
        );
        return;
    }
    if !backend.is_available() {
        println!("mechanism {}: unavailable on this host, skipping", backend.name());
        return;
    }
    if backend.name() == "sud-raw" && lazypoline::Engine::is_initialized() {
        println!("mechanism sud-raw: engine already initialized, skipping");
        return;
    }
    let mut active = backend
        .install(Box::new(interpose::PassthroughHandler))
        .unwrap_or_else(|e| panic!("install {}: {e}", backend.name()));
    let pid = std::process::id() as u64;
    for i in 0..10 {
        assert_eq!(asm_getpid(), pid, "call {i}");
    }
    let tmp = std::env::temp_dir().join(format!("lp-mech-smoke-{}", std::process::id()));
    std::fs::write(&tmp, b"smoke").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"smoke");
    std::fs::remove_file(&tmp).unwrap();
    active.detach();
    let stats = active.stats();
    if mechanism::has_layer(active.mechanism_name(), "hooks") {
        assert!(
            stats.hooks_loaded > 0,
            "{}: LP_HOOKS loaded no hooks — the matrix row is vacuous",
            active.mechanism_name()
        );
        assert!(stats.hook_dispatches > 0, "loaded hooks saw no syscalls");
    }
    if mechanism::has_layer(active.mechanism_name(), "sfip") {
        assert!(
            stats.sfip_checks > 0,
            "{}: no syscalls were flow-checked — the matrix row is vacuous",
            active.mechanism_name()
        );
    }
    println!(
        "mechanism {}: {} dispatches, {} slow-path, {} patched",
        active.mechanism_name(),
        stats.dispatches,
        stats.slow_path_hits,
        stats.sites_patched
    );
}

fn scenario_record_replay_native() {
    // Smoke the flight recorder against the real engine: record this
    // process's own syscalls into a trace, then re-install against the
    // trace in replay mode. Native replay is best-effort (ambient
    // runtime syscalls diverge), so the assertion is structural: both
    // phases install, run, and tear down without panicking, and the
    // recorded trace is well-formed with nonzero events.
    let trace = std::env::temp_dir().join(format!("lp-rr-native-{}.lpt", std::process::id()));
    std::env::set_var("LP_TRACE_OUT", &trace);
    let backend = mechanism::by_name("lazypoline+record").expect("+record composes natively");
    let mut active = backend
        .install(Box::new(interpose::PassthroughHandler))
        .expect("native record install");
    let pid = std::process::id() as u64;
    for _ in 0..10 {
        assert_eq!(asm_getpid(), pid);
    }
    let probe = std::env::temp_dir().join(format!("lp-rr-probe-{}", std::process::id()));
    std::fs::write(&probe, b"recorded").unwrap();
    assert_eq!(std::fs::read(&probe).unwrap(), b"recorded");
    std::fs::remove_file(&probe).unwrap();
    active.detach();
    let stats = active.stats();
    let summary = active
        .finish_recording()
        .expect("trace session active")
        .expect("trace finishes");
    std::env::remove_var("LP_TRACE_OUT");
    assert!(summary.events > 0, "recorded nothing");
    assert!(stats.events_recorded > 0, "stats missed the recorder");

    // The trace is well-formed and attributes its source mechanism.
    let (header, records) = replay::read_trace_path(&trace).expect("recorded trace parses");
    assert_eq!(header.source_mechanism, "lazypoline");
    assert_eq!(records.len() as u64, summary.events);
    assert!(
        records.iter().any(|r| r.sysno == syscalls::nr::GETPID),
        "the getpid loop must appear in the trace"
    );

    // Replay smoke: the backend installs from the trace and tears down;
    // divergence counting is exercised but not asserted to be zero.
    let name = format!("replay:{}", trace.display());
    let mut active = mechanism::by_name(&name)
        .expect("replay name parses")
        .install(Box::new(interpose::PassthroughHandler))
        .expect("native replay install");
    for _ in 0..3 {
        asm_getpid();
    }
    active.detach();
    let state = active.replay_state().expect("replay backend").clone();
    println!(
        "record/replay native: {} events recorded, replay consumed {}/{} ({} divergences)",
        summary.events,
        state.position(),
        state.len(),
        state.divergences()
    );
    drop(active);
    std::fs::remove_file(&trace).unwrap();
}

/// `dlsym`s a `() -> u64` counter getter out of an example hook library
/// (`dlopen` of an already-loaded path returns the existing module, so
/// the value read is the live hook's state).
fn hook_getter(lib: &str, symbol: &str) -> extern "C" fn() -> u64 {
    let path =
        std::ffi::CString::new(hookabi::resolve_library(lib).to_str().unwrap()).unwrap();
    let sym = std::ffi::CString::new(symbol).unwrap();
    unsafe {
        let handle = libc::dlopen(path.as_ptr(), libc::RTLD_NOW | libc::RTLD_LOCAL);
        assert!(!handle.is_null(), "dlopen {lib}");
        let ptr = libc::dlsym(handle, sym.as_ptr());
        assert!(!ptr.is_null(), "dlsym {symbol}");
        std::mem::transmute::<*mut libc::c_void, extern "C" fn() -> u64>(ptr)
    }
}

fn scenario_hook_stack_native() {
    // Runtime hook stacks against the real engine: the LP_HOOKS
    // libraries stack by priority around the compiled-in handler,
    // survive fork's SUD re-arm, and detach mid-workload without a
    // crash or a missed syscall for the survivors.
    std::env::set_var("LP_HOOKS", "hook_count:20,hook_openat");
    let counter: &'static CountHandler = Box::leak(Box::new(CountHandler::new()));
    struct Fwd(&'static CountHandler);
    impl SyscallHandler for Fwd {
        fn handle(&self, ev: &mut SyscallEvent) -> Action {
            self.0.handle(ev)
        }
        fn name(&self) -> &str {
            "count"
        }
    }
    let mut active = install("lazypoline+hooks", Box::new(Fwd(counter)));
    std::env::remove_var("LP_HOOKS");

    let count_total = hook_getter("hook_count", "lp_hook_count_total");
    let openat_total = hook_getter("hook_openat", "lp_hook_openat_total");

    // Priority order: spec override 20, compiled-in 0 (priority ties
    // break by attach sequence), descriptor 0.
    let entries = active.hook_stack().expect("+hooks exposes the stack").entries();
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["hook_count", "count", "hook_openat"], "{entries:?}");
    assert_eq!(active.stats().hooks_loaded, 2);

    let (c0, o0) = (count_total(), openat_total());
    let pid = std::process::id() as u64;
    for _ in 0..50 {
        assert_eq!(asm_getpid(), pid);
    }
    let tmp = std::env::temp_dir().join(format!("lp-hooks-{}", std::process::id()));
    std::fs::write(&tmp, b"hooked").unwrap();
    assert_eq!(std::fs::read(&tmp).unwrap(), b"hooked");
    assert!(counter.count(syscalls::nr::GETPID) >= 50, "compiled-in handler ran");
    assert!(count_total() - c0 >= 50, "wide hook saw the getpid loop");
    let opens = openat_total();
    assert!(opens - o0 >= 2, "narrow hook saw the file opens");

    // fork: the child re-arms SUD; the inherited stack keeps counting
    // in the child's copy of the hook state.
    unsafe {
        let child = libc::fork();
        assert!(child >= 0);
        if child == 0 {
            let (c, o) = (count_total(), openat_total());
            let own = libc::getpid() as u64;
            for _ in 0..10 {
                if asm_getpid() != own {
                    libc::_exit(1);
                }
            }
            if std::fs::read(&tmp).is_err() {
                libc::_exit(2);
            }
            if count_total() - c < 10 {
                libc::_exit(3);
            }
            if openat_total() - o < 1 {
                libc::_exit(4);
            }
            libc::_exit(44);
        }
        let mut status = 0;
        libc::waitpid(child, &mut status, 0);
        assert!(libc::WIFEXITED(status), "hooked fork child died: {status:#x}");
        assert_eq!(libc::WEXITSTATUS(status), 44, "hooks did not survive fork re-arm");
    }

    // Mid-workload detach of the wide hook: its counter freezes, the
    // survivors keep their interest, nothing crashes.
    let wide = active
        .loaded_hooks()
        .iter()
        .find(|(_, n, _)| n == "hook_count")
        .map(|(id, _, _)| *id)
        .expect("hook_count is loaded");
    let g_before = counter.count(syscalls::nr::GETPID);
    assert!(active.detach_hook(wide));
    let frozen = count_total();
    for _ in 0..25 {
        assert_eq!(asm_getpid(), pid);
    }
    assert_eq!(std::fs::read(&tmp).unwrap(), b"hooked");
    std::fs::remove_file(&tmp).unwrap();
    assert_eq!(count_total(), frozen, "detached hook must see nothing");
    assert!(
        counter.count(syscalls::nr::GETPID) >= g_before + 25,
        "compiled-in handler lost its interest after the narrow"
    );
    assert!(openat_total() > opens, "surviving narrow hook stopped seeing opens");
    let stats = active.stats();
    assert_eq!(stats.hooks_loaded, 1, "{stats:?}");
    assert!(stats.hook_dispatches > 0, "{stats:?}");
    active.detach();
}

// ——— hardened escape scenarios (ISSUE 7) ————————————————————————————
//
// The attack: application code that learned the SUD selector's address
// flips it to ALLOW and issues a syscall from its own text. Plain
// lazypoline cannot see it (that is §VII's open residue); hardened
// mode either kills the process or quarantines the syscall back
// through the interposer, depending on `LP_HARDEN_POLICY`.

/// The attacker's own `syscall` instruction, in main-executable text —
/// exactly where the backstop's IP allowlist has a deliberate hole.
/// Must never run while the selector is BLOCK (the slow path would
/// lazily rewrite it and defang the attack).
#[inline(never)]
fn attacker_syscall(nr: u64) -> i64 {
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            inout("rax") nr => ret,
            out("rcx") _, out("r11") _,
        );
    }
    ret
}

/// A direct store of ALLOW to the selector byte — no engine API, the
/// attacker "leaked" the address. Only sound when the selector is not
/// on a hardware-protected slab (the store itself would fault there,
/// which is rung 1 doing its job; the simulator asserts that path).
fn flip_selector_to_allow() {
    unsafe { sud::selector_ptr().write_volatile(0) };
}

/// Whether the pkey layer would fault the direct write before the
/// backstop ever sees a syscall. On MPK hosts the backstop scenarios
/// exit early: `escape_store_faults` asserts the write fault natively,
/// and `sim-interpose`'s security tests assert it deterministically.
fn selector_is_hardware_protected() -> bool {
    matches!(
        lazypoline::harden::level(),
        lazypoline::harden::HardenLevel::Full | lazypoline::harden::HardenLevel::PkeyOnly
    )
}

fn scenario_escape_plain() {
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let before = active.stats().dispatches;
    flip_selector_to_allow();
    let uid = attacker_syscall(syscalls::nr::GETUID);
    let after = active.stats().dispatches;
    // The syscall executed for real and the dispatcher never saw it:
    // this is the escape hardened mode exists to close.
    assert!(uid >= 0, "bypassed getuid failed: {uid}");
    assert_eq!(after, before, "plain engine must not observe the bypass");
    assert_eq!(lazypoline::harden::bypass_blocked(), 0);
    active.detach();
}

fn scenario_escape_quarantine() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    if selector_is_hardware_protected() {
        println!("selector is pkey-protected; direct-write attack not applicable");
        return;
    }
    let my_pid = std::process::id();
    flip_selector_to_allow();
    let pid = attacker_syscall(syscalls::nr::GETPID);
    // Quarantine: the trapped syscall was forced through the
    // interposer and still produced its result — observed, not free.
    assert_eq!(pid as u32, my_pid, "quarantined getpid result");
    let blocked = active.stats().bypass_blocked;
    assert!(blocked >= 1, "backstop must count the escape, got {blocked}");
}

/// Hidden victim for `scenario_escape_kill`: dies by SIGKILL mid-attack
/// (never listed in SCENARIOS — the driver would count its death as a
/// failure).
fn scenario_escape_kill_victim() {
    let _active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    assert!(lazypoline::harden::backstop_armed(), "backstop must arm");
    if selector_is_hardware_protected() {
        // Signal the parent to skip: no clean way to demo the kill
        // without the writable selector.
        println!("SURVIVED pkey-protected");
        std::process::exit(3);
    }
    println!("ATTACK_IMMINENT");
    flip_selector_to_allow();
    attacker_syscall(syscalls::nr::GETPID);
    // Unreachable under the (default) kill policy.
    println!("SURVIVED");
    std::process::exit(3);
}

fn scenario_escape_kill() {
    let exe = std::env::current_exe().expect("self path");
    let out = Command::new(&exe)
        .env("LP_SCENARIO", "escape_kill_victim")
        .env_remove("LP_HARDEN_POLICY")
        .env_remove("LAZYPOLINE_FAULTS")
        .output()
        .expect("spawn victim");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if stdout.contains("pkey-protected") {
        println!("victim skipped (pkey-protected selector)");
        return;
    }
    // Killed by SIGKILL (no exit code) or the exit_group(137) fallback.
    let code = out.status.code();
    assert!(
        (code.is_none() || code == Some(137))
            && stdout.contains("ATTACK_IMMINENT")
            && !stdout.contains("SURVIVED"),
        "victim must die mid-attack: status {:?}, stdout:\n{stdout}",
        out.status,
    );
}

fn scenario_escape_fork_rearm() {
    std::env::set_var("LP_HARDEN_POLICY", "quarantine");
    let _active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    if selector_is_hardware_protected() {
        println!("selector is pkey-protected; direct-write attack not applicable");
        return;
    }
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Child of a hardened process: ordinary syscalls still work
        // (via libc — `attacker_syscall` must stay unexecuted and
        // unpatched until the attack)...
        assert!(std::process::id() > 0);
        // ...and the inherited filter still catches the escape.
        flip_selector_to_allow();
        let r = attacker_syscall(syscalls::nr::GETUID);
        let caught = r >= 0 && lazypoline::harden::bypass_blocked() >= 1;
        std::process::exit(if caught { 42 } else { 7 });
    }
    let mut status = 0;
    let r = unsafe { libc::waitpid(pid, &mut status, 0) };
    assert_eq!(r, pid, "waitpid failed");
    assert!(libc::WIFEXITED(status), "fork child died: status {status:#x}");
    assert_eq!(
        libc::WEXITSTATUS(status),
        42,
        "fork child must catch the escape"
    );
}

/// On an MPK host the hardened selector sits on a write-disabled slab:
/// a direct store from application code dies with SIGSEGV before any
/// syscall. Without MPK hardware it prints a `skip:` line instead.
fn scenario_escape_store_faults() {
    let _active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    let level = lazypoline::harden::level();
    if level != lazypoline::harden::HardenLevel::Full {
        println!("skip: escape_store_faults: needs harden level Full, got {level:?}");
        return;
    }
    let pid = unsafe { libc::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        flip_selector_to_allow();
        // Unreachable: the store faults on the write-disabled slab.
        unsafe { libc::_exit(7) };
    }
    use std::os::unix::process::ExitStatusExt;
    const SIGSEGV: i32 = 11;
    let mut status = 0;
    assert_eq!(unsafe { libc::waitpid(pid, &mut status, 0) }, pid);
    let status = std::process::ExitStatus::from_raw(status);
    assert_eq!(
        status.signal(),
        Some(SIGSEGV),
        "the selector store must fault: {status}"
    );
}

/// A wrapped application signal handler that makes syscalls under the
/// hardened layer. The kernel enters every handler with a PKRU that
/// denies reads of the selector slab; the engine's signal entry points
/// restore read access before the first syscall, or the kernel's own
/// selector read kills the task with SIGSEGV.
fn scenario_hardened_signal_syscall() {
    static HANDLER_SYSCALLS: AtomicU64 = AtomicU64::new(0);

    extern "C" fn on_usr1(_sig: libc::c_int) {
        if unsafe { libc::getpid() } > 0 {
            HANDLER_SYSCALLS.fetch_add(1, Ordering::SeqCst);
        }
    }

    let active = install("lazypoline-hardened", Box::new(interpose::PassthroughHandler));
    unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = on_usr1 as *const () as usize;
        assert_eq!(libc::sigaction(libc::SIGUSR1, &sa, std::ptr::null_mut()), 0);
        for _ in 0..5 {
            libc::raise(libc::SIGUSR1);
        }
    }
    assert_eq!(HANDLER_SYSCALLS.load(Ordering::SeqCst), 5);
    let wrapped = active.stats().signals_wrapped;
    assert!(wrapped >= 5, "wrapped {wrapped}");
    println!(
        "hardened_signal_syscall: harden level {:?}",
        lazypoline::harden::level()
    );
}

// ——— syscall-flow-integrity (sfip) scenarios ————————————————————————

/// The nr asm_nosys() issues — never used by this process otherwise,
/// so `forbid_into(NOSYS_NR)` makes a crafted policy with exactly one
/// reachable violation.
const NOSYS_NR: u64 = 500;

fn enosys() -> u64 {
    -(libc::ENOSYS as i64) as u64
}

/// Saves `policy` to a temp file and exports the sfip install env.
fn sfip_arm(policy: &sfip::Policy, action: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lp-sfip-{action}-{}.sfip",
        std::process::id()
    ));
    policy.save(&path).expect("policy saves");
    std::env::set_var(sfip::POLICY_ENV, &path);
    std::env::set_var(sfip::ACTION_ENV, action);
    path
}

/// An allow-everything automaton with the one transition target the
/// attack uses carved out.
fn sfip_deny_nosys_policy() -> sfip::Policy {
    let mut policy = sfip::Policy::allow_all("native-escape");
    policy.forbid_into(NOSYS_NR);
    policy
}

/// The fixed workload both sfip phases run: raw getpid loop plus one
/// libc file round-trip.
fn sfip_workload() {
    let pid = std::process::id() as u64;
    for _ in 0..20 {
        assert_eq!(asm_getpid(), pid);
    }
    let probe = std::env::temp_dir().join(format!("lp-sfip-probe-{}", std::process::id()));
    std::fs::write(&probe, b"flow").unwrap();
    assert_eq!(std::fs::read(&probe).unwrap(), b"flow");
    std::fs::remove_file(&probe).unwrap();
}

fn scenario_sfip_native() {
    // Learn from this process's own recorded trace, then enforce over
    // the identical workload. The workload is recorded twice so the
    // steady-state flow (all sites already patched, allocator warm) is
    // fully in the automaton — the enforcement run is that steady
    // state's third iteration.
    let trace = std::env::temp_dir().join(format!("lp-sfip-learn-{}.lpt", std::process::id()));
    std::env::set_var("LP_TRACE_OUT", &trace);
    let mut rec = install("lazypoline+record", Box::new(interpose::PassthroughHandler));
    std::env::remove_var("LP_TRACE_OUT");
    sfip_workload();
    sfip_workload();
    rec.detach();
    rec.finish_recording()
        .expect("a trace session is active")
        .expect("trace finishes");
    drop(rec);
    let (header, records) = mechanism::replay::read_trace_path(&trace).expect("trace decodes");
    std::fs::remove_file(&trace).unwrap();
    let policy =
        sfip::Policy::learn(&records, &header.source_mechanism).expect("native trace learns");

    let path = sfip_arm(&policy, "count");
    let mut active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    sfip_workload();
    active.detach();
    let stats = active.stats();
    std::fs::remove_file(&path).unwrap();
    assert!(stats.sfip_checks > 0, "no syscalls were flow-checked: {stats:?}");
    assert_eq!(
        stats.sfip_violations, 0,
        "the learned workload must replay inside its own automaton: {stats:?}"
    );
    println!(
        "sfip native: learned {} transitions, {} checks, 0 violations",
        policy.transitions(),
        stats.sfip_checks
    );
}

fn scenario_sfip_escape_plain() {
    // Plain lazypoline fails open on a *flow* violation: nr 500 right
    // after a getpid burst is interposed like any other syscall,
    // reaches the kernel, and nothing flags it.
    let mut active = install("lazypoline", Box::new(interpose::PassthroughHandler));
    let pid = std::process::id() as u64;
    assert_eq!(asm_getpid(), pid);
    assert_eq!(asm_nosys(), enosys(), "nr 500 executed unflagged");
    active.detach();
    let stats = active.stats();
    assert!(stats.dispatches >= 2, "both syscalls interposed: {stats:?}");
    assert_eq!(stats.sfip_checks, 0, "no flow checking without +sfip");
    assert_eq!(stats.sfip_violations, 0, "{stats:?}");
}

fn scenario_sfip_escape_count() {
    // count: the off-policy syscall still executes, but is audited.
    let path = sfip_arm(&sfip_deny_nosys_policy(), "count");
    let mut active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    let pid = std::process::id() as u64;
    for _ in 0..5 {
        assert_eq!(asm_getpid(), pid);
    }
    assert_eq!(asm_nosys(), enosys(), "count mode does not block");
    active.detach();
    let stats = active.stats();
    std::fs::remove_file(&path).unwrap();
    assert!(stats.sfip_checks >= 6, "{stats:?}");
    assert_eq!(
        stats.sfip_violations, 1,
        "exactly the forbidden →500 transition: {stats:?}"
    );
}

fn scenario_sfip_escape_quarantine() {
    // quarantine: first violation disables checking; execution
    // continues uninterposed by the policy (but still dispatched).
    let path = sfip_arm(&sfip_deny_nosys_policy(), "quarantine");
    let mut active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    let pid = std::process::id() as u64;
    assert_eq!(asm_getpid(), pid);
    assert_eq!(asm_nosys(), enosys(), "first violation passes through");
    // After quarantine the checker is frozen: further off-policy
    // syscalls run but are no longer counted.
    assert_eq!(asm_nosys(), enosys());
    assert_eq!(asm_getpid(), pid, "process still fully functional");
    active.detach();
    let stats = active.stats();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(stats.sfip_mode, "quarantine");
    assert_eq!(
        stats.sfip_violations, 1,
        "checking froze after the first violation: {stats:?}"
    );
}

/// Hidden victim for `scenario_sfip_escape_kill`: the parent exports a
/// deny-500 policy with action=kill; the off-policy syscall must kill
/// the process mid-attack.
fn scenario_sfip_escape_kill_victim() {
    let _active = install("lazypoline+sfip", Box::new(interpose::PassthroughHandler));
    println!("ATTACK_IMMINENT");
    asm_nosys();
    // Unreachable under the kill action.
    println!("SURVIVED");
    std::process::exit(3);
}

fn scenario_sfip_escape_kill() {
    let path = std::env::temp_dir().join(format!("lp-sfip-kill-{}.sfip", std::process::id()));
    sfip_deny_nosys_policy().save(&path).expect("policy saves");
    let exe = std::env::current_exe().expect("self path");
    let out = Command::new(&exe)
        .env("LP_SCENARIO", "sfip_escape_kill_victim")
        .env(sfip::POLICY_ENV, &path)
        .env(sfip::ACTION_ENV, "kill")
        .env_remove("LAZYPOLINE_FAULTS")
        .output()
        .expect("spawn victim");
    std::fs::remove_file(&path).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Killed by SIGKILL (no exit code) or the exit_group(137) fallback.
    let code = out.status.code();
    assert!(
        (code.is_none() || code == Some(137))
            && stdout.contains("ATTACK_IMMINENT")
            && !stdout.contains("SURVIVED"),
        "victim must die on the off-policy syscall: status {:?}, stdout:\n{stdout}",
        out.status,
    );
}

// ——— harness ————————————————————————————————————————————————————————

const SCENARIOS: &[(&str, fn())] = &[
    ("engine_counts", scenario_engine_counts),
    ("signals", scenario_signals),
    ("threads", scenario_threads),
    ("fork", scenario_fork),
    ("sud_only", scenario_sud_only),
    ("xstate", scenario_xstate),
    ("rewrite_stress", scenario_rewrite_stress),
    ("policy_native", scenario_policy_native),
    ("post_rewrite", scenario_post_rewrite),
    ("latency_histogram", scenario_latency_histogram),
    ("sigprocmask_guard", scenario_sigprocmask_guard),
    ("nested_signals", scenario_nested_signals),
    ("path_remap", scenario_path_remap),
    ("batch_rewrite", scenario_batch_rewrite),
    ("batch_ablation", scenario_batch_ablation),
    ("fault_sud_only", scenario_fault_sud_only),
    ("fault_unpatchable_page", scenario_fault_unpatchable_page),
    ("fault_soak", scenario_fault_soak),
    ("fault_soak_sudonly", scenario_fault_soak_sudonly),
    ("panic_quarantine", scenario_panic_quarantine),
    ("fault_prescan_only", scenario_fault_prescan_only),
    ("degraded_smoke", scenario_degraded_smoke),
    ("mechanism_differential", scenario_mechanism_differential),
    ("mechanism_smoke", scenario_mechanism_smoke),
    ("record_replay_native", scenario_record_replay_native),
    ("hook_stack_native", scenario_hook_stack_native),
    ("escape_plain", scenario_escape_plain),
    ("escape_quarantine", scenario_escape_quarantine),
    ("escape_kill", scenario_escape_kill),
    ("escape_fork_rearm", scenario_escape_fork_rearm),
    ("escape_store_faults", scenario_escape_store_faults),
    ("hardened_signal_syscall", scenario_hardened_signal_syscall),
    ("sfip_native", scenario_sfip_native),
    ("sfip_escape_plain", scenario_sfip_escape_plain),
    ("sfip_escape_count", scenario_sfip_escape_count),
    ("sfip_escape_quarantine", scenario_sfip_escape_quarantine),
    ("sfip_escape_kill", scenario_sfip_escape_kill),
];

/// Scenarios reachable via `LP_SCENARIO` but never driven directly —
/// they end abnormally by design (e.g. killed mid-attack).
const HIDDEN_SCENARIOS: &[(&str, fn())] = &[
    ("escape_kill_victim", scenario_escape_kill_victim),
    ("sfip_escape_kill_victim", scenario_sfip_escape_kill_victim),
];

fn main() {
    if let Ok(name) = std::env::var("LP_SCENARIO") {
        let (_, f) = SCENARIOS
            .iter()
            .chain(HIDDEN_SCENARIOS)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown scenario {name}"));
        f();
        println!("scenario {name}: ok");
        return;
    }

    if !environment_ready() {
        println!("native_engine: SKIPPED (needs SUD + vm.mmap_min_addr=0)");
        return;
    }

    let exe = std::env::current_exe().expect("self path");
    // Most scenarios arm faults via the API and assert exact deltas, so
    // ambient LAZYPOLINE_FAULTS (the CI fault matrix exports it for the
    // whole run) is stripped; degraded_smoke is the one scenario that
    // deliberately honours it.
    let ambient_faults = std::env::var("LAZYPOLINE_FAULTS").ok();
    let mut failed = Vec::new();
    for (name, _) in SCENARIOS {
        let mut cmd = Command::new(&exe);
        cmd.env("LP_SCENARIO", name).env_remove("LAZYPOLINE_FAULTS");
        if *name == "degraded_smoke" {
            if let Some(spec) = &ambient_faults {
                cmd.env("LAZYPOLINE_FAULTS", spec);
            }
        }
        let status = cmd.status().expect("spawn scenario");
        if status.success() {
            println!("native_engine::{name} ... ok");
        } else {
            println!("native_engine::{name} ... FAILED ({status})");
            failed.push(*name);
        }
    }
    if !failed.is_empty() {
        panic!("failed scenarios: {failed:?}");
    }
    println!("native_engine: {} scenarios passed", SCENARIOS.len());
}
