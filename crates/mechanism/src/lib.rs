//! The mechanism layer: every interposition backend in the suite —
//! native engine configurations, raw SUD, and the simulated mechanisms
//! — behind one trait, one string-keyed registry, and one
//! install/teardown/stats lifecycle.
//!
//! The paper's claim is comparative (Table I/II line lazypoline up
//! against zpoline, SUD, seccomp, and ptrace as *peer* mechanisms), so
//! the suite treats "which mechanism" as data, not code: drivers ask
//! the registry for a backend [`by_name`] (or [`from_env`] via
//! `LP_MECHANISM`), [`Mechanism::install`] it around a
//! [`SyscallHandler`], and read a uniform [`StatsSnapshot`] from the
//! returned [`ActiveMechanism`] guard: one field per row of the counter
//! table [`ROWS`], which declares each counter's kind, unit and owning
//! layer once. Adding a backend is a one-file change here, adding a
//! counter one row; benchmarks, examples and tests pick both up.
//!
//! # Registered names
//!
//! Native (this process, this kernel):
//!
//! | name | configuration |
//! |------|---------------|
//! | `none` | no interposition (baseline) |
//! | `sud-allow` | SUD enabled, selector parked at ALLOW (paper's "SUD enabled" baseline) |
//! | `sud-raw` | classic selector-only SUD: raw `SIGSYS` interposer, no engine (Table II's "SUD" row) |
//! | `sud` | the engine with lazy rewriting disabled (every syscall takes the slow path) |
//! | `zpoline` | the engine, no xstate preservation; [`ActiveMechanism::detach`] after warmup drops SUD for pure-rewriting operation |
//! | `lazypoline-nox` | the hybrid without extended-state preservation |
//! | `lazypoline` | the full hybrid (default) |
//! | `lazypoline-nobatch` | the hybrid with page-granular batch rewriting off |
//! | `lazypoline-hardened` | the hybrid with the pkey-protected selector and seccomp backstop (one-way per process; degrades gracefully without MPK) |
//!
//! Simulated (run a guest program, see [`ActiveMechanism::run_program`]):
//! `sim:baseline`, `sim:baseline-sud`, `sim:ptrace`, `sim:seccomp-bpf`,
//! `sim:seccomp-user`, `sim:sud`, `sim:zpoline`, `sim:lazypoline-nox`,
//! `sim:lazypoline`, `sim:lazypoline-hardened`.
//!
//! Layered (parsed by [`by_name`], composed over the rows above):
//! `<base>(+layer)*` stacks any of three layers, each at most once and
//! in any order, over a static base; the rightmost layer is outermost
//! and sees an event first:
//!
//! | layer | wraps the handler in |
//! |-------|----------------------|
//! | `+record` | the flight recorder (`LP_TRACE_OUT` names the trace file) |
//! | `+hooks` | a runtime [`interpose::HookStack`] loading every `lp_hook_v1` library named by `LP_HOOKS` |
//! | `+sfip` | syscall-flow-integrity enforcement of the `LPSFIP1` policy named by `LP_SFIP_POLICY` |
//!
//! `lazypoline+sfip+record` enforces a learned policy and keeps an
//! rr-style trace. `replay:<trace-path>` replays a recorded trace
//! deterministically and takes no suffixes.
//!
//! # One-way caveats
//!
//! Native interposition is not fully reversible: engine initialisation
//! is process-global and rewritten syscall sites stay rewritten, so
//! dropping an engine-backed [`ActiveMechanism`] unenrolls the thread
//! and restores the handler/selector/xstate, but already-patched sites
//! keep dispatching (to whatever handler is then installed — the guard
//! restores the previous one). `sud-raw` owns the `SIGSYS` disposition
//! and must therefore be installed *before* any engine-backed backend
//! in a process's lifetime.

#![deny(missing_docs)]

mod counters;
mod layers;
mod native;
mod sim;

use counters::{Baseline, Sources};
pub use counters::{Kind, Owner, Row, StatsSnapshot, Value, ROWS};
use interpose::SyscallHandler;
pub use layers::{HOOKS_ENV, HOOKS_WATCH_ENV, TRACE_OUT_ENV};
pub use replay;
pub use sim_interpose::{Efficiency, Expressiveness, Traits};
pub use zpoline::XstateMask;

/// An interposition backend: something that can wrap a
/// [`SyscallHandler`] around this process (native) or a guest program
/// (simulated).
pub trait Mechanism: Send + Sync {
    /// The registry key (`lazypoline`, `sud`, `sim:ptrace`, …).
    fn name(&self) -> &'static str;

    /// The mechanism's Table I row: expressiveness, exhaustiveness,
    /// efficiency class.
    fn traits(&self) -> Traits;

    /// Whether this backend can be installed on this host (kernel SUD
    /// support, `vm.mmap_min_addr = 0`, …). Simulated backends are
    /// always available.
    fn is_available(&self) -> bool;

    /// Activates the mechanism with `handler` as the interposer.
    ///
    /// The returned guard owns teardown: dropping it restores the
    /// previously installed handler, the thread's SUD selector, and
    /// (where changed) the xstate mask — see the crate docs for what
    /// native interposition cannot undo.
    fn install(&self, handler: Box<dyn SyscallHandler>)
        -> Result<ActiveMechanism, InstallError>;
}

/// Why [`Mechanism::install`] failed.
#[derive(Debug)]
pub enum InstallError {
    /// The host lacks a kernel feature this backend needs.
    Unsupported(&'static str),
    /// The backend conflicts with process-global state already set up
    /// (e.g. `sud-raw` after the engine claimed `SIGSYS`).
    Conflict(&'static str),
    /// Engine initialisation failed.
    Init(lazypoline::InitError),
    /// A raw kernel interface (prctl/sigaction) failed.
    Io(std::io::Error),
    /// A `+hooks` layer could not load a hook library named by
    /// `LP_HOOKS` (bad spec, dlopen failure, ABI mismatch, …).
    Hook(hookabi::HookLoadError),
    /// A `+sfip` layer could not load the policy named by
    /// `LP_SFIP_POLICY` (missing path, bad magic/version/geometry,
    /// unknown `LP_SFIP_POLICY_ACTION`, …).
    Policy(::sfip::PolicyError),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Unsupported(why) => write!(f, "unsupported on this host: {why}"),
            InstallError::Conflict(why) => write!(f, "conflicts with process state: {why}"),
            InstallError::Init(e) => write!(f, "engine init failed: {e}"),
            InstallError::Io(e) => write!(f, "kernel interface failed: {e}"),
            InstallError::Hook(e) => write!(f, "hook loading failed: {e}"),
            InstallError::Policy(e) => write!(f, "sfip policy failed: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// Why [`ActiveMechanism::run_program`] failed.
#[derive(Debug)]
pub enum RunError {
    /// The backend is native; it interposes this process, not guest
    /// programs.
    NotSimulated,
    /// The simulator rejected the mechanism/program combination.
    Setup(sim_interpose::SetupError),
    /// The guest faulted or was killed.
    Sim(sim_kernel::kernel::SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NotSimulated => write!(f, "native mechanisms do not run guest programs"),
            RunError::Setup(e) => write!(f, "simulator setup failed: {e}"),
            RunError::Sim(e) => write!(f, "guest run failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Result of one simulated guest run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The guest's exit status.
    pub exit: i64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Syscall numbers the mechanism observed, in order (empty for
    /// mechanisms that cannot observe, e.g. `sim:seccomp-bpf`).
    pub observed: Vec<u64>,
}

/// A live installation: handler registered, mechanism armed. Teardown
/// runs on drop (mechanism first, then handler restoration).
#[must_use = "dropping the guard immediately tears the mechanism down"]
pub struct ActiveMechanism {
    name: &'static str,
    inner: Inner,
    counters: Baseline,
}

pub(crate) enum Inner {
    Native(Box<native::NativeActive>),
    Sim(sim::SimActive),
    Layered(Box<layers::LayeredActive>),
}

impl ActiveMechanism {
    pub(crate) fn new(name: &'static str, inner: Inner, counters: Baseline) -> ActiveMechanism {
        ActiveMechanism {
            name,
            inner,
            counters,
        }
    }

    /// The registry key of the installed mechanism.
    pub fn mechanism_name(&self) -> &'static str {
        self.name
    }

    /// Counters accumulated since install: a fold over the [`ROWS`] this
    /// installation owns, over its base's snapshot if it is layered.
    pub fn stats(&self) -> StatsSnapshot {
        let mut src = Sources::new(self.name);
        let mut s = StatsSnapshot::default();
        match &self.inner {
            Inner::Native(n) => src.trips = n.trips(),
            Inner::Sim(sim) => src.trips = Some(sim.trips),
            Inner::Layered(l) => {
                s = l.base.stats();
                l.read_into(&mut src);
            }
        }
        self.counters.fold(&src, &mut s);
        s
    }

    fn layered(&self) -> Option<&layers::LayeredActive> {
        match &self.inner {
            Inner::Layered(l) => Some(l),
            _ => None,
        }
    }

    /// The runtime hook stack of a `+hooks` backend — a clone shares
    /// state with the installed handler, so attaching/detaching through
    /// it mutates live dispatch. `None` for other backends.
    pub fn hook_stack(&self) -> Option<&interpose::HookStack> {
        Some(&self.layered()?.hooks()?.stack)
    }

    /// The dynamically loaded hooks of a `+hooks` backend:
    /// `(id, name, priority)` per hook, in load order. Empty for other
    /// backends.
    pub fn loaded_hooks(&self) -> Vec<(interpose::HookId, String, i32)> {
        self.layered()
            .and_then(|l| l.hooks())
            .map_or_else(Vec::new, |h| h.loaded())
    }

    /// Detaches one dynamically loaded hook mid-flight: removes it from
    /// the stack (narrowing the interest cache after the swap) and runs
    /// its `fini`. Returns `false` if the id is unknown or already
    /// detached, or the backend has no `+hooks` layer.
    pub fn detach_hook(&mut self, id: interpose::HookId) -> bool {
        self.layered()
            .and_then(|l| l.hooks())
            .is_some_and(|h| h.detach_hook(id))
    }

    /// Ends a `+record` backend's trace session early, returning the
    /// summary (events written, events dropped). `None` for other
    /// backends, or when no trace file was requested
    /// (`LP_TRACE_OUT` unset), or after the session already finished.
    /// Without this call the session finishes on drop, best-effort.
    pub fn finish_recording(&mut self) -> Option<std::io::Result<replay::RecordSummary>> {
        match &mut self.inner {
            Inner::Layered(l) => l.layers.iter_mut().find_map(|layer| match layer {
                layers::Layer::Record(recorder) => Some(recorder.take()?.finish()),
                _ => None,
            }),
            _ => None,
        }
    }

    /// The first divergence a `replay:<path>` backend observed, if any.
    /// `None` for other backends or while the replay is on-script.
    pub fn replay_divergence(&self) -> Option<replay::Divergence> {
        self.replay_state()?.first_divergence()
    }

    /// The shared replay progress state of a `replay:<path>` backend
    /// (trace length, cursor position, divergence count).
    pub fn replay_state(&self) -> Option<&std::sync::Arc<replay::ReplayState>> {
        self.layered()?.replay_state()
    }

    /// Stops interposing on the calling thread while keeping the
    /// handler and any rewritten sites in place: engine-backed natives
    /// unenroll from SUD (the `zpoline` backend's post-warmup switch to
    /// pure rewriting), raw-SUD backends park the selector at ALLOW.
    /// No-op for `none` and simulated backends.
    pub fn detach(&mut self) {
        match &mut self.inner {
            Inner::Native(n) => n.detach(),
            Inner::Layered(l) => l.base.detach(),
            Inner::Sim(_) => {}
        }
    }

    /// Changes which extended-state components the fast path preserves.
    /// Returns `false` (and does nothing) unless the backend is
    /// engine-based. A non-default mask is restored to the full default
    /// on teardown.
    pub fn set_xstate(&mut self, mask: XstateMask) -> bool {
        match &mut self.inner {
            Inner::Native(n) => n.set_xstate(mask),
            Inner::Layered(l) => l.base.set_xstate(mask),
            Inner::Sim(_) => false,
        }
    }

    /// Runs a guest program under a simulated mechanism, replaying the
    /// mechanism's observations through the installed handler (same
    /// event/post shape as the native dispatchers) and accumulating
    /// [`StatsSnapshot`] counters. Errors with [`RunError::NotSimulated`]
    /// on native backends.
    pub fn run_program(&mut self, program: &[u8]) -> Result<SimOutcome, RunError> {
        match &mut self.inner {
            Inner::Sim(s) => s.run(program),
            Inner::Layered(l) => l.base.run_program(program),
            Inner::Native(_) => Err(RunError::NotSimulated),
        }
    }
}

/// Iterates every registered backend, native first.
pub fn all() -> impl Iterator<Item = &'static dyn Mechanism> {
    native::NATIVE_BACKENDS
        .iter()
        .map(|b| b as &dyn Mechanism)
        .chain(sim::SIM_BACKENDS.iter().map(|b| b as &dyn Mechanism))
}

/// Every registered backend name, native first.
pub fn names() -> Vec<&'static str> {
    all().map(|m| m.name()).collect()
}

/// Looks a backend up by registry key.
///
/// Besides the static names above, two **layered** name forms are
/// recognised (parsed on first lookup, cached for the process):
///
/// * `<base>(+layer)*` — any static backend with layers stacked around
///   the handler, each suffix wrapping what the ones before it built
///   (e.g. `lazypoline+record`, `sim:lazypoline+hooks`,
///   `lazypoline+sfip+record`). `+record` mirrors every syscall into
///   the flight recorder (`LP_TRACE_OUT=<path>` also drains the rings
///   into a trace file); `+hooks` runs the handler at priority 0 of a
///   runtime [`interpose::HookStack`] plus every `lp_hook_v1` library
///   named by `LP_HOOKS`; `+sfip` checks each transition against the
///   `LPSFIP1` policy named by `LP_SFIP_POLICY`, with
///   `LP_SFIP_POLICY_ACTION=kill|quarantine|count` on violation. A
///   duplicate or unknown suffix does not resolve.
/// * `replay:<trace-path>` — deterministic replay of a recorded trace;
///   the base mechanism comes from the trace header's source mechanism
///   (override with `LP_REPLAY_BASE`). Everything after the colon is
///   the path.
pub fn by_name(name: &str) -> Option<&'static dyn Mechanism> {
    static_by_name(name).or_else(|| layers::by_name(name))
}

/// Whether `name` is a layered backend name carrying the `+<layer>`
/// suffix anywhere among its layers, e.g. `"sfip"` in
/// `lazypoline+sfip+record`.
pub fn has_layer(name: &str, layer: &str) -> bool {
    layers::has_layer(name, layer)
}

/// Static-registry lookup only — used internally so layered backends
/// resolve their base without recursing into the layer parser.
pub(crate) fn static_by_name(name: &str) -> Option<&'static dyn Mechanism> {
    all().find(|m| m.name() == name)
}

/// The environment variable drivers consult for mechanism selection.
pub const ENV_VAR: &str = "LP_MECHANISM";

/// The backend [`from_env`] falls back to: the paper's subject.
pub const DEFAULT_MECHANISM: &str = "lazypoline";

/// The backend named by `LP_MECHANISM`, or [`DEFAULT_MECHANISM`] when
/// unset/empty. An unknown name is an error (listing the valid names),
/// not a silent fallback.
pub fn from_env() -> Result<&'static dyn Mechanism, UnknownMechanism> {
    match std::env::var(ENV_VAR) {
        Ok(name) if !name.is_empty() => by_name(&name).ok_or(UnknownMechanism(name)),
        _ => Ok(by_name(DEFAULT_MECHANISM).expect("default mechanism is registered")),
    }
}

/// `LP_MECHANISM` named a mechanism the registry does not know.
#[derive(Debug)]
pub struct UnknownMechanism(pub String);

impl std::fmt::Display for UnknownMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let layers: Vec<String> = layers::LayerKind::ALL
            .iter()
            .map(|k| format!("+{}", k.suffix()))
            .collect();
        write!(
            f,
            "unknown mechanism {:?} (bases: {}; layered: <base>(+layer)*, each layer at \
             most once, layers: {}; or replay:<trace-path>)",
            self.0,
            names().join(", "),
            layers.join(", ")
        )
    }
}

impl std::error::Error for UnknownMechanism {}

/// Detaches the calling thread from SUD interposition without an
/// [`ActiveMechanism`] handle: selector to ALLOW, then SUD off.
///
/// Async-signal-safe (one store, one prctl) — this is the hook for
/// signal-driven detach protocols like the macrobenchmark's `SIGUSR1`
/// switch to pure-zpoline operation, where the guard was deliberately
/// leaked in a child process.
pub fn detach_current_thread() {
    sud::set_selector(sud::Dispatch::Allow);
    let _ = sud::disable_thread();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_row() {
        // Table II native rows + every simulated mechanism, by name.
        for name in [
            "none",
            "sud-allow",
            "sud-raw",
            "sud",
            "zpoline",
            "lazypoline-nox",
            "lazypoline",
            "lazypoline-nobatch",
            "lazypoline-hardened",
            "sim:baseline",
            "sim:baseline-sud",
            "sim:ptrace",
            "sim:seccomp-bpf",
            "sim:seccomp-user",
            "sim:sud",
            "sim:zpoline",
            "sim:lazypoline-nox",
            "sim:lazypoline",
            "sim:lazypoline-hardened",
        ] {
            let m = by_name(name).unwrap_or_else(|| panic!("{name} not registered"));
            assert_eq!(m.name(), name);
        }
        assert_eq!(names().len(), 19);
        assert!(by_name("ptrace").is_none(), "native ptrace is not a backend");
    }

    #[test]
    fn traits_match_table_one() {
        let lp = by_name("lazypoline").unwrap().traits();
        assert_eq!(lp.expressiveness, Expressiveness::Full);
        assert!(lp.exhaustive);
        assert_eq!(lp.efficiency, Efficiency::High);
        // Native and simulated rows of the same mechanism agree.
        assert_eq!(lp, by_name("sim:lazypoline").unwrap().traits());
        assert_eq!(
            by_name("sud").unwrap().traits(),
            by_name("sim:sud").unwrap().traits()
        );
        let zp = by_name("zpoline").unwrap().traits();
        assert!(!zp.exhaustive, "rewriting alone misses JIT syscalls");
        // The hardened rows keep lazypoline's winning profile, and the
        // native and simulated variants agree.
        let hard = by_name("lazypoline-hardened").unwrap().traits();
        assert_eq!(hard.expressiveness, Expressiveness::Full);
        assert!(hard.exhaustive);
        assert_eq!(hard.efficiency, Efficiency::High);
        assert_eq!(
            hard,
            by_name("sim:lazypoline-hardened").unwrap().traits()
        );
    }

    #[test]
    fn from_env_defaults_and_rejects_unknown() {
        // Note: reads the ambient LP_MECHANISM, so only assert the
        // unset path when the harness did not set one.
        if std::env::var(ENV_VAR).is_err() {
            assert_eq!(from_env().unwrap().name(), DEFAULT_MECHANISM);
        }
        assert!(by_name("no-such-mechanism").is_none());
        let err = UnknownMechanism("no-such-mechanism".into()).to_string();
        assert!(err.contains("lazypoline"), "error lists valid names: {err}");
        // The layered grammar, every layer name and the replay form
        // are part of the valid vocabulary and must appear in the
        // error too.
        for form in [
            "<base>(+layer)*",
            "+record",
            "+hooks",
            "+sfip",
            "replay:<trace-path>",
        ] {
            assert!(err.contains(form), "error lists layered form {form}: {err}");
        }
    }

    #[test]
    fn layered_names_compose_over_every_base() {
        // Every ordering of one, two and three distinct layers.
        let one = layers::LayerKind::ALL.map(|k| format!("+{}", k.suffix()));
        let mut all = one.to_vec();
        for a in &one {
            for b in one.iter().filter(|b| *b != a) {
                all.push(format!("{a}{b}"));
                for c in one.iter().filter(|c| *c != a && *c != b) {
                    all.push(format!("{a}{b}{c}"));
                }
            }
        }
        assert_eq!(all.len(), 3 + 6 + 6);
        for base in names() {
            let b = by_name(base).unwrap();
            for suffixes in &all {
                let name = format!("{base}{suffixes}");
                let m = by_name(&name).unwrap_or_else(|| panic!("{name} does not resolve"));
                assert_eq!(m.name(), name);
                assert_eq!(m.traits(), b.traits(), "{name}");
                assert_eq!(m.is_available(), b.is_available(), "{name}");
                assert!(std::ptr::eq(m, by_name(&name).unwrap()), "{name}: cached");
                for layer in layers::LayerKind::ALL.map(|k| k.suffix()) {
                    assert_eq!(has_layer(&name, layer), suffixes.contains(layer), "{name}");
                }
            }
        }
        // The production composition: enforce and keep the trace.
        assert!(has_layer("lazypoline+sfip+record", "record"));
        assert!(!has_layer("lazypoline", "record"));

        // Replay keeps its prefix form; the path is everything after
        // the colon, `+` included, and takes no layers.
        for name in ["replay:/tmp/a.lpt", "replay:/tmp/a+record.lpt"] {
            let m = by_name(name).unwrap_or_else(|| panic!("{name} does not resolve"));
            assert_eq!(m.name(), name);
            assert_eq!(m.traits().name, "deterministic replay");
            assert!(m.is_available());
            assert!(!has_layer(name, "record"));
            assert!(std::ptr::eq(m, by_name(name).unwrap()));
        }

        for bad in [
            "lazypoline+record+record",
            "sim:lazypoline+sfip+hooks+sfip",
            "lazypoline+bogus",
            "lazypoline+record+bogus",
            "no-such-base+record",
            "lazypoline+",
            "lazypoline+record+",
            "+record",
            "replay:",
        ] {
            assert!(by_name(bad).is_none(), "{bad} must not resolve");
        }
    }

    #[test]
    fn hooks_backend_composes_and_reports() {
        let m = by_name("sim:lazypoline+hooks").expect("+hooks parses over sim bases");
        assert_eq!(m.name(), "sim:lazypoline+hooks");
        assert!(m.is_available());
        assert_eq!(m.traits(), by_name("sim:lazypoline").unwrap().traits());
        // Unknown bases don't parse; repeat lookups hit the cache.
        assert!(by_name("no-such-base+hooks").is_none());
        assert!(std::ptr::eq(m, by_name("sim:lazypoline+hooks").unwrap()));

        // With LP_HOOKS unset the stack holds only the compiled-in
        // handler — still a fully functional installation. (Skip when
        // the harness exported LP_HOOKS: this test asserts emptiness.)
        if std::env::var(HOOKS_ENV).is_err() {
            let mut active = m
                .install(Box::new(interpose::CountHandler::new()))
                .expect("sim +hooks installs without hook libraries");
            let out = active
                .run_program(&sim_workloads::bench::microbench(20))
                .expect("guest runs");
            assert_eq!(out.exit, 0);
            let s = active.stats();
            assert_eq!(s.mechanism, "sim:lazypoline+hooks");
            assert!(s.dispatches > 0, "compiled-in handler still dispatches");
            assert_eq!(s.hooks_loaded, 0);
            assert_eq!(s.hook_dispatches, 0);
            let stack = active.hook_stack().expect("+hooks exposes its stack");
            assert_eq!(stack.len(), 1, "compiled-in handler only");
            assert!(active.loaded_hooks().is_empty());
        }
        // Non-hooks backends expose no stack.
        let plain = by_name("none")
            .unwrap()
            .install(Box::new(interpose::PassthroughHandler))
            .unwrap();
        assert!(plain.hook_stack().is_none());
        assert!(plain.loaded_hooks().is_empty());
    }

    #[test]
    fn sfip_backend_composes_and_requires_policy() {
        let m = by_name("sim:lazypoline+sfip").expect("+sfip parses over sim bases");
        assert_eq!(m.name(), "sim:lazypoline+sfip");
        assert!(m.is_available());
        assert_eq!(m.traits(), by_name("sim:lazypoline").unwrap().traits());
        // Unknown bases don't parse; repeat lookups hit the cache.
        assert!(by_name("no-such-base+sfip").is_none());
        assert!(std::ptr::eq(m, by_name("sim:lazypoline+sfip").unwrap()));
        // An +sfip install without LP_SFIP_POLICY is a typed error,
        // never a silently unenforced mechanism. (Skip when the
        // harness exported a policy for the whole run.)
        if std::env::var(::sfip::POLICY_ENV).is_err() {
            match m.install(Box::new(interpose::PassthroughHandler)) {
                Err(InstallError::Policy(::sfip::PolicyError::NoPolicyPath)) => {}
                Err(other) => panic!("expected NoPolicyPath, got {other}"),
                Ok(_) => panic!("install must fail without a policy"),
            }
        }
    }

    /// The rows `owners` reports, sorted.
    fn reported(owners: &[Owner]) -> Vec<&'static str> {
        let base = Baseline::take(owners, &Sources::new("t"));
        let mut names: Vec<_> = ROWS
            .iter()
            .filter(|r| base.owns(r))
            .map(|r| r.name)
            .collect();
        names.sort_unstable();
        names
    }

    fn sorted(lists: &[&[&'static str]]) -> Vec<&'static str> {
        let mut names = lists.concat();
        names.sort_unstable();
        names.dedup();
        names
    }

    #[test]
    fn each_backend_kind_reports_exactly_its_rows() {
        // Hand-derived from the per-kind snapshot code this table
        // replaced: quarantine and the recorder rows for every native,
        // the recorder rows but not quarantine for the sim, dispatch
        // rows where something dispatches, engine rows for the engine,
        // hook and SFIP rows only under their layers.
        const RECORDER: &[&str] = &[
            "mechanism",
            "events_recorded",
            "events_dropped",
            "replay_divergences",
            "events_spilled",
            "ring_grows",
            "ring_near_full",
            "drain_yields",
        ];
        const DISPATCH: &[&str] = &["dispatches", "slow_path_hits"];
        const ENGINE: &[&str] = &[
            "sites_patched",
            "unpatchable_emulations",
            "disabled_mode_emulations",
            "signals_wrapped",
            "patch_retries",
            "pages_blocklisted",
            "bypass_blocked",
            "pkru_switches",
        ];
        const HOOKS: &[&str] = &[
            "mechanism",
            "hooks_loaded",
            "hook_dispatches",
            "hook_reloads",
        ];
        const SFIP: &[&str] = &["mechanism", "sfip_checks", "sfip_violations", "sfip_mode"];
        let quarantine = &["quarantined_handlers"][..];

        let mut bases = Vec::new();
        for b in &native::NATIVE_BACKENDS {
            let expected = match b.name() {
                "none" | "sud-allow" => sorted(&[RECORDER, quarantine]),
                "sud-raw" => sorted(&[RECORDER, quarantine, DISPATCH]),
                _ => sorted(&[RECORDER, quarantine, DISPATCH, ENGINE]),
            };
            assert_eq!(reported(b.cfg.owners()), expected, "{}", b.name());
            bases.push((b.name(), b.cfg.owners(), expected));
        }
        for b in &sim::SIM_BACKENDS {
            let expected = sorted(&[RECORDER, DISPATCH]);
            assert_eq!(reported(sim::OWNERS), expected, "{}", b.name());
            bases.push((b.name(), sim::OWNERS, expected));
        }
        // A layered installation adds its layers' rows to its base's
        // snapshot; `+record` and `replay:` add none of their own (the
        // recorder rows are every base's already).
        for (name, base, base_rows) in bases {
            for kind in layers::LayerKind::ALL {
                let owners: Vec<Owner> = kind.owner().into_iter().collect();
                let mut got = [reported(base), reported(&owners)].concat();
                got.sort_unstable();
                got.dedup();
                let expected = match kind {
                    layers::LayerKind::Record => base_rows.clone(),
                    layers::LayerKind::Hooks => sorted(&[&base_rows, HOOKS]),
                    layers::LayerKind::Sfip => sorted(&[&base_rows, SFIP]),
                };
                assert_eq!(got, expected, "{name}+{}", kind.suffix());
            }
        }
        assert_eq!(reported(&[]), ["mechanism"], "replay:");
    }

    #[test]
    fn recorder_counters_reach_a_layered_sim_snapshot() {
        let mut active = by_name("sim:lazypoline+record")
            .unwrap()
            .install(Box::new(interpose::PassthroughHandler))
            .expect("sim +record installs");
        let out = active
            .run_program(&sim_workloads::bench::microbench(20))
            .expect("guest runs");
        let s = active.stats();
        assert_eq!(s.mechanism, "sim:lazypoline+record");
        assert_eq!(s.dispatches, out.observed.len() as u64);
        assert!(s.events_recorded > 0, "{s:?}");
        assert_eq!(
            (s.quarantined_handlers, s.sites_patched, s.hooks_loaded),
            (0, 0, 0)
        );
        assert_eq!(s.sfip_mode, "");
        drop(active);
        replay::ring::drain_all(|_| {});
    }

    #[test]
    fn none_backend_installs_and_reports_zero_stats() {
        let m = by_name("none").unwrap();
        assert!(m.is_available());
        let active = m
            .install(Box::new(interpose::PassthroughHandler))
            .expect("none is always installable");
        assert_eq!(active.mechanism_name(), "none");
        let s = active.stats();
        assert_eq!(s.dispatches, 0);
        assert_eq!(s.slow_path_hits, 0);
    }

    #[test]
    fn sim_backend_runs_guest_and_counts() {
        let m = by_name("sim:lazypoline").unwrap();
        assert!(m.is_available());
        let mut active = m
            .install(Box::new(interpose::CountHandler::new()))
            .expect("sim backends always install");
        let program = sim_workloads::bench::microbench(50);
        let out = active.run_program(&program).expect("guest runs");
        assert_eq!(out.exit, 0);
        assert!(out.cycles > 0);
        assert!(!out.observed.is_empty());
        let s = active.stats();
        assert_eq!(s.dispatches, out.observed.len() as u64);
        assert!(s.slow_path_hits > 0, "lazy rewriting trips SIGSYS per site");
        assert!(
            s.slow_path_hits < s.dispatches,
            "hybrid: slow path per site, not per call"
        );
    }

    #[test]
    fn native_backend_rejects_run_program() {
        let m = by_name("none").unwrap();
        let mut active = m.install(Box::new(interpose::PassthroughHandler)).unwrap();
        assert!(matches!(
            active.run_program(&[]),
            Err(RunError::NotSimulated)
        ));
    }
}
