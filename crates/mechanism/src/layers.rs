//! Layered backends: a static base mechanism with interposition layers
//! stacked around the caller's handler.
//!
//! # Grammar
//!
//! ```text
//! name  := <static base> ("+" layer)*  |  "replay:" <trace-path>
//! layer := "record" | "hooks" | "sfip"          (each at most once)
//! ```
//!
//! Each suffix wraps the handler built so far, left to right, so the
//! rightmost layer is outermost and sees an event first:
//! `lazypoline+sfip+record` records every event the SFIP check has
//! passed judgement on. A duplicate or unknown suffix, a trailing `+`,
//! or an unknown base does not resolve. `replay:` takes no suffixes:
//! everything after the colon is the trace path, `+` included.
//!
//! Names carry payload, so they cannot live in the static tables:
//! [`by_name`] parses a name on first lookup, leaks the backend (the
//! registry hands out `&'static dyn Mechanism`) and caches it, so
//! repeat lookups return the same instance.
//!
//! # Install and teardown order
//!
//! Every fallible step runs before the base arms: the policy load and
//! the hook `dlopen`s while wrapping, then the trace session, which
//! opens last because it is the one step that creates a file and a
//! thread. On teardown the hook layer stops its watcher and runs each
//! hook's `fini` while the base is still armed; the base disarms; only
//! then does the recorder's final drain run, so the base's last events
//! reach the trace.
//!
//! # Hook propagation
//!
//! *fork*: the loaded libraries, the stack snapshot, and the registry's
//! handler pointer are ordinary inherited memory; the engine re-arms
//! SUD in the child, so hooks keep firing without any reload (the
//! native `hook_stack` scenario proves it).
//! *execve*: memory is wiped, but `LP_HOOKS` survives in the
//! environment — a preloaded `lazypoline-preload` in the new image
//! reloads the same hook set at its constructor (the preload crate
//! reads the same variable through the same `hookabi` function).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use ::sfip::{Policy, SfipHandler, ViolationAction};
use hookabi::LoadedHook;
use interpose::{HookId, HookStack, SyscallHandler};
use replay::{RecordHandler, Recorder, ReplayHandler, ReplayState};
use sim_interpose::{Efficiency, Expressiveness, Traits};

use crate::counters::{Baseline, Owner, Sources};
use crate::{static_by_name, ActiveMechanism, Inner, InstallError, Mechanism};

/// Environment variable naming the trace file a `+record` layer drains
/// its rings into. Unset: the flight recorder still runs (rings +
/// counters), but nothing is written to disk.
pub const TRACE_OUT_ENV: &str = "LP_TRACE_OUT";

/// Environment variable overriding the base mechanism a
/// `replay:<path>` backend installs (default: the trace header's
/// source mechanism).
pub const REPLAY_BASE_ENV: &str = "LP_REPLAY_BASE";

/// Environment variable naming the hook libraries a `+hooks` layer
/// loads at install: comma-separated `path-or-name[:priority]` (see
/// `hookabi::parse_specs`). Unset or empty: the stack holds only the
/// handler it wraps.
pub const HOOKS_ENV: &str = "LP_HOOKS";

/// `LP_HOOKS_WATCH=1` at install starts a housekeeping thread that
/// polls each loaded library's mtime and, on change, hot-reloads it:
/// `detach` (narrowing interest after the swap) → `fini` → re-`dlopen`
/// → `attach` at the same priority, racing live dispatch safely via
/// the stack's RCU snapshot swaps. Note `dlopen` of an in-place
/// rewrite (same inode) returns the already-mapped module — the
/// reload still re-runs `fini`/`init` and bumps `hook_reloads`; a
/// *new* inode at the same path (rename-over) maps fresh code.
pub const HOOKS_WATCH_ENV: &str = "LP_HOOKS_WATCH";

/// Poll interval of the mtime watcher.
const WATCH_INTERVAL: Duration = Duration::from_millis(25);

/// Hook libraries hot-reloaded by the watcher, process-wide.
pub(crate) static HOOK_RELOADS: AtomicU64 = AtomicU64::new(0);

/// The one process-lifetime cache of layered backends, keyed by the
/// full name.
static CACHE: Mutex<Vec<(String, &'static dyn Mechanism)>> = Mutex::new(Vec::new());

/// A layer suffix, as parsed from a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LayerKind {
    /// `+record`: the flight recorder around the handler.
    Record,
    /// `+hooks`: a runtime [`HookStack`] holding the handler at
    /// priority 0 plus every `LP_HOOKS` library.
    Hooks,
    /// `+sfip`: syscall-flow-integrity enforcement of the policy named
    /// by `LP_SFIP_POLICY`.
    Sfip,
}

impl LayerKind {
    /// Every layer, in the order the docs list them.
    pub(crate) const ALL: [LayerKind; 3] = [LayerKind::Record, LayerKind::Hooks, LayerKind::Sfip];

    /// The name suffix, without its `+`.
    pub(crate) fn suffix(self) -> &'static str {
        match self {
            LayerKind::Record => "record",
            LayerKind::Hooks => "hooks",
            LayerKind::Sfip => "sfip",
        }
    }

    /// The counter rows this layer adds (the recorder's are the base's).
    pub(crate) fn owner(self) -> Option<Owner> {
        match self {
            LayerKind::Record => None,
            LayerKind::Hooks => Some(Owner::Hooks),
            LayerKind::Sfip => Some(Owner::Sfip),
        }
    }

    /// Wraps `handler` in this layer: the layer's fallible preparation
    /// (policy load, `dlopen`) plus the guard state it leaves behind.
    /// The trace session is not opened here (see [`Layered::install`]).
    fn wrap(
        self,
        handler: Box<dyn SyscallHandler>,
    ) -> Result<(Layer, Box<dyn SyscallHandler>), InstallError> {
        Ok(match self {
            LayerKind::Record => (
                Layer::Record(None),
                Box::new(RecordHandler::wrapping(handler)),
            ),
            LayerKind::Hooks => {
                let spec = std::env::var(HOOKS_ENV).unwrap_or_default();
                let loaded = hookabi::stack_from_spec(&spec, handler)
                    .map_err(|(e, _)| InstallError::Hook(e))?;
                let hooks = loaded
                    .hooks
                    .into_iter()
                    .map(|(id, hook)| WatchedHook {
                        id,
                        mtime: mtime_of(hook.origin()),
                        hook,
                    })
                    .collect();
                // The base installs a clone of the stack — clones share
                // state, so attach/detach through the guard mutates the
                // live handler.
                let handler = Box::new(loaded.stack.clone());
                let layer = Layer::Hooks(HooksLayer {
                    stack: loaded.stack,
                    hooks: Arc::new(Mutex::new(hooks)),
                    watcher: None,
                });
                (layer, handler)
            }
            LayerKind::Sfip => {
                let path = match std::env::var(::sfip::POLICY_ENV) {
                    Ok(p) if !p.is_empty() => p,
                    _ => return Err(InstallError::Policy(::sfip::PolicyError::NoPolicyPath)),
                };
                let policy = Policy::load(path.as_ref()).map_err(InstallError::Policy)?;
                let action = ViolationAction::from_env().map_err(InstallError::Policy)?;
                let check_origins = std::env::var(::sfip::ORIGINS_ENV).is_ok_and(|v| v == "1");
                let enforcer = SfipHandler::new(Arc::new(policy), action, check_origins, handler);
                (Layer::Sfip(action), Box::new(enforcer))
            }
        })
    }
}

/// Looks up (or parses, builds and caches) a layered backend.
pub(crate) fn by_name(name: &str) -> Option<&'static dyn Mechanism> {
    let mut cache = CACHE.lock().unwrap();
    if let Some((_, m)) = cache.iter().find(|(k, _)| k == name) {
        return Some(*m);
    }
    let (base, layers) = parse(name)?;
    let built: &'static dyn Mechanism = Box::leak(Box::new(Layered {
        key: Box::leak(name.to_string().into_boxed_str()),
        base,
        layers,
    }));
    cache.push((name.to_string(), built));
    Some(built)
}

/// Whether `name` parses as a layered backend carrying `+<layer>`.
pub(crate) fn has_layer(name: &str, layer: &str) -> bool {
    parse(name).is_some_and(|(_, layers)| layers.iter().any(|k| k.suffix() == layer))
}

/// Parses `name` per the module grammar; `None` if it does not match
/// or is a bare static name.
fn parse(name: &str) -> Option<(Base, Vec<LayerKind>)> {
    if let Some(path) = name.strip_prefix("replay:") {
        return (!path.is_empty()).then(|| (Base::Replay(PathBuf::from(path)), Vec::new()));
    }
    let mut parts = name.split('+');
    let base = static_by_name(parts.next()?)?;
    let mut layers = Vec::new();
    for suffix in parts {
        let kind = LayerKind::ALL.into_iter().find(|k| k.suffix() == suffix)?;
        if layers.contains(&kind) {
            return None;
        }
        layers.push(kind);
    }
    (!layers.is_empty()).then_some((Base::Static(base), layers))
}

enum Base {
    Static(&'static dyn Mechanism),
    /// The base comes from the trace header at install time.
    Replay(PathBuf),
}

/// A parsed layered backend: a base plus its layers, innermost first.
struct Layered {
    key: &'static str,
    base: Base,
    layers: Vec<LayerKind>,
}

const REPLAY_TRAITS: Traits = Traits {
    name: "deterministic replay",
    expressiveness: Expressiveness::Full,
    exhaustive: true,
    efficiency: Efficiency::High,
};

/// The base a `replay:<path>` backend re-executes under:
/// `LP_REPLAY_BASE` if set, else the trace's own source mechanism,
/// else the paper's subject (`lazypoline` / `sim:lazypoline` by source
/// family).
fn replay_base(source: &str) -> Result<&'static dyn Mechanism, InstallError> {
    if let Ok(name) = std::env::var(REPLAY_BASE_ENV) {
        if !name.is_empty() {
            return static_by_name(&name)
                .ok_or(InstallError::Unsupported("LP_REPLAY_BASE names no backend"));
        }
    }
    if let Some(m) = static_by_name(source) {
        return Ok(m);
    }
    let fallback = if source.starts_with("sim:") {
        "sim:lazypoline"
    } else {
        "lazypoline"
    };
    static_by_name(fallback).ok_or(InstallError::Unsupported("no replay base backend"))
}

impl Mechanism for Layered {
    fn name(&self) -> &'static str {
        self.key
    }

    fn traits(&self) -> Traits {
        match self.base {
            Base::Static(m) => m.traits(),
            Base::Replay(_) => REPLAY_TRAITS,
        }
    }

    /// A replay trace is only read at install; a bad path surfaces
    /// there as a structured [`InstallError::Io`], not here.
    fn is_available(&self) -> bool {
        match self.base {
            Base::Static(m) => m.is_available(),
            Base::Replay(_) => true,
        }
    }

    fn install(&self, handler: Box<dyn SyscallHandler>) -> Result<ActiveMechanism, InstallError> {
        let (base, mut layers, mut handler) = match &self.base {
            Base::Static(m) => (*m, Vec::with_capacity(self.layers.len()), handler),
            Base::Replay(path) => {
                let state = ReplayState::load(path).map_err(|e| InstallError::Io(e.into()))?;
                let base = replay_base(&state.header().source_mechanism)?;
                if !base.is_available() {
                    return Err(InstallError::Unsupported(
                        "replay base mechanism unavailable on this host",
                    ));
                }
                let replayer = ReplayHandler::new(Arc::clone(&state)).observing(handler);
                (
                    base,
                    vec![Layer::Replay(state)],
                    Box::new(replayer) as Box<dyn SyscallHandler>,
                )
            }
        };
        for kind in &self.layers {
            let (layer, wrapped) = kind.wrap(handler)?;
            layers.push(layer);
            handler = wrapped;
        }
        // The trace session opens after every other layer prepared, so
        // a failed install leaves no file and no drain thread behind,
        // and before the base arms, so no early event is missed. Its
        // header names the static base, which `replay:` resolves.
        for layer in &mut layers {
            if let Layer::Record(recorder) = layer {
                *recorder = match std::env::var(TRACE_OUT_ENV) {
                    Ok(path) if !path.is_empty() => Some(
                        Recorder::to_path(path.as_ref(), base.name()).map_err(InstallError::Io)?,
                    ),
                    _ => None,
                };
            }
        }
        let owners: Vec<Owner> = self.layers.iter().filter_map(|k| k.owner()).collect();
        let counters = Baseline::take(&owners, &Sources::new(self.key));
        let base = base.install(handler)?;
        for layer in &mut layers {
            if let Layer::Hooks(h) = layer {
                h.start_watcher();
            }
        }
        Ok(ActiveMechanism::new(
            self.key,
            Inner::Layered(Box::new(LayeredActive { base, layers })),
            counters,
        ))
    }
}

/// One layer's live state in a [`LayeredActive`] guard.
pub(crate) enum Layer {
    /// The trace session, when `LP_TRACE_OUT` asked for one.
    Record(Option<Recorder>),
    Hooks(HooksLayer),
    /// The violation action, reported as `sfip_mode`.
    Sfip(ViolationAction),
    Replay(Arc<ReplayState>),
}

/// Live layered installation. Field order is teardown order: the base
/// disarms before the layers drop, so the recorder's final drain sees
/// the base's last events. Hooks are torn down earlier, in `drop`.
pub(crate) struct LayeredActive {
    pub(crate) base: ActiveMechanism,
    pub(crate) layers: Vec<Layer>,
}

impl LayeredActive {
    /// Fills in the counter sources only the layers know.
    pub(crate) fn read_into(&self, src: &mut Sources) {
        for layer in &self.layers {
            match layer {
                Layer::Hooks(h) => src.hooks_loaded = h.stack.dynamic_len() as u64,
                Layer::Sfip(action) => src.sfip_mode = action.name(),
                Layer::Record(_) | Layer::Replay(_) => {}
            }
        }
    }

    pub(crate) fn hooks(&self) -> Option<&HooksLayer> {
        self.layers.iter().find_map(|l| match l {
            Layer::Hooks(h) => Some(h),
            _ => None,
        })
    }

    pub(crate) fn replay_state(&self) -> Option<&Arc<ReplayState>> {
        self.layers.iter().find_map(|l| match l {
            Layer::Replay(state) => Some(state),
            _ => None,
        })
    }
}

impl Drop for LayeredActive {
    fn drop(&mut self) {
        for layer in &mut self.layers {
            if let Layer::Hooks(h) = layer {
                h.teardown();
            }
        }
    }
}

/// One attached dynamic hook plus the mtime the watcher compares
/// against.
struct WatchedHook {
    id: HookId,
    hook: LoadedHook,
    mtime: Option<SystemTime>,
}

fn mtime_of(path: &str) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// The `+hooks` layer: the shared stack and the loaded hooks (kept for
/// `fini` and reporting; shared with the optional mtime watcher).
pub(crate) struct HooksLayer {
    pub(crate) stack: HookStack,
    hooks: Arc<Mutex<Vec<WatchedHook>>>,
    watcher: Option<Watcher>,
}

impl HooksLayer {
    /// Starts the `LP_HOOKS_WATCH` thread once the base is armed.
    fn start_watcher(&mut self) {
        if std::env::var(HOOKS_WATCH_ENV).is_ok_and(|v| v == "1")
            && !self.hooks.lock().unwrap().is_empty()
        {
            self.watcher = Some(Watcher::spawn(self.stack.clone(), Arc::clone(&self.hooks)));
        }
    }

    pub(crate) fn loaded(&self) -> Vec<(HookId, String, i32)> {
        self.hooks
            .lock()
            .unwrap()
            .iter()
            .map(|w| (w.id, w.hook.name().to_string(), w.hook.priority()))
            .collect()
    }

    pub(crate) fn detach_hook(&self, id: HookId) -> bool {
        let mut hooks = self.hooks.lock().unwrap();
        let Some(pos) = hooks.iter().position(|w| w.id == id) else {
            return false;
        };
        if !self.stack.detach(id) {
            return false;
        }
        hooks.remove(pos).hook.run_fini();
        true
    }

    /// The watcher stops first (it mutates the stack), then each
    /// surviving hook detaches and runs `fini`. The libraries stay
    /// mapped forever (hookabi docs). Idempotent.
    fn teardown(&mut self) {
        self.watcher = None;
        for w in self.hooks.lock().unwrap().drain(..) {
            if self.stack.detach(w.id) {
                w.hook.run_fini();
            }
        }
    }
}

impl Drop for HooksLayer {
    /// Covers installs that fail after the hooks loaded.
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The `LP_HOOKS_WATCH` housekeeping thread: stopped and joined when
/// the hook layer tears down, *before* the hooks detach.
struct Watcher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watcher {
    fn spawn(stack: HookStack, hooks: Arc<Mutex<Vec<WatchedHook>>>) -> Watcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lp-hooks-watch".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(WATCH_INTERVAL);
                    sweep(&stack, &hooks);
                }
            })
            .expect("spawn hook watcher thread");
        Watcher {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One watcher pass: reload every hook whose library mtime moved.
/// The swap is `detach` → `fini` → reload → `attach` (the order the
/// manual [`HooksLayer::detach_hook`] path uses); dispatch racing the
/// window simply misses the hook for a few events — the stack's RCU
/// snapshots make both edges safe against in-flight syscalls.
fn sweep(stack: &HookStack, hooks: &Mutex<Vec<WatchedHook>>) {
    let mut hooks = hooks.lock().unwrap();
    for entry in hooks.iter_mut() {
        let now = mtime_of(entry.hook.origin());
        let (Some(seen), Some(changed)) = (entry.mtime, now) else {
            // Library currently unreadable (mid-rewrite) or mtime was
            // never known: (re)arm the comparison and try next pass.
            entry.mtime = now.or(entry.mtime);
            continue;
        };
        if changed == seen {
            continue;
        }
        // Always advance the watermark — a library that fails to
        // reload is retried only on a *further* change, not every
        // pass.
        entry.mtime = Some(changed);
        let origin = entry.hook.origin().to_string();
        let prio = entry.hook.priority();
        // On a failed reload keep dispatching into the old module; the
        // next mtime bump retries.
        if let Ok(fresh) = LoadedHook::load(Path::new(&origin), Some(prio)) {
            if !stack.detach(entry.id) {
                continue; // manually detached since the lock check
            }
            entry.hook.run_fini();
            entry.id = stack.attach_dynamic(Box::new(fresh.clone()), prio);
            entry.hook = fresh;
            HOOK_RELOADS.fetch_add(1, Ordering::Relaxed);
        }
    }
}
