//! The one counter table: a row per [`StatsSnapshot`] field with its
//! [`Kind`], unit, [`Owner`], doc and reader. Snapshots, install
//! baselines, the bench JSON and the child stats lines all derive from
//! it. Rows only read storage, which stays with its owner, so nothing
//! here runs on the dispatch path.

use std::fmt;
use std::sync::atomic::Ordering::Relaxed;

/// How a row's value relates to its source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic count, reported as its change since install.
    Delta,
    /// A current level, reported as read.
    Gauge,
    /// A name, reported as read.
    Label,
}

/// The layer a row belongs to: an installation reports the rows whose
/// owner it has, and the others stay zero (or empty).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// Every installation.
    Any,
    /// The base's dispatcher (engine, `sud-raw` handler or simulator).
    Dispatch,
    /// The lazypoline engine (engine-backed natives).
    Engine,
    /// The handler registry's panic quarantine (every native base).
    Registry,
    /// The flight recorder and replay (every base).
    Recorder,
    /// A `+hooks` layer.
    Hooks,
    /// A `+sfip` layer.
    Sfip,
}

/// One row's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// A delta or gauge.
    Count(u64),
    /// A label.
    Label(&'static str),
}

/// What the readers need besides process-global atomics: the engine's
/// counters, read once, and the values only the installation knows.
#[derive(Default)]
pub(crate) struct Sources {
    pub(crate) mechanism: &'static str,
    engine: lazypoline::Stats,
    /// A non-engine base's own `(dispatches, slow_path_hits)`.
    pub(crate) trips: Option<(u64, u64)>,
    pub(crate) hooks_loaded: u64,
    pub(crate) sfip_mode: &'static str,
}

impl Sources {
    pub(crate) fn new(mechanism: &'static str) -> Sources {
        let engine = lazypoline::stats();
        Sources {
            mechanism,
            engine,
            ..Sources::default()
        }
    }
}

/// One counter: its [`StatsSnapshot`] field and how to read it.
pub struct Row {
    /// The field name, also its JSON key and text-form name.
    pub name: &'static str,
    /// Delta, gauge or label.
    pub kind: Kind,
    /// What one count is (`syscalls`, `events`, …; `name` for labels).
    pub unit: &'static str,
    /// The layer that reports it.
    pub owner: Owner,
    /// The field's doc comment, its lines joined.
    pub doc: &'static str,
    read: fn(&Sources) -> Value,
    get: fn(&StatsSnapshot) -> Value,
    set: fn(&mut StatsSnapshot, Value),
}

macro_rules! counter_table {
    (@value Label, $($v:tt)+) => { Value::Label($($v)+) };
    (@value $kind:ident, $($v:tt)+) => { Value::Count($($v)+) };
    ($(
        $(#[doc = $doc:literal])+
        $name:ident: $ty:ty = $kind:ident, $unit:literal, $owner:ident, |$s:ident| $read:expr;
    )+) => {
        /// Uniform per-installation statistics, one field per [`ROWS`]
        /// entry: deltas since install, so drivers can attribute counts
        /// to one measurement phase. Rows the installation does not own
        /// (see [`Owner`]) stay zero.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])+ pub $name: $ty,)+
        }

        const COUNT: usize = [$(stringify!($name)),+].len();

        /// Every counter, in [`StatsSnapshot`] field order.
        pub static ROWS: [Row; COUNT] = [$(Row {
            name: stringify!($name),
            kind: Kind::$kind,
            unit: $unit,
            owner: Owner::$owner,
            doc: concat!($($doc),+).trim_ascii_start(),
            read: |$s: &Sources| counter_table!(@value $kind, $read),
            get: |snap| counter_table!(@value $kind, snap.$name),
            set: |snap, v| if let counter_table!(@value $kind, x) = v { snap.$name = x },
        }),+];
    };
}

counter_table! {
    /// Registry key of the mechanism that produced this snapshot.
    mechanism: &'static str = Label, "name", Any, |s| s.mechanism;
    /// Syscalls that reached the mechanism's dispatcher.
    // The engine counts trampoline entries; its slow-path emulations
    // notify the handler too, so both are added in.
    dispatches: u64 = Delta, "syscalls", Dispatch, |s| s.trips.map_or(s.engine.dispatches
        + s.engine.disabled_mode_emulations + s.engine.unpatchable_emulations, |t| t.0);
    /// Slow-path (`SIGSYS`) trips.
    slow_path_hits: u64 = Delta, "trips", Dispatch,
        |s| s.trips.map_or(s.engine.slow_path_hits, |t| t.1);
    /// Syscall sites rewritten to `call rax`.
    sites_patched: u64 = Delta, "sites", Engine, |s| s.engine.sites_patched;
    /// Syscalls emulated because their site is unpatchable.
    unpatchable_emulations: u64 = Delta, "syscalls", Engine, |s| s.engine.unpatchable_emulations;
    /// Syscalls emulated because lazy rewriting is off.
    disabled_mode_emulations: u64 = Delta, "syscalls", Engine,
        |s| s.engine.disabled_mode_emulations;
    /// Application signal deliveries routed through the wrapper.
    signals_wrapped: u64 = Delta, "signals", Engine, |s| s.engine.signals_wrapped;
    /// Patch re-attempts after transient `mprotect` failures.
    patch_retries: u64 = Delta, "retries", Engine, |s| s.engine.patch_retries;
    /// Pages inserted into the unpatchable-page blocklist.
    pages_blocklisted: u64 = Delta, "pages", Engine, |s| s.engine.pages_blocklisted;
    /// Interposer handlers quarantined after panicking.
    quarantined_handlers: u64 = Delta, "handlers", Registry, |_s| interpose::quarantined_handlers();
    /// Syscall events the flight recorder captured (nonzero only under
    /// a `+record` layer or a manually installed recorder).
    events_recorded: u64 = Delta, "events", Recorder, |_s| replay::events_recorded();
    /// Syscall events the flight recorder dropped to its overflow
    /// policy.
    events_dropped: u64 = Delta, "events", Recorder, |_s| replay::events_dropped();
    /// Divergences replay detected between the execution and its trace
    /// (nonzero only under `replay:<path>`).
    replay_divergences: u64 = Delta, "divergences", Recorder, |_s| replay::replay_divergences();
    /// Records the drain thread spilled from the rings into a trace
    /// file.
    events_spilled: u64 = Delta, "events", Recorder, |_s| replay::events_spilled();
    /// Adaptive capacity doublings of flight-recorder rings.
    ring_grows: u64 = Delta, "grows", Recorder, |_s| replay::ring::total_grows();
    /// Ring pushes that observed near-full (≥3/4) occupancy —
    /// recorder backpressure short of an actual drop.
    ring_near_full: u64 = Delta, "pushes", Recorder, |_s| replay::ring::total_near_full();
    /// Near-full pushes that yielded the producer (`LP_DRAIN_YIELD`).
    drain_yields: u64 = Delta, "yields", Recorder, |_s| replay::ring::total_drain_yields();
    /// Escape attempts the hardened backstop caught (nonzero only
    /// under `lazypoline-hardened`).
    bypass_blocked: u64 = Delta, "syscalls", Engine, |s| s.engine.bypass_blocked;
    /// WRPKRU open/close pairs around protected-selector writes
    /// (nonzero only with the pkey layer armed).
    pkru_switches: u64 = Delta, "switches", Engine, |s| s.engine.pkru_switches;
    /// Dynamically loaded hooks currently attached to the handler stack
    /// (a gauge, not a delta; nonzero only under a `+hooks` layer).
    hooks_loaded: u64 = Gauge, "hooks", Hooks, |s| s.hooks_loaded;
    /// Syscall events dispatched into dynamically loaded hooks since
    /// install (one count per hook per event that reaches it).
    hook_dispatches: u64 = Delta, "events", Hooks, |_s| interpose::hook_dispatches();
    /// Hook libraries reloaded by the `LP_HOOKS_WATCH` mtime watcher
    /// since install (nonzero only under a `+hooks` layer with the
    /// watcher enabled).
    hook_reloads: u64 = Delta, "reloads", Hooks, |_s| crate::layers::HOOK_RELOADS.load(Relaxed);
    /// Syscall-flow transition checks performed since install (nonzero
    /// only under a `+sfip` layer).
    sfip_checks: u64 = Delta, "checks", Sfip, |_s| ::sfip::checks();
    /// Syscall-flow violations observed since install (nonzero only
    /// under a `+sfip` layer).
    sfip_violations: u64 = Delta, "violations", Sfip, |_s| ::sfip::violations();
    /// The `+sfip` layer's violation action (`kill`|`quarantine`|`count`;
    /// empty for other backends).
    sfip_mode: &'static str = Label, "name", Sfip, |s| s.sfip_mode;
}

/// One installation's owners and its readings at install.
pub(crate) struct Baseline {
    owners: Vec<Owner>,
    at: [Value; COUNT],
}

impl Baseline {
    /// Reads every row now, before the installation arms.
    pub(crate) fn take(owners: &[Owner], src: &Sources) -> Baseline {
        let owners = [Owner::Any].iter().chain(owners).copied().collect();
        let at = std::array::from_fn(|i| (ROWS[i].read)(src));
        Baseline { owners, at }
    }

    /// Whether this installation reports `row`.
    pub(crate) fn owns(&self, row: &Row) -> bool {
        self.owners.contains(&row.owner)
    }

    /// Writes every owned row into `snap`: deltas since install, the rest as read.
    pub(crate) fn fold(&self, src: &Sources, snap: &mut StatsSnapshot) {
        let delta = |now: u64, at| Value::Count(now.saturating_sub(at));
        for (row, at) in ROWS.iter().zip(self.at).filter(|(r, _)| self.owns(r)) {
            let now = match ((row.read)(src), at, row.kind) {
                (Value::Count(now), Value::Count(at), Kind::Delta) => delta(now, at),
                (now, ..) => now,
            };
            (row.set)(snap, now);
        }
    }
}

impl StatsSnapshot {
    /// Every row with this snapshot's value, in field order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static Row, Value)> + '_ {
        ROWS.iter().map(move |r| (r, (r.get)(self)))
    }

    /// The value of the row named `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        ROWS.iter().find(|r| r.name == name).map(|r| (r.get)(self))
    }
}

/// The text form: `name=value` per row, space-separated, in field
/// order (labels never contain whitespace).
impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (row, v)) in self.fields().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            match v {
                Value::Count(n) => write!(f, "{sep}{}={n}", row.name)?,
                Value::Label(l) => write!(f, "{sep}{}={l}", row.name)?,
            }
        }
        Ok(())
    }
}

/// Parses the text form; rows it omits stay zero. The error names the
/// first pair with an unknown name or a malformed value. Labels are
/// leaked to `'static`: a parse reads one child process's stats line.
impl std::str::FromStr for StatsSnapshot {
    type Err = String;

    fn from_str(text: &str) -> Result<StatsSnapshot, String> {
        let mut snap = StatsSnapshot::default();
        for pair in text.split_whitespace() {
            let bad = || format!("bad stats pair {pair:?}");
            let (name, v) = pair.split_once('=').ok_or_else(bad)?;
            let row = ROWS.iter().find(|r| r.name == name).ok_or_else(bad)?;
            let value = match row.kind {
                Kind::Label if v.is_empty() => Value::Label(""),
                Kind::Label => Value::Label(Box::leak(v.into())),
                Kind::Delta | Kind::Gauge => Value::Count(v.parse().map_err(|_| bad())?),
            };
            (row.set)(&mut snap, value);
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with every row set to a distinct value.
    fn distinct() -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for (i, row) in ROWS.iter().enumerate() {
            let v = match row.kind {
                Kind::Label => Value::Label(["sim:lazypoline+sfip", "quarantine"][i % 2]),
                Kind::Delta | Kind::Gauge => Value::Count(1000 + i as u64),
            };
            (row.set)(&mut snap, v);
            assert_eq!((row.get)(&snap), v, "{}", row.name);
        }
        snap
    }

    #[test]
    fn every_field_is_one_row_with_a_unit_and_an_owner() {
        // The derived Debug lists the struct's fields in order: they are
        // exactly the rows, each once.
        let debug = format!("{:?}", StatsSnapshot::default());
        let fields: Vec<&str> = debug
            .trim_start_matches("StatsSnapshot { ")
            .split(", ")
            .map(|f| f.split(':').next().unwrap())
            .collect();
        let names: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
        assert_eq!(fields, names);
        for (i, row) in ROWS.iter().enumerate() {
            assert_eq!(
                names.iter().filter(|n| **n == row.name).count(),
                1,
                "{}",
                row.name
            );
            assert!(
                !row.unit.is_empty() && !row.doc.trim().is_empty(),
                "{}",
                row.name
            );
            assert_eq!(ROWS.iter().position(|r| r.name == row.name), Some(i));
            let is_label = matches!((row.get)(&StatsSnapshot::default()), Value::Label(_));
            assert_eq!(is_label, row.kind == Kind::Label, "{}", row.name);
        }
        assert_eq!(
            ROWS[1].doc, "Syscalls that reached the mechanism's dispatcher.",
            "the field's doc, not the comment beside it"
        );
        let owned = |o: Owner| ROWS.iter().filter(|r| r.owner == o).count();
        assert_eq!(owned(Owner::Any), 1, "only the mechanism name");
        assert_eq!(owned(Owner::Hooks) + owned(Owner::Sfip), 6);
        let of = |k: Kind| {
            ROWS.iter()
                .filter(|r| r.kind == k)
                .map(|r| r.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(of(Kind::Gauge), ["hooks_loaded"]);
        assert_eq!(of(Kind::Label), ["mechanism", "sfip_mode"]);
    }

    #[test]
    fn text_form_round_trips_every_field() {
        let snap = distinct();
        let text = snap.to_string();
        assert_eq!(text.split(' ').count(), ROWS.len());
        assert!(
            text.starts_with("mechanism=sim:lazypoline+sfip dispatches=1001 "),
            "{text}"
        );
        assert_eq!(text.parse::<StatsSnapshot>(), Ok(snap));
        for (row, v) in snap.fields() {
            assert_eq!(snap.get(row.name), Some(v));
        }
        // Omitted rows stay zero; an empty label is a value.
        let partial: StatsSnapshot = "events_recorded=7 sfip_mode=".parse().unwrap();
        assert_eq!(partial.events_recorded, 7);
        assert_eq!(
            partial,
            StatsSnapshot {
                events_recorded: 7,
                ..Default::default()
            }
        );
        for bad in ["bogus=1", "dispatches", "dispatches=x", "dispatches=-1"] {
            assert!(bad.parse::<StatsSnapshot>().is_err(), "{bad}");
        }
    }

    #[test]
    fn fold_reports_owned_rows_as_deltas_since_install() {
        let at = |dispatches, emulated, trips| Sources {
            mechanism: "m",
            engine: lazypoline::Stats {
                dispatches,
                unpatchable_emulations: emulated,
                disabled_mode_emulations: emulated,
                slow_path_hits: 5,
                sites_patched: 9,
                ..Default::default()
            },
            trips,
            hooks_loaded: 3,
            sfip_mode: "count",
        };
        // The engine's handler-visible dispatches add both emulation
        // counts to its trampoline entries.
        let engine = Baseline::take(&[Owner::Dispatch, Owner::Engine], &at(10, 1, None));
        let mut s = StatsSnapshot::default();
        engine.fold(&at(50, 4, None), &mut s);
        assert_eq!(
            (s.mechanism, s.dispatches, s.slow_path_hits),
            ("m", 40 + 3 + 3, 0)
        );
        assert_eq!(
            (s.unpatchable_emulations, s.disabled_mode_emulations),
            (3, 3)
        );
        assert_eq!((s.sites_patched, s.hooks_loaded, s.sfip_mode), (0, 0, ""));

        // A non-engine base's own trips stand in for the engine's.
        let raw = Baseline::take(&[Owner::Dispatch], &at(10, 1, Some((4, 4))));
        let mut s = StatsSnapshot::default();
        raw.fold(&at(50, 4, Some((9, 9))), &mut s);
        assert_eq!(
            (s.dispatches, s.slow_path_hits, s.unpatchable_emulations),
            (5, 5, 0)
        );

        // Gauges and labels are reported as read, not as deltas.
        let layers = Baseline::take(&[Owner::Sfip, Owner::Hooks], &at(0, 0, None));
        let mut s = StatsSnapshot::default();
        layers.fold(&at(0, 0, None), &mut s);
        assert_eq!((s.hooks_loaded, s.sfip_mode, s.dispatches), (3, "count", 0));
    }
}
