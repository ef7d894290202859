//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <syscall_mix|http_small|exec_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench spans <file>        # per-layer self times of a traced run
//! ```
//!
//! Each workload runs under a fixed set of deployments, each in its own
//! long-lived child (or, for `exec_churn`, as the environment of each
//! launch), measured in alternating rounds against the un-interposed
//! `none` ([`rounds`]). The untraced run prints the end-to-end metrics;
//! the traced run (`--trace 1`) adds the per-layer ladder, layer-call
//! timings and counters, and writes its spans. The last line of stdout
//! is the JSON result; the line before it is the full report (host
//! stamp, children and their CPUs, overrides, failures, every metric
//! with its sample count).

mod exec;
mod host;
mod http;
mod mix;
mod rounds;
mod stats;
mod trace;
mod worker;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use host::json_str;
use rounds::Rounds;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse::<f64>().map_err(|_| bad())?,
            "--trace" => a.trace = val != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["syscall_mix", "http_small", "exec_churn"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// One named number with its unit and sample count.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
    /// Quartiles of the per-round-pair values, for overhead ratios.
    quartiles: Option<[f64; 3]>,
}

/// What a workload run produced.
#[derive(Default)]
struct Outcome {
    /// The end-to-end metrics under the names the report uses.
    report: Vec<Metric>,
    /// The end-to-end metrics every workload prints on the last line.
    gated: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    layer: Vec<Metric>,
    /// Ops of the measured deployments, and how many failed.
    attempted: u64,
    failed: u64,
    /// Ops of every scheduled deployment, known-failing ones included.
    all_attempted: u64,
    all_failed: u64,
    /// `(deployment, reason)` for every child that failed.
    failures: Vec<(String, String)>,
    /// `(deployment, cpu affinity, environment)` of every child.
    children: Vec<(String, String, worker::Env)>,
}

impl Outcome {
    fn push(list: &mut Vec<Metric>, name: &str, v: Option<(f64, usize)>, unit: &'static str) {
        if let Some((value, n)) = v.filter(|(v, _)| v.is_finite()) {
            list.push(Metric {
                name: name.to_string(),
                value,
                unit,
                n,
                quartiles: None,
            });
        }
    }
    fn report(&mut self, name: &str, v: Option<(f64, usize)>, unit: &'static str) {
        Self::push(&mut self.report, name, v, unit);
    }
    /// Reports `overhead_x.<metric>` of deployment `d`, with the spread
    /// of its per-pair ratios.
    fn report_overhead(&mut self, r: &Rounds, metric: &str, d: &str) {
        self.report(&format!("overhead_x.{metric}"), r.overhead(d), "x");
        if let Some(m) = self.report.last_mut().filter(|m| m.name.ends_with(metric)) {
            m.quartiles = r.overhead_quartiles(d);
        }
    }
    fn gated(&mut self, name: &str, v: Option<(f64, usize)>, unit: &'static str) {
        Self::push(&mut self.gated, name, v, unit);
    }
    fn layer(&mut self, name: &str, v: Option<(f64, usize)>, unit: &'static str) {
        Self::push(&mut self.layer, name, v, unit);
    }

    /// Counts a round loop's ops; deployments in `probes` are known to
    /// fail today and count only in the report's totals.
    fn count_ops(&mut self, r: &Rounds, probes: &[&str]) {
        for d in 0..r.names.len() {
            let (att, bad) = r.ops(d);
            self.all_attempted += att;
            self.all_failed += bad;
            if !probes.contains(&r.names[d].as_str()) {
                self.attempted += att;
                self.failed += bad;
            }
        }
        let frac =
            (self.all_attempted > 0).then(|| self.all_failed as f64 / self.all_attempted as f64);
        self.report(
            "failed_frac",
            frac.map(|f| (f, self.all_attempted as usize)),
            "frac",
        );
    }

    fn child(&mut self, w: &worker::Worker) {
        self.children
            .push((w.name.clone(), w.affinity.clone(), w.env.clone()));
        if let Some(why) = &w.failure {
            self.failures.push((w.name.clone(), why.clone()));
        }
    }

    /// The metrics every workload prints on the last line: the two
    /// overheads every workload has, and set-up time. Absolute timings
    /// swing with the load other tenants put on the host, and so do
    /// the latency-percentile ratios (stolen CPU time lands in both
    /// tails), so those go to the report only.
    fn common(&mut self, r: &Rounds, lp: &str, hooks: &str, setup: &[f64]) {
        let (lat, base) = (r.samples(lp), r.samples("none"));
        let ratio = |p| {
            let n = lat.len().min(base.len());
            Some((
                stats::percentile(&lat, p)? / stats::percentile(&base, p)?,
                n,
            ))
        };
        self.gated("overhead_x.lazypoline", r.overhead(lp), "x");
        self.gated("overhead_x.hooks", r.overhead(hooks), "x");
        self.report("latency_x.p50", ratio(50.0), "x");
        self.report("latency_x.p90", ratio(90.0), "x");
        self.gated(
            "setup_s",
            stats::median(setup).map(|v| (v, setup.len())),
            "s",
        );
        self.report(
            "setup_s",
            stats::median(setup).map(|v| (v, setup.len())),
            "s",
        );
    }

    /// Per-layer metrics read off a workload's own rounds.
    fn workload_layers(&mut self, r: &Rounds) {
        let none: Vec<&rounds::Quantum> = r.turns[0].iter().flatten().collect();
        let ops: u64 = none.iter().map(|q| q.ops).sum();
        let wall: u64 = none.iter().map(|q| q.wall_ns).sum();
        let busy: f64 = none.iter().map(|q| q.cpu * q.ops as f64).sum();
        let gen: u64 = none.iter().map(|q| q.gen_cpu_ns).sum();
        let n = none.len();
        self.layer(
            "workload.none_cpu_us_per_op",
            r.median_cpu("none").map(|(v, n)| (v / 1e3, n)),
            "us",
        );
        self.layer(
            "workload.generator_cpu_us_per_op",
            (ops > 0).then(|| (gen as f64 / ops as f64 / 1e3, n)),
            "us",
        );
        self.layer(
            "workload.deployment_busy_frac",
            (wall > 0).then(|| (busy / wall as f64, n)),
            "frac",
        );
        self.layer(
            "trace.overhead_frac",
            r.trace_overhead().map(|v| (v, r.traced.len())),
            "frac",
        );
    }
}

/// Counter pairs → per-op metrics.
fn counter(stats: &[(String, u64)], key: &str) -> Option<u64> {
    stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Recorder drops over events seen, from a `+record` deployment's
/// counters.
fn dropped_frac(stats: &[(String, u64)]) -> Option<(f64, usize)> {
    let drop = counter(stats, "events_dropped")?;
    let total = counter(stats, "events_recorded")? + drop;
    (total > 0).then(|| (drop as f64 / total as f64, total as usize))
}

/// Per-op counter metrics from one deployment's counters.
fn counters(out: &mut Outcome, keys: &[(&str, &str)], stats: &[(String, u64)], ops: u64) {
    for &(metric, key) in keys {
        let v = counter(stats, key)
            .filter(|_| ops > 0)
            .map(|c| (c as f64 / ops as f64, ops as usize));
        out.layer(metric, v, "count");
    }
}

const LP_COUNTERS: &[(&str, &str)] = &[
    ("lazypoline.dispatches_per_op", "dispatches"),
    ("lazypoline.slow_path_hits_per_op", "slow_path_hits"),
    ("lazypoline.sites_patched_per_op", "sites_patched"),
];
const SFIP_COUNTERS: &[(&str, &str)] = &[
    ("sfip.checks_per_op", "sfip_checks"),
    ("sfip.violations_per_op", "sfip_violations"),
];
const REPLAY_COUNTERS: &[(&str, &str)] = &[
    ("replay.events_per_op", "events_recorded"),
    ("replay.ring_near_full_per_op", "ring_near_full"),
];

/// Replay metrics from a `+record` deployment's counters and trace.
fn replay_layers(out: &mut Outcome, stats: &[(String, u64)], ops: u64, trace: Option<(u64, u64)>) {
    counters(out, REPLAY_COUNTERS, stats, ops);
    out.layer("replay.events_dropped_frac", dropped_frac(stats), "frac");
    out.layer(
        "replay.ring_grows",
        counter(stats, "ring_grows").map(|v| (v as f64, 1)),
        "count",
    );
    out.layer(
        "replay.drain_yields",
        counter(stats, "drain_yields").map(|v| (v as f64, 1)),
        "count",
    );
    out.layer(
        "replay.bytes_per_event",
        trace
            .filter(|(e, _)| *e > 0)
            .map(|(e, b)| (b as f64 / e as f64, e as usize)),
        "B",
    );
}

fn learned_layers(out: &mut Outcome, l: Option<&mix::Learned>) {
    out.layer(
        "sfip.learn_ms",
        l.map(|l| (l.learn_ns as f64 / 1e6, 1)),
        "ms",
    );
    out.layer(
        "replay.decode_ns_per_event",
        l.map(|l| (l.decode_ns_per_event, 1)),
        "ns",
    );
    out.layer(
        "replay.finish_ms",
        l.and_then(|l| l.finish_ns).map(|f| (f as f64 / 1e6, 1)),
        "ms",
    );
}

/// The ladder's rungs: each adds one stage over a rung below it.
const LADDER: &[&str] = &[
    "none",
    "sud-allow",
    "sud-raw",
    "zpoline",
    "lazypoline-nox",
    "lazypoline",
    "lazypoline+hooks",
    "lazypoline+sfip",
    "lazypoline+record",
    "direct:pass",
    "direct:miss",
    "direct:hooks",
    "direct:sfip",
    "direct:record",
];

/// `(metric, lower rung, upper rung)`: marginal ns per syscall.
const LADDER_STEPS: &[(&str, &str, &str)] = &[
    ("sud.allow_ns", "none", "sud-allow"),
    ("sud.sigsys_ns", "sud-allow", "sud-raw"),
    ("zpoline.trampoline_ns", "none", "zpoline"),
    ("lazypoline.selector_ns", "zpoline", "lazypoline-nox"),
    ("lazypoline.xstate_ns", "lazypoline-nox", "lazypoline"),
    ("hookabi.stack_ns", "lazypoline", "lazypoline+hooks"),
    ("hookabi.call_ns", "direct:pass", "direct:hooks"),
    ("sfip.check_ns", "lazypoline", "lazypoline+sfip"),
    ("sfip.handle_ns", "direct:pass", "direct:sfip"),
    ("replay.record_ns", "lazypoline", "lazypoline+record"),
    ("replay.push_ns", "direct:pass", "direct:record"),
    ("interpose.dispatch_ns", "none", "direct:pass"),
    ("interpose.miss_ns", "none", "direct:miss"),
];

/// Seconds the ladder's rounds run in the traced run.
const LADDER_SECONDS: f64 = 4.0;

/// Results of the ladder that workloads without the layer fall back on.
struct LadderExtras {
    sfip: Vec<(String, u64)>,
    record: Vec<(String, u64)>,
    record_trace: Option<(u64, u64)>,
    learned: Option<mix::Learned>,
}

/// The per-layer ladder: every rung runs the `syscall_mix` stream in
/// its own child, interleaved like the end-to-end rounds.
fn ladder(out: &mut Outcome, ctx: &Ctx, tracer: &mut Tracer) -> LadderExtras {
    let mut bench = mix::MixBench::setup(LADDER, ctx.seed, &ctx.tmp, ctx.dep_cpu, tracer, 100);
    let r = rounds::run(&mut bench, LADDER_SECONDS, 10, &[], tracer, "ladder");
    out.layer("syscalls.bare_ns", r.median_cost("none"), "ns");
    for &(metric, lo, up) in LADDER_STEPS {
        out.layer(metric, r.marginal(lo, up), "ns");
    }
    out.layer(
        "hookabi.load_us",
        bench.load_ns.map(|v| (v as f64 / 1e3, 1)),
        "us",
    );
    for (name, ns) in &bench.install_ns {
        if [
            "none",
            "lazypoline",
            "lazypoline+hooks",
            "lazypoline+sfip",
            "lazypoline+record",
        ]
        .contains(&name.as_str())
        {
            let metric = format!("mechanism.install_us.{}", name.replace('+', "_"));
            out.layer(&metric, Some((*ns as f64 / 1e3, 1)), "us");
        }
    }
    let idx = |n: &str| r.index(n).expect("ladder rung");
    let sfip = bench.stats(idx("lazypoline+sfip"));
    let record = bench.stats(idx("lazypoline+record"));
    let record_trace = bench.finish_trace(idx("lazypoline+record"));
    for w in &bench.workers {
        if let Some(why) = &w.failure {
            out.failures
                .push((format!("ladder:{}", w.name), why.clone()));
        }
    }
    LadderExtras {
        sfip,
        record,
        record_trace,
        learned: bench.learned.take(),
    }
}

/// Run-wide context.
struct Ctx {
    seed: u64,
    seconds: f64,
    tmp: PathBuf,
    dep_cpu: Option<usize>,
}

fn ops_of(stats: &[(String, u64)]) -> u64 {
    counter(stats, "ops").unwrap_or(0)
}

/// `(overhead metric suffix, deployment)` of each workload, after
/// `none`.
const MIX_DEPLOYMENTS: &[(&str, &str)] = &[
    ("lazypoline", "lazypoline"),
    ("hooks", "lazypoline+hooks"),
    ("sfip", "lazypoline+sfip"),
    ("record", "lazypoline+record"),
    ("hardened", "lazypoline-hardened"),
];
const HTTP_DEPLOYMENTS: &[(&str, &str)] = &[
    ("lazypoline", "lazypoline"),
    ("hooks", "lazypoline+hooks"),
    ("sfip", "lazypoline+sfip"),
    ("record", "lazypoline+record"),
];
const EXEC_DEPLOYMENTS: &[(&str, &str)] = &[("lazypoline", "preload"), ("hooks", "preload+hooks")];

/// `none` followed by a workload's deployments.
fn schedule(deps: &[(&str, &'static str)]) -> Vec<&'static str> {
    std::iter::once("none")
        .chain(deps.iter().map(|d| d.1))
        .collect()
}

impl Outcome {
    fn report_overheads(&mut self, r: &Rounds, deps: &[(&str, &str)]) {
        for (metric, d) in deps {
            self.report_overhead(r, metric, d);
        }
    }
}

fn run_syscall_mix(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let names = schedule(MIX_DEPLOYMENTS);
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut bench = None;
    for i in 0..SETUPS {
        drop(bench.take());
        let t0 = host::now_ns();
        bench = Some(mix::MixBench::setup(
            &names,
            ctx.seed,
            &ctx.tmp,
            ctx.dep_cpu,
            tracer,
            i as u64,
        ));
        setup.push((host::now_ns() - t0) as f64 / 1e9);
    }
    let mut bench = bench.expect("set up");
    let lp = 1;
    let r = rounds::run(&mut bench, ctx.seconds, 10, &[0, lp], tracer, "mix");
    out.count_ops(&r, &["lazypoline-hardened"]);
    out.common(&r, "lazypoline", "lazypoline+hooks", &setup);
    out.report_overheads(&r, MIX_DEPLOYMENTS);
    let lat = r.samples("lazypoline");
    for p in [50.0, 90.0, 99.0] {
        let v = stats::percentile(&lat, p).map(|v| (v, lat.len()));
        out.report(&format!("syscall_ns.p{p}"), v, "ns");
    }
    let idx = |d: &str| r.index(d).expect("scheduled deployment");
    let rec = bench.stats(idx("lazypoline+record"));
    out.report("events_dropped_frac", dropped_frac(&rec), "frac");
    if tracer.enabled() {
        let lp_stats = bench.stats(lp);
        counters(&mut out, LP_COUNTERS, &lp_stats, ops_of(&lp_stats));
        let hooks = bench.stats(idx("lazypoline+hooks"));
        counters(
            &mut out,
            &[("hookabi.hook_dispatches_per_op", "hook_dispatches")],
            &hooks,
            ops_of(&hooks),
        );
        let sf = bench.stats(idx("lazypoline+sfip"));
        counters(&mut out, SFIP_COUNTERS, &sf, ops_of(&sf));
        let trace = bench.finish_trace(idx("lazypoline+record"));
        replay_layers(&mut out, &rec, ops_of(&rec), trace);
        learned_layers(&mut out, bench.learned.as_ref());
        out.workload_layers(&r);
    }
    for w in &bench.workers {
        out.child(w);
    }
    out
}

fn run_http_small(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let names = schedule(HTTP_DEPLOYMENTS);
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut bench: Option<(http::HttpBench, httpd::Docroot)> = None;
    for i in 0..SETUPS {
        if let Some((b, root)) = bench.take() {
            b.stop_all();
            drop(root);
        }
        let t0 = host::now_ns();
        let root = httpd::Docroot::create(http::SIZES).expect("docroot");
        let b = http::HttpBench::setup(
            &names,
            ctx.seed,
            root.path(),
            &ctx.tmp,
            ctx.dep_cpu,
            tracer,
            i as u64,
        );
        setup.push((host::now_ns() - t0) as f64 / 1e9);
        bench = Some((b, root));
    }
    let (mut bench, _root) = bench.expect("set up");
    let r = rounds::run(&mut bench, ctx.seconds, 50, &[0, 1], tracer, "http");
    out.count_ops(&r, &[]);
    out.common(&r, "lazypoline", "lazypoline+hooks", &setup);
    out.report_overheads(&r, HTTP_DEPLOYMENTS);
    let lat = r.samples("lazypoline");
    for p in [50.0, 99.0] {
        let v = stats::percentile(&lat, p).map(|v| (v / 1e3, lat.len()));
        out.report(&format!("req_us.p{p}"), v, "us");
    }
    out.report(
        "cpu_us_per_req",
        r.median_cpu("lazypoline").map(|(v, n)| (v / 1e3, n)),
        "us",
    );
    for w in bench.workers() {
        out.child(w);
    }
    let learned = bench.learned.take();
    let stopped = bench.stop_all();
    let of = |d: &str| {
        stopped
            .iter()
            .find(|(n, _, _)| n == d)
            .map(|(_, s, n)| (s.clone(), *n))
    };
    let (rec, rec_ops) = of("lazypoline+record").unwrap_or_default();
    out.report("events_dropped_frac", dropped_frac(&rec), "frac");
    if tracer.enabled() {
        let (lp, lp_ops) = of("lazypoline").unwrap_or_default();
        counters(&mut out, LP_COUNTERS, &lp, lp_ops);
        let (hooks, hook_ops) = of("lazypoline+hooks").unwrap_or_default();
        counters(
            &mut out,
            &[("hookabi.hook_dispatches_per_op", "hook_dispatches")],
            &hooks,
            hook_ops,
        );
        let (sf, sf_ops) = of("lazypoline+sfip").unwrap_or_default();
        counters(&mut out, SFIP_COUNTERS, &sf, sf_ops);
        let trace = counter(&rec, "trace_events").zip(counter(&rec, "trace_bytes"));
        replay_layers(&mut out, &rec, rec_ops, trace);
        learned_layers(&mut out, learned.as_ref());
        out.workload_layers(&r);
    }
    out
}

fn run_exec_churn(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (preload, hook) = match exec::libraries() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let deps = || {
        let shim = ("LD_PRELOAD".to_string(), preload.display().to_string());
        vec![
            exec::ExecDep {
                name: "none".into(),
                env: vec![],
            },
            exec::ExecDep {
                name: "preload".into(),
                env: vec![shim.clone()],
            },
            exec::ExecDep {
                name: "preload+hooks".into(),
                env: vec![shim, ("LP_HOOKS".to_string(), hook.display().to_string())],
            },
        ]
    };
    let dir = ctx.tmp.join("ls-dir");
    let mut setup = Vec::new();
    let mut bench = None;
    for i in 0..SETUPS {
        let span = tracer.begin("setup.exec", None, i as u64);
        let t0 = host::now_ns();
        exec::make_dir(&dir, ctx.seed).expect("seeded directory");
        let args = vec!["-l".to_string(), dir.display().to_string()];
        let b = exec::ExecBench::new("/bin/ls", args, deps(), ctx.dep_cpu, true);
        b.warm_up();
        bench = Some(b);
        setup.push((host::now_ns() - t0) as f64 / 1e9);
        tracer.end(span);
    }
    let mut bench = bench.expect("set up");
    let r = rounds::run(&mut bench, ctx.seconds, 50, &[0, 1], tracer, "exec");
    out.count_ops(&r, &[]);
    out.common(&r, "preload", "preload+hooks", &setup);
    out.report_overheads(&r, EXEC_DEPLOYMENTS);
    let lat = r.samples("preload");
    for p in [50.0, 90.0] {
        let v = stats::percentile(&lat, p).map(|v| (v / 1e6, lat.len()));
        out.report(&format!("launch_ms.p{p}"), v, "ms");
    }
    for d in &bench.deps {
        let aff = ctx.dep_cpu.map_or("inherited".into(), |c| c.to_string());
        out.children.push((d.name.clone(), aff, d.env.clone()));
    }
    if tracer.enabled() {
        // The shim's own counters, from its exit-time dump.
        let mut probe = exec::ExecBench::new(
            "/bin/ls",
            vec!["-l".into(), dir.display().to_string()],
            deps(),
            ctx.dep_cpu,
            false,
        );
        for d in &mut probe.deps {
            d.env.push(("LAZYPOLINE_STATS".into(), "1".into()));
        }
        let stats_of = |d: usize| {
            let mut sum: Vec<(String, u64)> = Vec::new();
            let n = 10;
            for _ in 0..n {
                let Ok(l) = probe.launch(d, true) else {
                    continue;
                };
                for (k, v) in exec::parse_stats_dump(&l.stderr) {
                    match sum.iter_mut().find(|(s, _)| *s == k) {
                        Some(e) => e.1 += v,
                        None => sum.push((k, v)),
                    }
                }
            }
            (sum, n)
        };
        let (lp, n) = stats_of(1);
        let keys = [
            ("lazypoline.dispatches_per_op", "dispatcher invocations"),
            (
                "lazypoline.slow_path_hits_per_op",
                "slow-path (SIGSYS) trips",
            ),
            ("lazypoline.sites_patched_per_op", "sites lazily rewritten"),
        ];
        counters(&mut out, &keys, &lp, n);
        let (hk, n) = stats_of(2);
        counters(
            &mut out,
            &[("hookabi.hook_dispatches_per_op", "hook dispatches")],
            &hk,
            n,
        );
        out.workload_layers(&r);
    }
    out
}

/// `lazypoline_preload.init_us`: `/bin/true` with the shim minus without.
fn preload_init(out: &mut Outcome, ctx: &Ctx, tracer: &mut Tracer) {
    let Ok((preload, _)) = exec::libraries() else {
        return;
    };
    let deps = vec![
        exec::ExecDep {
            name: "none".into(),
            env: vec![],
        },
        exec::ExecDep {
            name: "preload".into(),
            env: vec![("LD_PRELOAD".into(), preload.display().to_string())],
        },
    ];
    let mut b = exec::ExecBench::new("/bin/true", vec![], deps, ctx.dep_cpu, false);
    b.warm_up();
    let r = rounds::run(&mut b, 1.5, 20, &[], tracer, "init");
    out.layer(
        "lazypoline_preload.init_us",
        r.marginal("none", "preload").map(|(v, n)| (v / 1e3, n)),
        "us",
    );
}

fn metrics_json(list: &[Metric], with_n: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in list.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}:{{\"value\":{},\"unit\":{}",
            if i > 0 { "," } else { "" },
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
        if with_n {
            let _ = write!(out, ",\"n\":{}", m.n);
            if let Some([q1, _, q3]) = m.quartiles {
                let _ = write!(out, ",\"q1\":{q1},\"q3\":{q3}");
            }
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn report_json(a: &Args, out: &Outcome, gen_cpu: &str) -> String {
    let (commit, digest) = host::commit_stamp();
    let mut s = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"commit\":{},\
         \"source_digest\":{},\"generator_affinity\":{},\"children\":[",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace as u8,
        host::host_json(),
        json_str(&commit),
        json_str(&digest),
        json_str(gen_cpu),
    );
    for (i, (name, aff, env)) in out.children.iter().enumerate() {
        let env: Vec<String> = env
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        let _ = write!(
            s,
            "{}{{\"deployment\":{},\"affinity\":{},\"overrides\":{{{}}}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            json_str(aff),
            env.join(",")
        );
    }
    s.push_str("],\"failures\":[");
    for (i, (d, why)) in out.failures.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"deployment\":{},\"reason\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(d),
            json_str(why)
        );
    }
    let _ = write!(
        s,
        "],\"attempted_all\":{},\"failed_all\":{},\"metrics\":{},\"per_layer\":{}}}",
        out.all_attempted,
        out.all_failed,
        metrics_json(&out.report, true),
        metrics_json(&out.layer, true)
    );
    s
}

fn bench(a: Args) -> i32 {
    let cwd = std::env::current_dir().expect("cwd");
    let build =
        cwd.join(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()));
    let tmp = build.join(format!("perfbench-tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        return 2;
    }
    // Docroots and traces land inside the checkout.
    std::env::set_var("TMPDIR", &tmp);
    let (gen_cpu, dep_cpu) = host::cpu_plan();
    if let Some(c) = gen_cpu {
        let _ = host::pin_to_cpu(c);
    }
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        tmp: tmp.clone(),
        dep_cpu,
    };
    let mut tracer = Tracer::new(a.trace);
    let mut out = match a.workload.as_str() {
        "syscall_mix" => run_syscall_mix(&ctx, &mut tracer),
        "http_small" => run_http_small(&ctx, &mut tracer),
        _ => run_exec_churn(&ctx, &mut tracer),
    };
    if a.trace {
        let extras = ladder(&mut out, &ctx, &mut tracer);
        preload_init(&mut out, &ctx, &mut tracer);
        // Layers a workload has no deployment of are read off the ladder.
        let have = |out: &Outcome, m: &str| out.layer.iter().any(|x| x.name == m);
        if !have(&out, "sfip.checks_per_op") {
            counters(&mut out, SFIP_COUNTERS, &extras.sfip, ops_of(&extras.sfip));
        }
        if !have(&out, "replay.events_per_op") {
            replay_layers(
                &mut out,
                &extras.record,
                ops_of(&extras.record),
                extras.record_trace,
            );
        }
        if !have(&out, "sfip.learn_ms") {
            learned_layers(&mut out, extras.learned.as_ref());
        }
        let spans = build.join(format!("perfbench-spans-{}-{}.tsv", a.workload, a.seed));
        match tracer.write(&spans) {
            Ok(()) => println!("# spans: {}", spans.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
        for line in trace::render(tracer.spans()).lines() {
            println!("# {line}");
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let gen_aff = host::affinity_of(std::process::id());
    println!("{}", report_json(&a, &out, &gen_aff));
    let expected = if a.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    let shown = if a.trace { &out.layer } else { &out.gated };
    let list: Vec<&Metric> = shown.iter().collect();
    let complete = list.len() >= expected;
    let correct = out.failed == 0 && complete;
    if !complete {
        let have: Vec<&str> = list.iter().map(|m| m.name.as_str()).collect();
        let want = if a.trace { PER_LAYER } else { END_TO_END };
        let missing: Vec<&&str> = want.iter().filter(|w| !have.contains(w)).collect();
        eprintln!("perfbench: metrics missing: {missing:?}");
    }
    let metrics = if a.trace {
        metrics_json(&out.layer, false)
    } else {
        metrics_json(&out.gated, false)
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    0
}

/// The end-to-end metric names every untraced run prints.
const END_TO_END: &[&str] = &["overhead_x.lazypoline", "overhead_x.hooks", "setup_s"];

/// The per-layer metric names every traced run prints.
const PER_LAYER: &[&str] = &[
    "syscalls.bare_ns",
    "sud.allow_ns",
    "sud.sigsys_ns",
    "zpoline.trampoline_ns",
    "lazypoline.selector_ns",
    "lazypoline.xstate_ns",
    "hookabi.stack_ns",
    "hookabi.call_ns",
    "sfip.check_ns",
    "sfip.handle_ns",
    "replay.record_ns",
    "replay.push_ns",
    "interpose.dispatch_ns",
    "interpose.miss_ns",
    "lazypoline.dispatches_per_op",
    "lazypoline.slow_path_hits_per_op",
    "lazypoline.sites_patched_per_op",
    "hookabi.hook_dispatches_per_op",
    "sfip.checks_per_op",
    "sfip.violations_per_op",
    "replay.events_per_op",
    "replay.ring_near_full_per_op",
    "replay.events_dropped_frac",
    "replay.ring_grows",
    "replay.drain_yields",
    "replay.bytes_per_event",
    "lazypoline_preload.init_us",
    "hookabi.load_us",
    "mechanism.install_us.none",
    "mechanism.install_us.lazypoline",
    "mechanism.install_us.lazypoline_hooks",
    "mechanism.install_us.lazypoline_sfip",
    "mechanism.install_us.lazypoline_record",
    "sfip.learn_ms",
    "replay.decode_ns_per_event",
    "replay.finish_ms",
    "workload.none_cpu_us_per_op",
    "workload.generator_cpu_us_per_op",
    "workload.deployment_busy_frac",
    "trace.overhead_frac",
];

fn child(argv: &[String]) -> ! {
    match argv {
        [kind, name, arg] if kind == "mix" => mix::child_main(name, arg.parse().unwrap_or(1)),
        [kind, name, arg] if kind == "http" => http::child_main(name, arg),
        _ => {
            eprintln!("perfbench: bad child arguments {argv:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("child") => child(&argv[1..]),
        Some("spans") => match argv.get(1).map(|p| trace::read(Path::new(p))) {
            Some(Ok(spans)) => {
                print!("{}", trace::render(&spans));
                0
            }
            Some(Err(e)) => {
                eprintln!("perfbench: {e}");
                1
            }
            None => {
                eprintln!("usage: perfbench spans <file>");
                2
            }
        },
        _ => match parse_args(&argv) {
            Ok(a) => bench(a),
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}
