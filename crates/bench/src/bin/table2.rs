//! Regenerates **Table II**: microbenchmarking overhead compared to
//! baseline (native, on this host's real kernel), plus the
//! dispatch-cost optimization measurements (syscall-interest filtering
//! and batch rewriting).
//!
//! ```sh
//! cargo run -p lp-bench --bin table2 --release
//! LP_BENCH_ITERS=2000000 LP_BENCH_RUNS=10 cargo run -p lp-bench --bin table2 --release
//! cargo run -p lp-bench --bin table2 --release -- --json   # also writes BENCH_table2.json
//! ```
//!
//! The Table II rows need SUD and a mappable page zero; the
//! interest-filter dispatch comparison runs on any host (the filter
//! lives entirely in the dispatcher's decision sequence).

use lp_bench::json::Json;
use lp_bench::micro;
use lp_bench::report::Table;

/// The paper's Table II values for side-by-side comparison.
const PAPER: &[(&str, f64)] = &[
    ("zpoline", 1.2),
    ("lazypoline without xstate preservation", 1.66),
    ("lazypoline", 2.38),
    ("SUD", 20.8),
    ("baseline with SUD enabled (selector=ALLOW)", 1.42),
];

/// Attaches a row's mechanism counter snapshot (install-to-teardown
/// deltas) and its recorder drop rate to its JSON object.
fn with_stats(row: Json, stats: Option<&mechanism::StatsSnapshot>) -> Json {
    let Some(s) = stats else { return row };
    let observed = (s.events_recorded + s.events_dropped).max(1);
    let drop_rate = s.events_dropped as f64 / observed as f64;
    row.field("drop_rate", Json::Num(drop_rate))
        .field("mechanism_stats", Json::from(s))
}

fn main() {
    // Child-process mode: measure only the hardened row and exit (the
    // seccomp backstop is one-way per process — see `micro::HardenedRow`).
    if std::env::args().any(|a| a == "--hardened-row") {
        micro::hardened_child_main();
    }
    let json_mode = std::env::args().any(|a| a == "--json");
    let native = micro::environment_supported();

    let results = if native {
        Some(micro::run_table2())
    } else {
        eprintln!(
            "skip: this host cannot run the native microbenchmark \
             (needs Linux >= 5.11 SUD and vm.mmap_min_addr = 0)"
        );
        None
    };

    // The hardened row runs in a re-exec'd child so its one-way seccomp
    // filter cannot leak into this process's remaining measurements. A
    // child that crashes fails the run; only an unsupported host skips.
    let hardened = results.as_ref().map(|_| {
        micro::run_hardened_row().unwrap_or_else(|reason| {
            eprintln!("table2: hardened row failed: {reason}");
            std::process::exit(1);
        })
    });

    if let Some(results) = &results {
        println!(
            "Table II — microbenchmark overhead vs baseline (syscall 500 x {} iters, {} runs)\n",
            results.iters, results.runs
        );
        let mut table = Table::new(["Configuration", "measured", "paper", "cycles/call", "σ%"]);
        let mut max_sd: f64 = results.baseline.stddev_pct();
        for (name, ratio, sd) in results.rows() {
            let paper = PAPER
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| format!("{v:.2}x"))
                .unwrap_or_default();
            let cycles = ratio * results.baseline.cycles();
            table.row([
                name.to_string(),
                format!("{ratio:.2}x"),
                paper,
                format!("{cycles:.0}"),
                format!("{sd:.2}"),
            ]);
            max_sd = max_sd.max(sd);
        }
        if let Some(Ok(h)) = &hardened {
            let ratio = h.measurement.cycles() / results.baseline.cycles();
            table.row([
                h.measurement.name.to_string(),
                format!("{ratio:.2}x"),
                String::new(),
                format!("{:.0}", h.measurement.cycles()),
                format!("{:.2}", h.measurement.stddev_pct()),
            ]);
            max_sd = max_sd.max(h.measurement.stddev_pct());
        }
        print!("{}", table.render());
        match &hardened {
            Some(Ok(h)) => println!(
                "hardened row: level {}, {} pkru switch(es), {} bypass(es) blocked (child process)",
                h.harden_level, h.stats.pkru_switches, h.stats.bypass_blocked
            ),
            Some(Err(reason)) => println!("hardened row: not measured ({reason})"),
            None => {}
        }
        println!(
            "\nbaseline: {:.0} cycles/call; max relative stddev {:.2}%",
            results.baseline.cycles(),
            max_sd
        );
        if let Some(hooks) = &results.lazypoline_hooks {
            // Acceptance gate: dispatching through one dlopen-loaded
            // no-op hook should cost about what the structurally
            // identical compiled-in chain costs (target: within 15%).
            let chain = results.lazypoline_chain.cycles();
            let loaded = hooks.cycles();
            println!(
                "loaded-hook overhead: {loaded:.0} vs {chain:.0} cycles/call \
                 compiled-in chain ({:+.1}% — target within 15%)",
                (loaded / chain - 1.0) * 100.0
            );
        }
        if let Some(sfip_row) = &results.lazypoline_sfip {
            // Acceptance gate: the flow-integrity check is one
            // thread-local swap plus one bitmatrix test per syscall
            // (target: within 10% of plain lazypoline), and a policy
            // learned from the workload's own trace must be clean.
            let plain = results.lazypoline.cycles();
            let checked = sfip_row.cycles();
            let s = results.snapshot_for(sfip_row.name);
            println!(
                "sfip overhead: {checked:.0} vs {plain:.0} cycles/call plain lazypoline \
                 ({:+.1}% — target within 10%); {} checks, {} violation(s), mode {}",
                (checked / plain - 1.0) * 100.0,
                s.map_or(0, |s| s.sfip_checks),
                s.map_or(0, |s| s.sfip_violations),
                s.map_or("", |s| s.sfip_mode),
            );
        }
        println!("(paper: Xeon Gold 5318S @2.1GHz, Linux 5.15; this host differs — compare shapes, not absolutes)");
        if let Some(r) = &results.recording {
            println!(
                "recording row trace: {} events, {} dropped ({:.4}% drop rate), \
                 {} bytes ({:.1} B/event)",
                r.events,
                r.dropped,
                r.drop_rate() * 100.0,
                r.bytes,
                if r.events == 0 {
                    0.0
                } else {
                    r.bytes as f64 / r.events as f64
                },
            );
        }
    }

    // Interest-filter dispatch cost: runs everywhere.
    let dispatch = micro::run_dispatch_cost();
    let all = dispatch.all_syscalls.cycles();
    let filtered = dispatch.interest_filtered.cycles();
    println!("\nDispatch-cost optimization — syscall-interest filtering ({} iters, {} runs):\n",
        dispatch.iters, dispatch.runs);
    let mut t = Table::new(["handler", "cycles/dispatch", "σ%"]);
    t.row([
        dispatch.all_syscalls.name.to_string(),
        format!("{all:.0}"),
        format!("{:.2}", dispatch.all_syscalls.stddev_pct()),
    ]);
    t.row([
        dispatch.interest_filtered.name.to_string(),
        format!("{filtered:.0}"),
        format!("{:.2}", dispatch.interest_filtered.stddev_pct()),
    ]);
    print!("{}", t.render());
    println!(
        "\ninterest filtering saves {:.0} cycles/dispatch ({:.2}x) for handlers with precise sets",
        all - filtered,
        all / filtered
    );

    // The same win measured for *loaded* hooks: the stack recomputes
    // its interest from the hook descriptors, so a narrowly scoped
    // dlopen'ed hook gets the same raw-path shortcut a compiled-in
    // policy does. Runs everywhere; skipped when the example hook
    // cdylibs are not built.
    let win_curve = micro::run_hook_win_curve();
    if let Some(w) = &win_curve {
        let wide = w.wide.cycles();
        let narrow = w.narrow.cycles();
        println!(
            "\nLoaded-hook interest filtering ({} iters, {} runs):\n",
            w.iters, w.runs
        );
        let mut t = Table::new(["hook stack", "cycles/dispatch", "σ%"]);
        t.row([
            w.wide.name.to_string(),
            format!("{wide:.0}"),
            format!("{:.2}", w.wide.stddev_pct()),
        ]);
        t.row([
            w.narrow.name.to_string(),
            format!("{narrow:.0}"),
            format!("{:.2}", w.narrow.stddev_pct()),
        ]);
        print!("{}", t.render());
        println!(
            "\ndeclared interest saves {:.0} cycles/dispatch ({:.2}x) for loaded hooks too",
            wide - narrow,
            wide / narrow
        );
    }

    // Batch rewriting (needs the native machinery).
    let batch = results.as_ref().map(|_| micro::run_batch_ablation());
    if let Some(b) = &batch {
        println!(
            "\nBatch rewriting — {} fresh sites on one page: {} SIGSYS batched vs {} unbatched",
            b.sites, b.batched.slow_path_hits, b.unbatched.slow_path_hits
        );
    }

    if json_mode {
        let mut root = Json::obj()
            .field("bench", Json::Str("table2".into()))
            .field("native_supported", Json::Bool(native));
        if let Some(results) = &results {
            let mut rows = vec![with_stats(
                Json::obj()
                    .field("name", Json::Str("baseline".into()))
                    .field("cycles_per_call", Json::Num(results.baseline.cycles()))
                    .field("vs_baseline", Json::Num(1.0))
                    .field("stddev_pct", Json::Num(results.baseline.stddev_pct())),
                results.snapshot_for("baseline"),
            )];
            for (name, ratio, sd) in results.rows() {
                rows.push(with_stats(
                    Json::obj()
                        .field("name", Json::Str(name.into()))
                        .field(
                            "cycles_per_call",
                            Json::Num(ratio * results.baseline.cycles()),
                        )
                        .field("vs_baseline", Json::Num(ratio))
                        .field("stddev_pct", Json::Num(sd)),
                    results.snapshot_for(name),
                ));
            }
            let row = Json::obj().field("name", Json::Str("lazypoline-hardened".into()));
            match &hardened {
                Some(Ok(h)) => rows.push(with_stats(
                    row.field("cycles_per_call", Json::Num(h.measurement.cycles()))
                        .field(
                            "vs_baseline",
                            Json::Num(h.measurement.cycles() / results.baseline.cycles()),
                        )
                        .field("stddev_pct", Json::Num(h.measurement.stddev_pct()))
                        .field("harden_level", Json::Str(h.harden_level.clone())),
                    Some(&h.stats),
                )),
                Some(Err(reason)) => rows.push(row.field("skipped", Json::Str(reason.to_string()))),
                None => {}
            }
            root = root
                .field("iters", Json::Int(results.iters))
                .field("runs", Json::Int(results.runs))
                .field("rows", Json::Arr(rows));
            if let Some(r) = &results.recording {
                root = root.field(
                    "recording",
                    Json::obj()
                        .field("events", Json::Int(r.events))
                        .field("events_dropped", Json::Int(r.dropped))
                        .field("drop_rate", Json::Num(r.drop_rate()))
                        .field("trace_bytes", Json::Int(r.bytes))
                        .field(
                            "bytes_per_event",
                            Json::Num(if r.events == 0 {
                                0.0
                            } else {
                                r.bytes as f64 / r.events as f64
                            }),
                        ),
                );
            }
        }
        root = root.field(
            "interest_dispatch",
            Json::obj()
                .field("iters", Json::Int(dispatch.iters))
                .field("runs", Json::Int(dispatch.runs))
                .field("all_syscalls_cycles", Json::Num(all))
                .field("interest_filtered_cycles", Json::Num(filtered))
                .field("speedup", Json::Num(all / filtered)),
        );
        if let Some(w) = &win_curve {
            root = root.field(
                "hook_win_curve",
                Json::obj()
                    .field("iters", Json::Int(w.iters))
                    .field("runs", Json::Int(w.runs))
                    .field("wide_hook_cycles", Json::Num(w.wide.cycles()))
                    .field("narrow_hook_cycles", Json::Num(w.narrow.cycles()))
                    .field("speedup", Json::Num(w.wide.cycles() / w.narrow.cycles())),
            );
        }
        if let Some(b) = &batch {
            root = root.field(
                "batch_rewriting",
                Json::obj()
                    .field("sites", Json::Int(b.sites as u64))
                    .field(
                        "batched",
                        Json::obj()
                            .field("slow_path_hits", Json::Int(b.batched.slow_path_hits))
                            .field("sites_patched", Json::Int(b.batched.sites_patched)),
                    )
                    .field(
                        "unbatched",
                        Json::obj()
                            .field("slow_path_hits", Json::Int(b.unbatched.slow_path_hits))
                            .field("sites_patched", Json::Int(b.unbatched.sites_patched)),
                    ),
            );
        }
        std::fs::write("BENCH_table2.json", root.render()).expect("write BENCH_table2.json");
        println!("\nwrote BENCH_table2.json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_stats_keys_are_the_counter_table() {
        let row = with_stats(Json::obj(), Some(&mechanism::StatsSnapshot::default()));
        let Json::Obj(row) = row else { unreachable!() };
        let Some((_, Json::Obj(fields))) = row.iter().find(|(k, _)| k == "mechanism_stats") else {
            panic!("row carries a mechanism_stats object: {row:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = mechanism::ROWS.iter().map(|r| r.name).collect();
        assert_eq!(keys, names);
        // The key set BENCH_table2.json consumers read.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut expected = [
            "mechanism",
            "dispatches",
            "slow_path_hits",
            "sites_patched",
            "unpatchable_emulations",
            "disabled_mode_emulations",
            "signals_wrapped",
            "patch_retries",
            "pages_blocklisted",
            "quarantined_handlers",
            "events_recorded",
            "events_dropped",
            "events_spilled",
            "ring_grows",
            "ring_near_full",
            "drain_yields",
            "replay_divergences",
            "bypass_blocked",
            "pkru_switches",
            "hooks_loaded",
            "hook_dispatches",
            "hook_reloads",
            "sfip_checks",
            "sfip_violations",
            "sfip_mode",
        ];
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }
}
