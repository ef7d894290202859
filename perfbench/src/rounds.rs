//! The interleaved measurement loop shared by every workload.
//!
//! Deployments take turns in rounds whose order alternates (forward,
//! then reversed), so each deployment's cost in a round pair is
//! compared with `none`'s in the same pair ([`crate::stats::abba_ratio`]).
//! A deployment that has failed keeps its place in the schedule: the
//! ops it would have run (as many as `none` ran in that round) count as
//! failed.

use crate::host::now_ns;
use crate::stats;
use crate::trace::Tracer;

/// One deployment's turn in one round.
#[derive(Clone, Debug, Default)]
pub struct Quantum {
    /// Per-op cost in the workload's unit (ns per syscall, server CPU
    /// ns per request, wall ns per launch).
    pub cost: f64,
    /// CPU ns per op spent by the deployment's processes.
    pub cpu: f64,
    /// Ops completed.
    pub ops: u64,
    /// Ops whose output did not match the bare run.
    pub failed: u64,
    /// Per-op latency samples (ns), when requested.
    pub samples: Vec<f64>,
    /// Wall time of the turn, ns.
    pub wall_ns: u64,
    /// CPU time the generator (this process) spent in the turn, ns.
    pub gen_cpu_ns: u64,
}

/// A workload's set of live deployments.
pub trait Deployments {
    /// Deployment names; index 0 is the un-interposed `none`.
    fn names(&self) -> Vec<String>;
    /// Runs deployment `idx` for about `ms` milliseconds. `None` once
    /// the deployment has failed.
    fn quantum(&mut self, idx: usize, ms: u64, keep_samples: bool) -> Option<Quantum>;
}

/// Everything the loop measured.
pub struct Rounds {
    /// Deployment names, in schedule order.
    pub names: Vec<String>,
    /// `turns[d][r]`: deployment `d`'s turn in round `r` (`None`:
    /// failed).
    pub turns: Vec<Vec<Option<Quantum>>>,
    /// Rounds whose spans were recorded (the traced run alternates).
    pub traced: Vec<bool>,
}

/// Runs rounds until `seconds` have elapsed and the last round pair is
/// complete. Per-op samples are kept for the deployments in `keep`.
pub fn run(
    deps: &mut dyn Deployments,
    seconds: f64,
    round_ms: u64,
    keep: &[usize],
    tracer: &mut Tracer,
    label: &str,
) -> Rounds {
    let names = deps.names();
    let n = names.len();
    let mut turns: Vec<Vec<Option<Quantum>>> = vec![Vec::new(); n];
    let mut traced = Vec::new();
    let start = now_ns();
    let budget = (seconds * 1e9) as u64;
    let mut r = 0usize;
    let root = tracer.begin(&format!("{label}.rounds"), None, 0);
    while r % 2 == 1 || r < 2 || now_ns() - start < budget {
        // In the traced run every other round pair records spans, so
        // the cost of tracing can be read off the untraced pairs.
        let on = tracer.enabled() && (r / 2).is_multiple_of(2);
        traced.push(on);
        let span = if on {
            tracer.begin("round", root, r as u64)
        } else {
            None
        };
        let order: Vec<usize> = if r.is_multiple_of(2) {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for d in order {
            let t0 = now_ns();
            let q = deps.quantum(d, round_ms, keep.contains(&d));
            if on {
                tracer.record(
                    &format!("{label}.{}", names[d]),
                    t0,
                    now_ns(),
                    span,
                    r as u64,
                );
            }
            turns[d].push(q);
        }
        tracer.end(span);
        r += 1;
    }
    tracer.end(root);
    Rounds {
        names,
        turns,
        traced,
    }
}

impl Rounds {
    /// Index of a deployment by name.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// `(lower, upper)` per-op costs of the rounds where both ran,
    /// with round pairs kept aligned (a pair with a failed turn is
    /// dropped whole).
    fn paired(&self, lower: &str, upper: &str) -> Option<Vec<(f64, f64)>> {
        let (lo, up) = (self.index(lower)?, self.index(upper)?);
        let mut out = Vec::new();
        for pair in (0..self.traced.len()).collect::<Vec<_>>().chunks_exact(2) {
            let both: Option<Vec<(f64, f64)>> = pair
                .iter()
                .map(|&r| match (&self.turns[lo][r], &self.turns[up][r]) {
                    (Some(a), Some(b)) if a.ops > 0 && b.ops > 0 => Some((a.cost, b.cost)),
                    _ => None,
                })
                .collect();
            out.extend(both.unwrap_or_default());
        }
        Some(out)
    }

    /// ABBA overhead ratio of `name` over `none`, with the number of
    /// round pairs behind it.
    pub fn overhead(&self, name: &str) -> Option<(f64, usize)> {
        let p = self.paired(&self.names[0], name)?;
        Some((stats::abba_ratio(&p)?, p.len() / 2))
    }

    /// Quartiles of the per-pair overhead ratios of `name`: how much
    /// the ratio moved within the run.
    pub fn overhead_quartiles(&self, name: &str) -> Option<[f64; 3]> {
        stats::quartiles(&stats::abba_pair_ratios(
            &self.paired(&self.names[0], name)?,
        ))
    }

    /// ABBA marginal cost of `upper` over `lower`, in the workload's
    /// cost unit, with its round-pair count.
    pub fn marginal(&self, lower: &str, upper: &str) -> Option<(f64, usize)> {
        let p = self.paired(lower, upper)?;
        Some((stats::abba_diff(&p)?, p.len() / 2))
    }

    /// Median per-op cost of `name` over its completed turns.
    pub fn median_cost(&self, name: &str) -> Option<(f64, usize)> {
        self.median_of(name, |q| q.cost)
    }

    /// Median CPU ns per op of `name` over its completed turns.
    pub fn median_cpu(&self, name: &str) -> Option<(f64, usize)> {
        self.median_of(name, |q| q.cpu)
    }

    fn median_of(&self, name: &str, f: fn(&Quantum) -> f64) -> Option<(f64, usize)> {
        let v: Vec<f64> = self.turns[self.index(name)?]
            .iter()
            .flatten()
            .filter(|q| q.ops > 0)
            .map(f)
            .collect();
        Some((stats::median(&v)?, v.len()))
    }

    /// All per-op samples of `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.index(name).map_or_else(Vec::new, |d| {
            self.turns[d]
                .iter()
                .flatten()
                .flat_map(|q| q.samples.iter().copied())
                .collect()
        })
    }

    /// `(attempted, failed)` ops of deployment `d`: completed turns
    /// count their own ops and mismatches; a failed turn counts as many
    /// ops as `none` ran in that round, all failed.
    pub fn ops(&self, d: usize) -> (u64, u64) {
        let mut att = 0;
        let mut bad = 0;
        for (r, turn) in self.turns[d].iter().enumerate() {
            match turn {
                Some(q) => {
                    att += q.ops;
                    bad += q.failed;
                }
                None => {
                    let sched = self.turns[0][r].as_ref().map_or(1, |q| q.ops.max(1));
                    att += sched;
                    bad += sched;
                }
            }
        }
        (att, bad)
    }

    /// Traced-over-untraced cost of `none` minus one: what recording
    /// spans cost the measured loop. `None` outside the traced run.
    pub fn trace_overhead(&self) -> Option<f64> {
        let cost = |on: bool| {
            let v: Vec<f64> = self.turns[0]
                .iter()
                .zip(&self.traced)
                .filter(|(_, &t)| t == on)
                .filter_map(|(q, _)| q.as_ref().map(|q| q.cost))
                .collect();
            stats::median(&v)
        };
        Some(cost(true)? / cost(false)? - 1.0)
    }
}
