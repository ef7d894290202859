//! `exec_churn`: launch `/bin/ls -l` on a seeded directory, one child
//! at a time, with and without the preload shim.
//!
//! Every launch pays what a steady-state loop never does: engine init,
//! trampoline install, `SIGSYS` discovery of each site and batch
//! rewriting. The launcher is this process; a deployment is the
//! environment the launched program gets.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::host::{now_ns, pin_to_cpu, process_cpu_ns, wait_rusage, Rng};
use crate::rounds::{Deployments, Quantum};

/// Entries in the seeded directory.
const FILES: usize = 200;
/// Launches per deployment before rounds start.
const WARMUP_LAUNCHES: usize = 3;

/// One launched program's outcome.
pub struct Launch {
    /// Wall time from spawn to reap, ns.
    pub wall_ns: u64,
    /// CPU time of the launched process, ns.
    pub cpu_ns: u64,
    /// Raw wait status.
    pub status: i32,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Captured stderr (only when asked for).
    pub stderr: String,
}

/// A deployment: its name and the environment the program gets.
pub struct ExecDep {
    /// `none`, `preload`, `preload+hooks`.
    pub name: String,
    /// Environment beyond `PATH` and `LC_ALL`.
    pub env: Vec<(String, String)>,
}

/// The `exec_churn` deployments.
pub struct ExecBench {
    program: PathBuf,
    args: Vec<String>,
    /// The deployments, `none` first.
    pub deps: Vec<ExecDep>,
    cpu: Option<usize>,
    expected: Option<(i32, Vec<u8>)>,
}

/// The shim and hook libraries, from the build directory this
/// executable lives in.
pub fn libraries() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let preload = dir.join("liblazypoline_preload.so");
    let hook = dir.join("libhook_count.so");
    for p in [&preload, &hook] {
        if !p.exists() {
            return Err(format!("{} is not built", p.display()));
        }
    }
    Ok((preload, hook))
}

/// Creates the seeded directory: `FILES` entries with seeded names and
/// sizes.
pub fn make_dir(dir: &Path, seed: u64) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let mut rng = Rng::new(seed, 3);
    for i in 0..FILES {
        let name = format!("f{i:03}-{:010x}", rng.next() >> 24);
        let len = rng.below(8192) as usize;
        std::fs::write(dir.join(name), vec![b'x'; len])?;
    }
    Ok(())
}

impl ExecBench {
    /// `program args…` under each deployment; a first launch under
    /// `none` fixes the expected output when `check` is set.
    pub fn new(
        program: &str,
        args: Vec<String>,
        deps: Vec<ExecDep>,
        cpu: Option<usize>,
        check: bool,
    ) -> ExecBench {
        let mut b = ExecBench {
            program: PathBuf::from(program),
            args,
            deps,
            cpu,
            expected: None,
        };
        if check {
            let l = b.launch(0, false).expect("the bare launch runs");
            b.expected = Some((l.status, l.stdout));
        }
        b
    }

    /// A few launches per deployment, so page cache and dynamic loader
    /// caches are warm before timing.
    pub fn warm_up(&self) {
        for d in 0..self.deps.len() {
            for _ in 0..WARMUP_LAUNCHES {
                let _ = self.launch(d, false);
            }
        }
    }

    /// Launches under deployment `d` and reaps the child.
    pub fn launch(&self, d: usize, stderr: bool) -> std::io::Result<Launch> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .env_clear()
            .env("PATH", "/usr/bin:/bin")
            .env("LC_ALL", "C")
            .envs(self.deps[d].env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(if stderr {
                Stdio::piped()
            } else {
                Stdio::null()
            });
        if let Some(cpu) = self.cpu {
            // SAFETY: the closure only calls sched_setaffinity, which is
            // async-signal-safe, between fork and exec.
            unsafe {
                cmd.pre_exec(move || pin_to_cpu(cpu));
            }
        }
        let t0 = now_ns();
        let mut child = cmd.spawn()?;
        let mut stdout = Vec::new();
        child
            .stdout
            .take()
            .expect("piped")
            .read_to_end(&mut stdout)?;
        let mut err = String::new();
        if let Some(mut e) = child.stderr.take() {
            e.read_to_string(&mut err)?;
        }
        // Reaped here with its rusage; `child` is never waited on again.
        let (status, ru) = wait_rusage(child.id())?;
        Ok(Launch {
            wall_ns: now_ns() - t0,
            cpu_ns: ru.cpu_ns(),
            status,
            stdout,
            stderr: err,
        })
    }

    /// Whether a launch's exit status and stdout equal the bare run's.
    fn matches(&self, l: &Launch) -> bool {
        self.expected
            .as_ref()
            .is_none_or(|(s, out)| *s == l.status && *out == l.stdout)
    }
}

impl Deployments for ExecBench {
    fn names(&self) -> Vec<String> {
        self.deps.iter().map(|d| d.name.clone()).collect()
    }

    fn quantum(&mut self, idx: usize, ms: u64, keep: bool) -> Option<Quantum> {
        let (t0, gen0) = (now_ns(), process_cpu_ns());
        let mut q = Quantum::default();
        let (mut wall, mut cpu) = (0u64, 0u64);
        while q.ops == 0 || now_ns() - t0 < ms * 1_000_000 {
            q.ops += 1;
            match self.launch(idx, false) {
                Ok(l) => {
                    q.failed += (!self.matches(&l)) as u64;
                    wall += l.wall_ns;
                    cpu += l.cpu_ns;
                    if keep {
                        q.samples.push(l.wall_ns as f64);
                    }
                }
                Err(_) => q.failed += 1,
            }
        }
        q.cost = wall as f64 / q.ops as f64;
        q.cpu = cpu as f64 / q.ops as f64;
        q.wall_ns = now_ns() - t0;
        q.gen_cpu_ns = process_cpu_ns() - gen0;
        Some(q)
    }
}

/// Parses the shim's `LAZYPOLINE_STATS=1` dump (`label : value` lines).
pub fn parse_stats_dump(dump: &str) -> Vec<(String, u64)> {
    dump.lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(" : ")?;
            Some((k.trim().to_string(), v.trim().parse().ok()?))
        })
        .collect()
}
