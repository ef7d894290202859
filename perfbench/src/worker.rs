//! Deployment children: one long-lived process per deployment, driven
//! over a line protocol on its stdin/stdout.
//!
//! A child that dies is never skipped: its wait status becomes a typed
//! reason such as `SIGSEGV during install`, and the caller counts every
//! op it had scheduled for it as failed.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::process::{CommandExt, ExitStatusExt};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::host::{affinity_of, pin_to_cpu, signal_name};

/// Counter values a child reported, by name.
pub type Counters = Vec<(String, u64)>;

/// Environment variables a deployment sets.
pub type Env = Vec<(String, String)>;

/// One deployment child.
pub struct Worker {
    /// Deployment name (a registry name or a direct-call rung).
    pub name: String,
    /// Environment the deployment needed beyond the inherited one.
    pub env: Env,
    /// Process id.
    pub pid: u32,
    /// CPUs the child may run on, read back from `/proc`.
    pub affinity: String,
    /// Why the child failed, once it has.
    pub failure: Option<String>,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts this executable as `child <kind> <deployment> <args…>`
    /// pinned to `cpu`.
    pub fn spawn(
        kind: &str,
        name: &str,
        args: &[String],
        env: Vec<(String, String)>,
        cpu: Option<usize>,
    ) -> std::io::Result<Worker> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg("child").arg(kind).arg(name).args(args);
        cmd.envs(env.iter().map(|(k, v)| (k, v)));
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        if let Some(cpu) = cpu {
            // SAFETY: the closure only calls sched_setaffinity, which is
            // async-signal-safe, between fork and exec.
            unsafe {
                cmd.pre_exec(move || pin_to_cpu(cpu));
            }
        }
        let mut child = cmd.spawn()?;
        let pid = child.id();
        Ok(Worker {
            name: name.to_string(),
            env,
            pid,
            affinity: affinity_of(pid),
            failure: None,
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("stdout is piped")),
            child,
        })
    }

    /// Whether the child is still usable.
    pub fn alive(&self) -> bool {
        self.failure.is_none()
    }

    /// Reads one reply line. On EOF or an `error …` reply the child is
    /// reaped and marked failed with a reason naming `phase`.
    pub fn read_reply(&mut self, phase: &str) -> Option<String> {
        if !self.alive() {
            return None;
        }
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 && !line.starts_with("error ") => Some(line.trim_end().to_string()),
            _ => {
                let said = line.strip_prefix("error ").map(|s| s.trim().to_string());
                self.fail(phase, said);
                None
            }
        }
    }

    /// Sends one command line and reads the reply.
    pub fn request(&mut self, cmd: &str, phase: &str) -> Option<String> {
        if !self.alive() {
            return None;
        }
        let sent = self
            .stdin
            .as_mut()
            .map(|s| writeln!(s, "{cmd}").and_then(|_| s.flush()).is_ok())
            .unwrap_or(false);
        if !sent {
            self.fail(phase, None);
            return None;
        }
        self.read_reply(phase)
    }

    /// Marks the child failed in `phase` (e.g. its socket broke) and
    /// reaps it.
    pub fn mark_failed(&mut self, phase: &str) {
        if self.alive() {
            self.fail(phase, None);
        }
    }

    fn fail(&mut self, phase: &str, said: Option<String>) {
        self.stdin = None;
        let _ = self.child.kill();
        let status = self.child.wait().ok();
        let how = match (said, status) {
            (Some(msg), _) => msg,
            (None, Some(s)) => match s.signal() {
                Some(sig) => signal_name(sig),
                None => format!("exit {}", s.code().unwrap_or(-1)),
            },
            (None, None) => "lost".into(),
        };
        self.failure = Some(format!("{how} during {phase}"));
    }

    /// Closes stdin, which ends the child's command loop, and reaps it.
    /// Returns the child's last output line (its final report), if any.
    pub fn finish(mut self) -> Option<String> {
        self.stdin = None;
        let mut last = None;
        let mut line = String::new();
        while self.stdout.read_line(&mut line).is_ok_and(|n| n > 0) {
            last = Some(line.trim_end().to_string());
            line.clear();
        }
        let _ = self.child.wait();
        last
    }

    /// Sends `sig` to the child.
    pub fn signal(&self, sig: i32) {
        // SAFETY: kill(2) on our own child's pid, which is not reaped
        // until `finish`.
        unsafe { libc::kill(self.pid as i32, sig) };
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Parses the whitespace-separated fields of a reply after its tag.
pub fn fields(reply: &str, tag: &str) -> Option<Vec<u64>> {
    let rest = reply.strip_prefix(tag)?;
    rest.split_whitespace().map(|f| f.parse().ok()).collect()
}

/// Parses `key=value` pairs of a reply after its tag.
pub fn pairs(reply: &str, tag: &str) -> Counters {
    reply
        .strip_prefix(tag)
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}
