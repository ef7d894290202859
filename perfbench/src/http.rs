//! `http_small`: the lighttpd-like `lp-httpd` (one worker) serving
//! ~64-byte bodies, one server child per deployment, driven closed-loop
//! by one client thread over two keep-alive connections per server.
//!
//! The per-op cost is the server's CPU time per request, read from
//! `/proc/<pid>/task/*/schedstat`: on a small host closed-loop
//! throughput measures how the client and server share CPUs, while CPU
//! per request measures the server's own work. Every response's status,
//! `Content-Length` and body bytes are checked against
//! [`httpd::docroot::pattern`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use httpd::{Flavor, Server, ServerConfig, StopFlag};
use interpose::PassthroughHandler;

use crate::host::{now_ns, on_signal, process_cpu_ns, task_cpu_ns, Rng};
use crate::rounds::{Deployments, Quantum};
use crate::trace::Tracer;
use crate::worker::{fields, pairs, Counters, Worker};

/// Body sizes served; the seeded request order draws from these.
pub const SIZES: &[usize] = &[60, 62, 64, 66, 68];
/// Requests each server answers before it reports ready for rounds.
const WARMUP_REQUESTS: usize = 200;
/// Requests the learning server answers for its `+record` trace.
const LEARN_REQUESTS: usize = 1000;
/// Length of the seeded request order (it repeats).
const ORDER_LEN: usize = 4096;

static STOP: StopFlag = StopFlag::new();

extern "C" fn on_term(_: i32) {
    STOP.stop();
}

/// Child entry: `child http <deployment> <docroot>`. Replies
/// `ready <port> <install_start> <install_end>`, serves until SIGTERM,
/// then prints one `stats …` line and exits.
pub fn child_main(name: &str, docroot: &str) -> ! {
    let fail = |e: String| -> ! {
        println!("error {e}");
        std::process::exit(3);
    };
    on_signal(libc::SIGTERM, on_term);
    let server = Server::bind(ServerConfig {
        flavor: Flavor::LighttpdLike,
        workers: 1,
        docroot: PathBuf::from(docroot),
    })
    .unwrap_or_else(|e| fail(format!("bind: {e}")));
    let t0 = now_ns();
    let mech =
        mechanism::by_name(name).unwrap_or_else(|| fail(format!("unknown deployment {name}")));
    let mut active = mech
        .install(Box::new(PassthroughHandler))
        .unwrap_or_else(|e| fail(format!("install failed: {e}")));
    let t1 = now_ns();
    println!("ready {} {t0} {t1}", server.port());
    let _ = std::io::stdout().flush();
    let served = server.run(&STOP);
    let s = active.stats();
    let f0 = now_ns();
    let summary = active.finish_recording().and_then(Result::ok);
    let f1 = now_ns();
    drop(active);
    let mut out = format!(
        "stats dispatches={} slow_path_hits={} sites_patched={} hook_dispatches={} \
         sfip_checks={} sfip_violations={} events_recorded={} events_dropped={} \
         ring_grows={} ring_near_full={} drain_yields={} clean={}",
        s.dispatches,
        s.slow_path_hits,
        s.sites_patched,
        s.hook_dispatches,
        s.sfip_checks,
        s.sfip_violations,
        s.events_recorded,
        s.events_dropped,
        s.ring_grows,
        s.ring_near_full,
        s.drain_yields,
        served.is_ok() as u8,
    );
    if let Some(sum) = summary {
        out.push_str(&format!(
            " finish_start={f0} finish_end={f1} trace_events={} trace_bytes={}",
            sum.events, sum.bytes
        ));
    }
    println!("{out}");
    std::process::exit(0);
}

/// One keep-alive client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(512),
        })
    }

    fn send(&mut self, req: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(req)
    }

    /// Reads one response; `Ok(true)` when status, length and body all
    /// match a `size`-byte pattern file.
    fn receive(&mut self, size: usize, body: &[u8]) -> std::io::Result<bool> {
        self.buf.clear();
        let mut chunk = [0u8; 512];
        let header_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end]).unwrap_or("");
        let ok_status = head.starts_with("HTTP/1.1 200 ");
        let len = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(|v| v.trim().to_string())
            })
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(usize::MAX);
        if len > 1 << 20 {
            return Ok(false);
        }
        while self.buf.len() < header_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(ok_status && len == size && &self.buf[header_end..header_end + len] == body)
    }
}

/// One server deployment with its two connections.
struct ServerDep {
    worker: Worker,
    conns: Vec<Conn>,
    served: u64,
}

/// The client side: seeded request order, canned requests and the
/// bodies they must return.
struct Load {
    requests: Vec<Vec<u8>>,
    bodies: Vec<Vec<u8>>,
    order: Vec<usize>,
    cursor: usize,
}

/// The `http_small` deployments.
pub struct HttpBench {
    servers: Vec<ServerDep>,
    load: Load,
    /// Install wall time per deployment, ns.
    pub install_ns: std::collections::BTreeMap<String, u64>,
    /// `sfip.learn`, `replay.decode` and `replay.finish` timings.
    pub learned: Option<crate::mix::Learned>,
}

impl HttpBench {
    /// Creates every server child (after learning the `+sfip` policy
    /// from a `+record` server's trace when a deployment needs it),
    /// connects, and warms each server up.
    pub fn setup(
        names: &[&str],
        seed: u64,
        docroot: &Path,
        tmp: &Path,
        cpu: Option<usize>,
        tracer: &mut Tracer,
        op: u64,
    ) -> HttpBench {
        let mut rng = Rng::new(seed, 2);
        let order = (0..ORDER_LEN)
            .map(|_| rng.below(SIZES.len() as u64) as usize)
            .collect();
        let mut bench = HttpBench {
            servers: Vec::new(),
            load: Load {
                requests: SIZES
                    .iter()
                    .map(|&s| httpd::http::get_request(&httpd::docroot::path_for_size(s), true))
                    .collect(),
                bodies: SIZES.iter().map(|&s| httpd::docroot::pattern(s)).collect(),
                order,
                cursor: 0,
            },
            install_ns: Default::default(),
            learned: None,
        };
        let root = tracer.begin("setup.http", None, op);
        let policy = if names.iter().any(|n| n.ends_with("+sfip")) {
            let trace = tmp.join(format!("http-learn-{op}.lpt"));
            let env = vec![(
                mechanism::TRACE_OUT_ENV.to_string(),
                trace.display().to_string(),
            )];
            let span = tracer.begin("deploy.learn", root, op);
            let mut dep = bench.start("lazypoline+record", env, docroot, cpu, tracer, span, op);
            bench.load.drive(&mut dep, LEARN_REQUESTS);
            tracer.end(span);
            let stats = stop(dep);
            let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
            let finish = get("finish_end").zip(get("finish_start"));
            if let Some((end, start)) = finish {
                tracer.record("replay.finish", start, end, root, op);
            }
            let learned =
                crate::mix::learn_policy(&trace, tmp, op, finish.map(|(e, s)| e - s), tracer, root);
            let path = learned.as_ref().map(|l| l.policy.clone());
            bench.learned = learned;
            path
        } else {
            None
        };
        for &name in names {
            let span = tracer.begin(&format!("deploy.{name}"), root, op);
            let env = crate::mix::env_for(name, tmp, policy.as_deref());
            let mut dep = bench.start(name, env, docroot, cpu, tracer, span, op);
            let w0 = now_ns();
            bench.load.drive(&mut dep, WARMUP_REQUESTS);
            tracer.record("warmup", w0, now_ns(), span, op);
            tracer.end(span);
            bench.servers.push(dep);
        }
        tracer.end(root);
        bench
    }

    #[allow(clippy::too_many_arguments)]
    fn start(
        &mut self,
        name: &str,
        env: Vec<(String, String)>,
        docroot: &Path,
        cpu: Option<usize>,
        tracer: &mut Tracer,
        span: Option<usize>,
        op: u64,
    ) -> ServerDep {
        let args = [docroot.display().to_string()];
        let mut worker = match Worker::spawn("http", name, &args, env, cpu) {
            Ok(w) => w,
            Err(e) => panic!("spawning the {name} server: {e}"),
        };
        let mut conns = Vec::new();
        if let Some(r) = worker
            .read_reply("install")
            .and_then(|r| fields(&r, "ready"))
        {
            if let [port, t0, t1] = r[..] {
                tracer.record("mechanism.install", t0, t1, span, op);
                self.install_ns.insert(name.to_string(), t1 - t0);
                for _ in 0..2 {
                    match Conn::open(port as u16) {
                        Ok(c) => conns.push(c),
                        Err(_) => worker.mark_failed("connect"),
                    }
                }
            }
        }
        ServerDep {
            worker,
            conns,
            served: 0,
        }
    }
}

impl Load {
    /// Closed loop: both connections send, then both receive. Returns
    /// `(requests, mismatches, latencies ns)`; marks the server failed
    /// on a connection error.
    fn exchange(
        &mut self,
        dep: &mut ServerDep,
        until: impl Fn(usize) -> bool,
        keep: bool,
    ) -> (u64, u64, Vec<f64>) {
        let (mut n, mut bad, mut lat) = (0usize, 0u64, Vec::new());
        while dep.worker.alive() && !until(n) {
            let sizes = [self.next_size(), self.next_size()];
            let mut sent = [0u64; 2];
            let mut io_ok = true;
            for (i, c) in dep.conns.iter_mut().enumerate() {
                sent[i] = now_ns();
                io_ok &= c.send(&self.requests[sizes[i]]).is_ok();
            }
            for (i, c) in dep.conns.iter_mut().enumerate() {
                match c.receive(SIZES[sizes[i]], &self.bodies[sizes[i]]) {
                    Ok(ok) => bad += (!ok) as u64,
                    Err(_) => io_ok = false,
                }
                if keep {
                    lat.push((now_ns() - sent[i]) as f64);
                }
            }
            if !io_ok || dep.conns.len() != 2 {
                dep.worker.mark_failed("round");
                break;
            }
            n += 2;
        }
        dep.served += n as u64;
        (n as u64, bad, lat)
    }

    fn drive(&mut self, dep: &mut ServerDep, requests: usize) {
        self.exchange(dep, |n| n >= requests, false);
    }

    fn next_size(&mut self) -> usize {
        self.cursor = (self.cursor + 1) % self.order.len();
        self.order[self.cursor]
    }
}

impl HttpBench {
    /// Stops every server and returns `(name, stats pairs, requests
    /// served)` per deployment.
    pub fn stop_all(self) -> Vec<(String, Counters, u64)> {
        self.servers
            .into_iter()
            .map(|d| {
                let (name, served) = (d.worker.name.clone(), d.served);
                (name, stop(d), served)
            })
            .collect()
    }

    /// The children, for the result stamp.
    pub fn workers(&self) -> Vec<&Worker> {
        self.servers.iter().map(|s| &s.worker).collect()
    }
}

fn stop(dep: ServerDep) -> Vec<(String, u64)> {
    drop(dep.conns);
    dep.worker.signal(libc::SIGTERM);
    dep.worker
        .finish()
        .map(|l| pairs(&l, "stats"))
        .unwrap_or_default()
}

impl Deployments for HttpBench {
    fn names(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.worker.name.clone()).collect()
    }

    fn quantum(&mut self, idx: usize, ms: u64, keep: bool) -> Option<Quantum> {
        let dep = &mut self.servers[idx];
        let pid = dep.worker.pid;
        let (cpu0, gen0, t0) = (task_cpu_ns(pid), process_cpu_ns(), now_ns());
        let deadline = t0 + ms * 1_000_000;
        let (ops, failed, samples) = self.load.exchange(dep, |_| now_ns() >= deadline, keep);
        let (wall, gen) = (now_ns() - t0, process_cpu_ns() - gen0);
        let cpu = task_cpu_ns(pid).zip(cpu0).map(|(b, a)| b - a);
        let cpu = cpu.filter(|_| dep.worker.alive() && ops > 0)? as f64 / ops as f64;
        Some(Quantum {
            cost: cpu,
            cpu,
            ops,
            failed,
            samples,
            wall_ns: wall,
            gen_cpu_ns: gen,
        })
    }
}
