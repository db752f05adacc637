//! The serve side: an in-process daemon on an ephemeral port, and a
//! closed-loop client that replays a request schedule over keep-alive
//! connections and checks every answer.

use crate::spans::{self, SpanRec};
use mmvc_bench::Json;
use mmvc_serve::client::{self, Conn, Response};
use mmvc_serve::{ServeConfig, Server, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How to size and place one daemon.
pub struct RigConfig {
    pub workers: usize,
    pub cache_capacity: usize,
    pub max_n: usize,
    pub store_dir: Option<PathBuf>,
    pub trace_dir: Option<PathBuf>,
}

/// A running in-process daemon.
pub struct Rig {
    pub addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    trace_dir: Option<PathBuf>,
    /// The resident session the schedule's session traffic targets.
    pub session: Option<u64>,
}

impl Rig {
    pub fn start(cfg: &RigConfig) -> Result<Rig, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cfg.workers,
            cache_capacity: cfg.cache_capacity,
            max_n: cfg.max_n,
            store_dir: cfg.store_dir.as_ref().map(|d| d.display().to_string()),
            idle_timeout_ms: 120_000,
            max_requests_per_conn: u64::MAX,
            trace_dir: cfg.trace_dir.as_ref().map(|d| d.display().to_string()),
        };
        let server = Server::bind(&config).map_err(|e| format!("bind daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = server.handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Rig {
            addr,
            handle,
            thread: Some(thread),
            trace_dir: cfg.trace_dir.clone(),
            session: None,
        })
    }

    /// One request on a fresh connection (set-up traffic, `/metrics`).
    pub fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        let resp = client::request(&self.addr, method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "{method} {path}: status {} {}",
                resp.status,
                resp.text()
            ));
        }
        Ok(resp)
    }

    /// `GET /metrics`, parsed.
    pub fn metrics(&self) -> Result<Json, String> {
        let resp = self.request("GET", "/metrics", b"")?;
        Json::parse(&resp.text()).map_err(|e| format!("/metrics: {e}"))
    }

    /// Takes residence for `spec_body` and runs it once cold, so later
    /// session runs repair from warm state.
    pub fn open_session(&mut self, spec_body: &str) -> Result<(), String> {
        let resp = self.request("POST", "/session", spec_body.as_bytes())?;
        let id = Json::parse(&resp.text())
            .ok()
            .and_then(|d| d.get("session").and_then(Json::as_i64))
            .ok_or("POST /session: no session id")?;
        let first = self.request("POST", "/run", format!(r#"{{"session": {id}}}"#).as_bytes())?;
        check_session_report(&first.body)?;
        self.session = Some(id as u64);
        Ok(())
    }

    /// Shuts the daemon down, waits for it, and returns the spans it
    /// wrote to its trace directory (empty when tracing was off).
    pub fn stop(mut self) -> Result<Vec<SpanRec>, String> {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join()
                .map_err(|_| "daemon thread panicked".to_string())?
                .map_err(|e| format!("daemon: {e}"))?;
        }
        let mut out = Vec::new();
        if let Some(dir) = &self.trace_dir {
            let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
                .map_err(|e| format!("trace dir: {e}"))?
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            files.sort();
            for f in files {
                let text =
                    std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
                let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
                out.extend(spans::from_chrome_trace(&doc));
            }
        }
        Ok(out)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.handle.shutdown();
            let _ = t.join();
        }
    }
}

/// What a scheduled request must answer.
#[derive(Clone, Copy)]
pub enum Expect {
    /// Exactly the canonical bytes of pool spec `i`.
    Pool(usize),
    /// A fresh-seed spec; the body is checked after the timed window.
    Fresh(usize),
}

/// One closed-loop operation.
pub enum Op {
    /// `POST /run` with a spec body.
    Run { body: Arc<str>, expect: Expect },
    /// `POST /update` on the session, then a session-scoped `POST /run`
    /// on the same connection.
    Pair { update: String },
}

/// Which tier answered a request (`x-cache`, or the path for updates).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    Hit,
    Store,
    Miss,
    Update,
}

impl Tier {
    pub const ALL: [Tier; 4] = [Tier::Hit, Tier::Store, Tier::Miss, Tier::Update];

    pub fn name(self) -> &'static str {
        match self {
            Tier::Hit => "hit",
            Tier::Store => "store",
            Tier::Miss => "miss",
            Tier::Update => "update",
        }
    }
}

/// Everything one replay measured and checked.
#[derive(Default)]
pub struct SliceOut {
    /// `(tier, latency ms)` per answered request.
    pub samples: Vec<(Tier, f64)>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(fresh index, body)` of fresh-seed answers, checked later.
    pub fresh_bodies: Vec<(usize, Vec<u8>)>,
}

impl SliceOut {
    pub fn absorb(&mut self, other: SliceOut) {
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.fresh_bodies.extend(other.fresh_bodies);
    }
}

/// A session report must carry valid witnesses and no budget violation.
pub fn check_session_report(body: &[u8]) -> Result<(), String> {
    let doc =
        Json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("session body: {e}"))?;
    let witnesses = doc.get("witnesses").and_then(Json::as_arr).unwrap_or(&[]);
    let valid = !witnesses.is_empty()
        && witnesses
            .iter()
            .all(|w| w.get("valid").and_then(Json::as_bool) == Some(true));
    let clean = doc
        .get("budget_violations")
        .and_then(Json::as_arr)
        .is_some_and(<[Json]>::is_empty);
    if !valid || !clean {
        return Err("session report carries an invalid witness or a budget violation".to_string());
    }
    Ok(())
}

/// One connection's closed loop: take the next op, send it, wait for
/// the answer, check it.
struct Client<'a> {
    addr: &'a str,
    conn: Option<Conn>,
    session: Option<u64>,
    expected: &'a [Arc<[u8]>],
    out: SliceOut,
}

impl Client<'_> {
    fn send(&mut self, path: &str, body: &[u8]) -> Result<(Response, f64), String> {
        self.out.attempted += 1;
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let start = Instant::now();
        let result = conn.request("POST", path, body);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(resp) => {
                if !resp.keep_alive() {
                    self.conn = None;
                }
                if resp.status != 200 {
                    return Err(format!(
                        "POST {path}: status {} {}",
                        resp.status,
                        resp.text()
                    ));
                }
                Ok((resp, ms))
            }
            Err(e) => {
                self.conn = None;
                Err(format!("POST {path}: {e}"))
            }
        }
    }

    fn tier(resp: &Response) -> Result<Tier, String> {
        match resp.header("x-cache") {
            Some("hit") => Ok(Tier::Hit),
            Some("store") => Ok(Tier::Store),
            Some("miss") => Ok(Tier::Miss),
            other => Err(format!("unexpected x-cache {other:?}")),
        }
    }

    fn run(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Run { body, expect } => {
                let (resp, ms) = self.send("/run", body.as_bytes())?;
                let tier = Self::tier(&resp)?;
                match *expect {
                    Expect::Pool(i) => {
                        if resp.body[..] != self.expected[i][..] {
                            return Err(format!(
                                "pool spec {i}: served body differs from the canonical bytes"
                            ));
                        }
                    }
                    Expect::Fresh(i) => self.out.fresh_bodies.push((i, resp.body)),
                }
                self.out.samples.push((tier, ms));
            }
            Op::Pair { update } => {
                let id = self.session.ok_or("no resident session")?;
                let (resp, update_ms) = self.send("/update", update.as_bytes())?;
                let ack = Json::parse(&resp.text()).map_err(|e| format!("update ack: {e}"))?;
                let field = |k: &str| ack.get(k).and_then(Json::as_i64);
                if [field("generation"), field("inserted"), field("deleted")].contains(&None) {
                    return Err("update ack lacks generation/inserted/deleted".to_string());
                }
                self.out.samples.push((Tier::Update, update_ms));
                let (resp, run_ms) =
                    self.send("/run", format!(r#"{{"session": {id}}}"#).as_bytes())?;
                let tier = Self::tier(&resp)?;
                check_session_report(&resp.body)?;
                self.out.samples.push((tier, run_ms));
            }
        }
        Ok(())
    }
}

/// Replays `ops` over `conns` keep-alive connections, one request
/// outstanding on each (a closed loop: callers of `/run` wait for their
/// answer). Each connection's first `warmup` ops are checked but not
/// timed, so a timed loop of microsecond requests does not start with
/// the daemon's reactor in its idle sleep.
pub fn drive(
    rig: &Rig,
    conns: usize,
    warmup: usize,
    ops: &[Op],
    expected: &[Arc<[u8]>],
) -> SliceOut {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(SliceOut::default());
    let warmed = Barrier::new(conns + 1);
    let mut start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut client = Client {
                    addr: &rig.addr,
                    conn: None,
                    session: rig.session,
                    expected,
                    out: SliceOut::default(),
                };
                for round in 0.. {
                    if round == warmup {
                        client.out.samples.clear();
                        warmed.wait();
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = ops.get(i) else {
                        if round < warmup {
                            warmed.wait();
                        }
                        break;
                    };
                    if let Err(e) = client.run(op) {
                        client.out.failures.push(e);
                    }
                }
                merged.lock().expect("slice merge").absorb(client.out);
            });
        }
        warmed.wait();
        start = Instant::now();
    });
    let mut out = merged.into_inner().expect("slice merge");
    out.wall_s = start.elapsed().as_secs_f64();
    out
}
