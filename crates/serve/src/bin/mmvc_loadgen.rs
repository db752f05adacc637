//! `mmvc_loadgen` — deterministic load generation against `mmvc serve`,
//! the serving-performance counterpart of `bench_report`.
//!
//! Replays seeded request mixes over **keep-alive connections** (each
//! client thread reuses one connection for `--reqs-per-conn` requests
//! before reconnecting, keeping up to `--pipeline` requests in flight
//! per connection — the wrk-style closed loop) and writes
//! `BENCH_serve.json` (throughput, latency percentiles *and* log2
//! latency histograms, cache/store hit rates, connection reuse — one
//! row per mix):
//!
//! * `uniform` — requests drawn uniformly from a fixed spec pool that
//!   fits the cache (the steady-state mix: everything hits after one
//!   cold pass);
//! * `hot-key` — the same pool under a Zipf-like skew, served with a
//!   cache *smaller than the pool* (the production-shaped mix: a few
//!   hot specs dominate and LRU keeps exactly those resident);
//! * `cache-bust` — every request a fresh seed (the adversarial mix:
//!   nothing can hit, measuring pure run throughput);
//! * `warm-restart` — half the schedule against a daemon with a
//!   persistent store, then a **daemon restart over the same store
//!   directory**, then the other half: the row proves a restarted
//!   daemon keeps its hit rate (`post_restart.hits` answered from disk
//!   without re-running);
//! * `session-churn` — the mixed read/write mix: one `POST /session`
//!   takes residence, then the schedule interleaves `POST /update`
//!   deltas (an `--update-frac` fraction of requests, default 10%)
//!   with session-scoped `POST /run`s. Every update bumps the session
//!   generation, so the row's hit rate and latency percentiles measure
//!   generation-keyed invalidation under churn: a run after an update
//!   misses and recomputes incrementally, repeats hit.
//!
//! ```text
//! cargo run --release -p mmvc-serve --bin mmvc_loadgen -- \
//!     [--addr HOST:PORT] [--smoke] [--out PATH] [--requests N]
//!     [--clients C] [--workers W] [--reqs-per-conn R] [--pipeline D]
//!     [--seed S] [--update-frac F]
//! ```
//!
//! Without `--addr`, a fresh in-process daemon is spawned per mix on an
//! ephemeral port (`--workers` sizes its pool) and shut down cleanly —
//! the zero-setup mode CI uses, and it keeps the rows independent: each
//! mix starts against a cold cache. With `--addr`, the external daemon's
//! cache persists across mixes (noted by `"server"` in the artifact) and
//! the `warm-restart` mix is skipped — the generator cannot restart a
//! server it does not own. The request *schedule* is a pure function of
//! `--seed`; the measured numbers are the only nondeterministic outputs.

use mmvc_bench::Json;
use mmvc_core::run::AlgorithmKind;
use mmvc_serve::{client, fnv1a, metrics, ServeConfig, Server};
use std::process::ExitCode;
use std::time::Instant;

/// A deterministic xorshift64* stream for request scheduling.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A scheduled request: `(path, body)`. Most mixes only ever target
/// `/run`; `session-churn` interleaves `/update` writes.
type Req = (&'static str, String);

/// One benchmark configuration.
struct Config {
    addr: Option<String>,
    smoke: bool,
    out: String,
    requests: usize,
    clients: usize,
    workers: usize,
    reqs_per_conn: u64,
    pipeline: u64,
    seed: u64,
    update_frac: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: None,
            smoke: false,
            out: "BENCH_serve.json".to_string(),
            requests: 20_000,
            clients: 4,
            workers: 4,
            reqs_per_conn: 1000,
            pipeline: 8,
            seed: 0x10AD,
            update_frac: 0.1,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mmvc_loadgen [--addr HOST:PORT] [--smoke] [--out PATH] [--requests N] \
         [--clients C] [--workers W] [--reqs-per-conn R] [--pipeline D] [--seed S] \
         [--update-frac F]"
    );
    ExitCode::FAILURE
}

fn parse_args(args: &[String]) -> Option<Config> {
    let mut cfg = Config::default();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).filter(|v| !v.starts_with("--"));
        match args[i].as_str() {
            "--smoke" => {
                cfg.smoke = true;
                i += 1;
            }
            "--addr" => {
                cfg.addr = Some(value(i)?.clone());
                i += 2;
            }
            "--out" => {
                cfg.out = value(i)?.clone();
                i += 2;
            }
            "--requests" => {
                cfg.requests = value(i)?.parse().ok()?;
                i += 2;
            }
            "--clients" => {
                cfg.clients = value(i)?.parse::<usize>().ok()?.max(1);
                i += 2;
            }
            "--workers" => {
                cfg.workers = value(i)?.parse::<usize>().ok()?.max(1);
                i += 2;
            }
            "--reqs-per-conn" => {
                cfg.reqs_per_conn = value(i)?.parse::<u64>().ok()?.max(1);
                i += 2;
            }
            "--pipeline" => {
                // The server stops reading a connection at 64 unanswered
                // requests; a deeper client window would only stall.
                cfg.pipeline = value(i)?.parse::<u64>().ok()?.clamp(1, 64);
                i += 2;
            }
            "--seed" => {
                cfg.seed = value(i)?.parse().ok()?;
                i += 2;
            }
            "--update-frac" => {
                let frac = value(i)?.parse::<f64>().ok()?;
                if !(0.0..=1.0).contains(&frac) {
                    return None;
                }
                cfg.update_frac = frac;
                i += 2;
            }
            _ => return None,
        }
    }
    if cfg.smoke {
        cfg.requests = cfg.requests.min(60);
        cfg.clients = cfg.clients.min(2);
    }
    Some(cfg)
}

/// The fixed spec pool the `uniform`, `hot-key`, and `warm-restart`
/// mixes draw from: every algorithm kind over a rotating scenario, at a
/// size small enough that a cold run is milliseconds.
fn spec_pool(smoke: bool, seed: u64) -> Vec<String> {
    let scenarios = [
        "gnp-sparse",
        "power-law",
        "bipartite",
        "geometric",
        "planted-matching",
        "gnm",
    ];
    let n = if smoke { 64 } else { 128 };
    let mut pool = Vec::new();
    for (i, kind) in AlgorithmKind::ALL.iter().enumerate() {
        for j in 0..2usize {
            let scenario = scenarios[(i + j) % scenarios.len()];
            pool.push(format!(
                r#"{{"algorithm": "{}", "scenario": "{scenario}", "n": {n}, "seed": {}}}"#,
                kind.name(),
                seed.wrapping_add(j as u64)
            ));
        }
    }
    pool
}

/// One mix's request schedule: the `(path, body)` of request `i`.
#[derive(PartialEq, Eq)]
enum Mix {
    Uniform,
    HotKey,
    CacheBust,
    WarmRestart,
    SessionChurn,
}

impl Mix {
    fn name(&self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::HotKey => "hot-key",
            Mix::CacheBust => "cache-bust",
            Mix::WarmRestart => "warm-restart",
            Mix::SessionChurn => "session-churn",
        }
    }

    /// The in-process daemon's cache capacity for this mix. `hot-key`
    /// deliberately runs with a cache smaller than the spec pool so the
    /// row measures skew under eviction pressure, not pool memoization.
    fn cache_capacity(&self, pool_len: usize) -> usize {
        match self {
            Mix::Uniform | Mix::CacheBust | Mix::WarmRestart | Mix::SessionChurn => 512,
            Mix::HotKey => (pool_len / 4).max(2),
        }
    }

    /// Builds the full request schedule for this mix, deterministically
    /// from the seed.
    fn schedule(&self, cfg: &Config, pool: &[String]) -> Vec<Req> {
        let mut rng = Rng::new(cfg.seed ^ fnv1a(self.name().as_bytes()));
        match self {
            Mix::Uniform | Mix::WarmRestart => (0..cfg.requests)
                .map(|_| ("/run", pool[(rng.next_u64() as usize) % pool.len()].clone()))
                .collect(),
            Mix::HotKey => {
                // Zipf-like weights w_k ∝ 1/(k+1)^1.2 over the pool.
                let weights: Vec<f64> = (0..pool.len())
                    .map(|k| 1.0 / ((k + 1) as f64).powf(1.2))
                    .collect();
                let total: f64 = weights.iter().sum();
                (0..cfg.requests)
                    .map(|_| {
                        let mut target = rng.next_f64() * total;
                        let mut idx = 0;
                        for (k, w) in weights.iter().enumerate() {
                            idx = k;
                            target -= w;
                            if target <= 0.0 {
                                break;
                            }
                        }
                        ("/run", pool[idx].clone())
                    })
                    .collect()
            }
            Mix::CacheBust => {
                let n = if cfg.smoke { 64 } else { 128 };
                (0..cfg.requests)
                    .map(|i| {
                        let kind = AlgorithmKind::ALL[i % AlgorithmKind::ALL.len()];
                        (
                            "/run",
                            format!(
                                r#"{{"algorithm": "{}", "scenario": "gnp-sparse", "n": {n}, "seed": {}}}"#,
                                kind.name(),
                                cfg.seed.wrapping_add(1000 + i as u64)
                            ),
                        )
                    })
                    .collect()
            }
            // Built by `drive_session_churn` instead: the schedule needs
            // the live session id the daemon hands back.
            Mix::SessionChurn => Vec::new(),
        }
    }
}

/// The `session-churn` schedule: session-scoped runs with an
/// `update_frac` fraction of `POST /update` deltas interleaved, all
/// derived from the seed (only the session id comes from the daemon).
fn session_schedule(cfg: &Config, id: i64, n: u64) -> Vec<Req> {
    let mut rng = Rng::new(cfg.seed ^ fnv1a(Mix::SessionChurn.name().as_bytes()));
    let pair = |rng: &mut Rng| {
        let a = rng.next_u64() % n;
        let b = rng.next_u64() % n;
        let b = if a == b { (a + 1) % n } else { b };
        (a, b)
    };
    (0..cfg.requests)
        .map(|_| {
            if rng.next_f64() < cfg.update_frac {
                let (a, b) = pair(&mut rng);
                let (c, d) = pair(&mut rng);
                (
                    "/update",
                    format!(
                        r#"{{"session": {id}, "insert": [[{a}, {b}]], "delete": [[{c}, {d}]]}}"#
                    ),
                )
            } else {
                ("/run", format!(r#"{{"session": {id}}}"#))
            }
        })
        .collect()
}

/// Post-restart accounting for the `warm-restart` mix: the second-half
/// phase served by the restarted daemon.
struct PostRestart {
    requests: usize,
    hits: u64,
}

/// Measured outcome of one mix.
struct MixResult {
    mix: &'static str,
    requests: usize,
    distinct_specs: usize,
    hits: u64,
    store_hits: u64,
    misses: u64,
    /// `POST /update` deltas acknowledged (only the `session-churn` mix
    /// schedules any). Updates carry no `x-cache` header and are kept
    /// out of the hit-rate denominator.
    updates: u64,
    errors: u64,
    connections: u64,
    keepalive_reuses: i64,
    bytes_served: i64,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    post_restart: Option<PostRestart>,
}

impl MixResult {
    fn merge(mut self, other: MixResult) -> MixResult {
        self.requests += other.requests;
        self.hits += other.hits;
        self.store_hits += other.store_hits;
        self.misses += other.misses;
        self.updates += other.updates;
        self.errors += other.errors;
        self.connections += other.connections;
        self.keepalive_reuses += other.keepalive_reuses;
        self.bytes_served += other.bytes_served;
        self.wall_s += other.wall_s;
        self.latencies_ms.extend(other.latencies_ms);
        self
    }

    /// `cache_capacity` is `None` when driving an external daemon: its
    /// cache is configured out of band, and reporting the in-process
    /// default would claim pressure that never applied.
    fn to_json(&self, clients: usize, reqs_per_conn: u64, cache_capacity: Option<usize>) -> Json {
        let (p50, p90, p99, p999) = metrics::percentiles(self.latencies_ms.clone());
        let answered = self.hits + self.store_hits + self.misses;
        Json::obj(vec![
            ("mix", Json::Str(self.mix.to_string())),
            ("requests", Json::Int(self.requests as i64)),
            ("clients", Json::Int(clients as i64)),
            ("reqs_per_conn", Json::Int(reqs_per_conn as i64)),
            ("distinct_specs", Json::Int(self.distinct_specs as i64)),
            (
                "cache_capacity",
                match cache_capacity {
                    Some(cap) => Json::Int(cap as i64),
                    None => Json::Null,
                },
            ),
            ("cache_hits", Json::Int(self.hits as i64)),
            ("store_hits", Json::Int(self.store_hits as i64)),
            ("cache_misses", Json::Int(self.misses as i64)),
            ("updates", Json::Int(self.updates as i64)),
            ("errors", Json::Int(self.errors as i64)),
            (
                "hit_rate",
                Json::Float(if answered > 0 {
                    (self.hits + self.store_hits) as f64 / answered as f64
                } else {
                    0.0
                }),
            ),
            ("connections", Json::Int(self.connections as i64)),
            ("keepalive_reuses", Json::Int(self.keepalive_reuses)),
            ("bytes_served", Json::Int(self.bytes_served)),
            (
                "throughput_rps",
                Json::Float(self.requests as f64 / self.wall_s.max(1e-9)),
            ),
            (
                "latency_ms",
                Json::obj(vec![
                    ("p50", Json::Float(p50)),
                    ("p90", Json::Float(p90)),
                    ("p99", Json::Float(p99)),
                    ("p999", Json::Float(p999)),
                ]),
            ),
            // The tail's *shape*, not just its p-points: the same
            // cumulative log2 buckets the daemon serves (`le` is the
            // bucket's upper bound in ms), trimmed to the occupied
            // range, so the bench trajectory can tell a fat tail from a
            // spike the percentiles happen to straddle.
            ("latency_histogram_ms", {
                let hist = metrics::LatencyHistogram::new();
                for &ms in &self.latencies_ms {
                    hist.record_ms(ms);
                }
                let snap = hist.snapshot();
                Json::obj(vec![
                    ("count", Json::Int(snap.count as i64)),
                    ("sum", Json::Float(snap.sum_ms)),
                    (
                        "buckets",
                        Json::Arr(
                            snap.occupied()
                                .iter()
                                .map(|&(le, count)| {
                                    Json::obj(vec![
                                        ("le", Json::Float(le)),
                                        ("count", Json::Int(count as i64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("overflow", Json::Int(snap.overflow as i64)),
                ])
            }),
            (
                "post_restart",
                match &self.post_restart {
                    Some(pr) => Json::obj(vec![
                        ("requests", Json::Int(pr.requests as i64)),
                        ("hits", Json::Int(pr.hits as i64)),
                        (
                            "hit_rate",
                            Json::Float(if pr.requests > 0 {
                                pr.hits as f64 / pr.requests as f64
                            } else {
                                0.0
                            }),
                        ),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Reads `(keepalive_reuses, bytes_served)` from the daemon's
/// `/metrics`, so rows can report server-side reuse (a delta of two
/// snapshots works for external daemons too).
fn server_stats(addr: &str) -> (i64, i64) {
    let Ok(resp) = client::get(addr, "/metrics") else {
        return (0, 0);
    };
    let Ok(doc) = Json::parse(&resp.text()) else {
        return (0, 0);
    };
    let int = |key: &str| doc.get(key).and_then(Json::as_i64).unwrap_or(0);
    (int("keepalive_reuses"), int("bytes_served"))
}

/// Replays one schedule with `clients` keep-alive threads (client `c`
/// takes requests `c, c+C, c+2C, …` — a deterministic partition). Each
/// thread keeps up to `pipeline` requests in flight on its connection
/// (batched into one write, responses drained in order — the wrk-style
/// closed loop that measures the server rather than the client's
/// round-trip context switches) and reuses the connection for up to
/// `reqs_per_conn` requests, reconnecting when the quota is reached,
/// the server answers `connection: close`, or an I/O error poisons the
/// stream. Latency is send-to-response for each request, so at depths
/// above 1 it includes time queued behind the window's earlier
/// requests.
fn drive(
    addr: &str,
    schedule: &[Req],
    clients: usize,
    reqs_per_conn: u64,
    pipeline: u64,
) -> MixResult {
    use std::collections::VecDeque;
    use std::io::Write;

    /// Per-client-thread accounting, folded into the `MixResult`.
    struct ClientTally {
        hits: u64,
        store_hits: u64,
        misses: u64,
        updates: u64,
        errors: u64,
        opened: u64,
        latencies: Vec<f64>,
    }

    let (reuses_before, bytes_before) = server_stats(addr);
    let started = Instant::now();
    let outcomes: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let my: Vec<&Req> = schedule.iter().skip(c).step_by(clients).collect();
                    let (mut hits, mut store_hits, mut misses, mut updates, mut errors) =
                        (0u64, 0u64, 0u64, 0u64, 0u64);
                    let mut opened = 0u64;
                    let mut latencies = Vec::with_capacity(my.len());
                    let mut conn: Option<client::Conn> = None;
                    // Send timestamp + is-update flag of requests written
                    // but not yet answered; `next` is the first unsent
                    // index. Invariant: next == answered + inflight.len().
                    let mut inflight: VecDeque<(Instant, bool)> = VecDeque::new();
                    let mut next = 0usize;
                    let mut answered = 0usize;
                    let mut wbuf = Vec::with_capacity(4096);
                    while answered < my.len() {
                        if conn.is_none() {
                            match client::Conn::connect(addr) {
                                Ok(cn) => {
                                    conn = Some(cn);
                                    opened += 1;
                                }
                                Err(_) => {
                                    // Spend one scheduled request on the
                                    // failure and try again for the rest.
                                    errors += 1;
                                    answered += 1;
                                    next += 1;
                                    continue;
                                }
                            }
                        }
                        let cn = conn.as_mut().expect("connection was just ensured");
                        // Fill the window: batch every sendable request
                        // into one write.
                        wbuf.clear();
                        while next < my.len()
                            && (inflight.len() as u64) < pipeline
                            && cn.requests_sent() < reqs_per_conn
                        {
                            let (path, body) = my[next];
                            cn.encode_request_into(&mut wbuf, "POST", path, body.as_bytes());
                            inflight.push_back((Instant::now(), *path == "/update"));
                            next += 1;
                        }
                        if inflight.is_empty() {
                            // Nothing in flight and the quota exhausted:
                            // rotate to a fresh connection.
                            conn = None;
                            continue;
                        }
                        let io = (|| {
                            if !wbuf.is_empty() {
                                cn.stream_mut().write_all(&wbuf)?;
                                cn.stream_mut().flush()?;
                            }
                            cn.read_next_response()
                        })();
                        match io {
                            Ok(resp) => {
                                let (t0, is_update) = inflight
                                    .pop_front()
                                    .expect("a response implies an in-flight request");
                                answered += 1;
                                if resp.status == 200 {
                                    if is_update {
                                        updates += 1;
                                    } else {
                                        match resp.header("x-cache") {
                                            Some("hit") => hits += 1,
                                            Some("store") => store_hits += 1,
                                            _ => misses += 1,
                                        }
                                    }
                                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                                } else {
                                    errors += 1;
                                }
                                if !resp.keep_alive() {
                                    // Requests pipelined past a closing
                                    // response are gone; count them.
                                    errors += inflight.len() as u64;
                                    answered += inflight.len();
                                    inflight.clear();
                                    conn = None;
                                }
                            }
                            Err(_) => {
                                errors += inflight.len() as u64;
                                answered += inflight.len();
                                inflight.clear();
                                conn = None;
                            }
                        }
                    }
                    ClientTally {
                        hits,
                        store_hits,
                        misses,
                        updates,
                        errors,
                        opened,
                        latencies,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (reuses_after, bytes_after) = server_stats(addr);

    let mut result = MixResult {
        mix: "",
        requests: schedule.len(),
        distinct_specs: distinct_bodies(schedule),
        hits: 0,
        store_hits: 0,
        misses: 0,
        updates: 0,
        errors: 0,
        connections: 0,
        keepalive_reuses: reuses_after - reuses_before,
        bytes_served: bytes_after - bytes_before,
        wall_s,
        latencies_ms: Vec::new(),
        post_restart: None,
    };
    for t in outcomes {
        result.hits += t.hits;
        result.store_hits += t.store_hits;
        result.misses += t.misses;
        result.updates += t.updates;
        result.errors += t.errors;
        result.connections += t.opened;
        result.latencies_ms.extend(t.latencies);
    }
    result
}

/// Distinct request bodies in a schedule (the `distinct_specs` column).
fn distinct_bodies(schedule: &[Req]) -> usize {
    let mut distinct: Vec<&String> = schedule.iter().map(|(_, body)| body).collect();
    distinct.sort();
    distinct.dedup();
    distinct.len()
}

/// Spawns an in-process daemon, returning `(addr, join-thread, handle)`.
fn spawn_server(
    workers: usize,
    cache_capacity: usize,
    store_dir: Option<String>,
) -> Result<
    (
        String,
        std::thread::JoinHandle<std::io::Result<()>>,
        mmvc_serve::ServerHandle,
    ),
    std::io::Error,
> {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity,
        store_dir,
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr()?.to_string();
    let handle = server.handle()?;
    let thread = std::thread::spawn(move || server.run());
    Ok((addr, thread, handle))
}

fn stop_server(
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    handle: &mmvc_serve::ServerHandle,
) {
    handle.shutdown();
    if thread.join().expect("server thread panicked").is_err() {
        eprintln!("warning: in-process server exited with an error");
    }
}

/// The `warm-restart` mix: first half of the schedule populates a
/// store-backed daemon, the daemon is shut down and restarted over the
/// same directory (cold memory, warm disk), and the second half proves
/// disk hits survive the restart.
fn drive_warm_restart(cfg: &Config, schedule: &[Req], cache_capacity: usize) -> Option<MixResult> {
    let store_dir = std::env::temp_dir().join(format!("mmvc-loadgen-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_dir_s = store_dir.display().to_string();
    let split = schedule.len() / 2;
    let (phase1, phase2) = schedule.split_at(split);

    let (addr, thread, handle) =
        match spawn_server(cfg.workers, cache_capacity, Some(store_dir_s.clone())) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind in-process server: {e}");
                return None;
            }
        };
    let warm = drive(&addr, phase1, cfg.clients, cfg.reqs_per_conn, cfg.pipeline);
    stop_server(thread, &handle);

    // Restart over the same store directory: memory cache cold, disk warm.
    let (addr, thread, handle) = match spawn_server(cfg.workers, cache_capacity, Some(store_dir_s))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot restart in-process server: {e}");
            return None;
        }
    };
    let restarted = drive(&addr, phase2, cfg.clients, cfg.reqs_per_conn, cfg.pipeline);
    stop_server(thread, &handle);
    let _ = std::fs::remove_dir_all(&store_dir);

    let post = PostRestart {
        requests: restarted.requests,
        hits: restarted.hits + restarted.store_hits,
    };
    let mut merged = warm.merge(restarted);
    merged.post_restart = Some(post);
    merged.distinct_specs = distinct_bodies(schedule);
    Some(merged)
}

/// The `session-churn` mix: one `POST /session` takes residence, then
/// the seeded schedule interleaves `POST /update` deltas with
/// session-scoped runs. Works against an external daemon too — the
/// session lives exactly as long as the daemon, and this driver never
/// restarts anything.
fn drive_session_churn(cfg: &Config, cache_capacity: usize) -> Option<MixResult> {
    let (addr, server) = match &cfg.addr {
        Some(addr) => (addr.clone(), None),
        None => match spawn_server(cfg.workers, cache_capacity, None) {
            Ok((addr, thread, handle)) => (addr, Some((thread, handle))),
            Err(e) => {
                eprintln!("cannot bind in-process server: {e}");
                return None;
            }
        },
    };
    let n: u64 = if cfg.smoke { 64 } else { 128 };
    let spec = format!(
        r#"{{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": {n}, "seed": {}}}"#,
        cfg.seed
    );
    let id = client::request(&addr, "POST", "/session", spec.as_bytes())
        .ok()
        .filter(|resp| resp.status == 200)
        .and_then(|resp| Json::parse(&resp.text()).ok())
        .and_then(|doc| doc.get("session").and_then(Json::as_i64));
    let Some(id) = id else {
        eprintln!("session-churn: POST /session refused");
        if let Some((thread, handle)) = server {
            stop_server(thread, &handle);
        }
        return None;
    };
    let schedule = session_schedule(cfg, id, n);
    let result = drive(
        &addr,
        &schedule,
        cfg.clients,
        cfg.reqs_per_conn,
        cfg.pipeline,
    );
    if let Some((thread, handle)) = server {
        stop_server(thread, &handle);
    }
    Some(result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cfg) = parse_args(&args) else {
        return usage();
    };

    let pool = spec_pool(cfg.smoke, cfg.seed);
    let mut rows = Vec::new();
    let mut total_errors = 0u64;
    for mix in [
        Mix::Uniform,
        Mix::HotKey,
        Mix::CacheBust,
        Mix::WarmRestart,
        Mix::SessionChurn,
    ] {
        let schedule = mix.schedule(&cfg, &pool);
        let capacity = mix.cache_capacity(pool.len());

        let mut result = if mix == Mix::WarmRestart {
            if cfg.addr.is_some() {
                eprintln!("warm-restart: skipped (cannot restart an external daemon)");
                continue;
            }
            match drive_warm_restart(&cfg, &schedule, capacity) {
                Some(r) => r,
                None => return ExitCode::FAILURE,
            }
        } else if mix == Mix::SessionChurn {
            match drive_session_churn(&cfg, capacity) {
                Some(r) => r,
                None => return ExitCode::FAILURE,
            }
        } else {
            // A fresh in-process daemon per mix (cold cache → independent
            // rows), unless pointed at an external one.
            let (addr, server) = match &cfg.addr {
                Some(addr) => (addr.clone(), None),
                None => match spawn_server(cfg.workers, capacity, None) {
                    Ok((addr, thread, handle)) => (addr, Some((thread, handle))),
                    Err(e) => {
                        eprintln!("cannot bind in-process server: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let r = drive(
                &addr,
                &schedule,
                cfg.clients,
                cfg.reqs_per_conn,
                cfg.pipeline,
            );
            if let Some((thread, handle)) = server {
                stop_server(thread, &handle);
            }
            r
        };
        result.mix = mix.name();
        total_errors += result.errors;
        eprintln!(
            "{:<13} {} requests ({} distinct) in {:.2}s: {:.0} rps, {} hits / {} store / \
             {} misses / {} updates, {} conns, {} errors",
            result.mix,
            result.requests,
            result.distinct_specs,
            result.wall_s,
            result.requests as f64 / result.wall_s.max(1e-9),
            result.hits,
            result.store_hits,
            result.misses,
            result.updates,
            result.connections,
            result.errors
        );
        rows.push(result.to_json(
            cfg.clients,
            cfg.reqs_per_conn,
            cfg.addr.is_none().then_some(capacity),
        ));
    }

    let doc = Json::obj(vec![
        // v3: rows gained `latency_histogram_ms` (log2 tail shape).
        ("schema", Json::Str("mmvc-serve-bench/v3".to_string())),
        (
            "mode",
            Json::Str(if cfg.smoke { "smoke" } else { "full" }.to_string()),
        ),
        (
            "server",
            Json::Str(match &cfg.addr {
                Some(addr) => addr.clone(),
                None => "in-process".to_string(),
            }),
        ),
        (
            // Unknown for an external daemon: --workers only sizes the
            // in-process one.
            "workers",
            match cfg.addr {
                Some(_) => Json::Null,
                None => Json::Int(cfg.workers as i64),
            },
        ),
        ("clients", Json::Int(cfg.clients as i64)),
        ("reqs_per_conn", Json::Int(cfg.reqs_per_conn as i64)),
        ("pipeline", Json::Int(cfg.pipeline as i64)),
        ("seed", Json::Int(cfg.seed as i64)),
        ("update_frac", Json::Float(cfg.update_frac)),
        ("rows", Json::Arr(rows)),
    ]);
    if let Err(e) = std::fs::write(&cfg.out, doc.render()) {
        eprintln!("cannot write {}: {e}", cfg.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", cfg.out);

    if total_errors > 0 {
        eprintln!("{total_errors} requests failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
