//! The two workloads, their set-up, and one measured pass.
//!
//! Every workload has the same shape, so every end-to-end metric is
//! measured on every workload (see NOTES.md for what each one means
//! where):
//!
//! 1. a **cold pass**: each run spec built and run on a fresh
//!    `ScratchPool`, validated, and rendered to canonical bytes;
//! 2. a **warm pass**: the same specs on a pool kept across passes;
//! 3. **update batches** on a resident in-process session, in groups
//!    after each cold and each warm run;
//! 4. a **serve slice**: a closed loop of `POST /run` (and session)
//!    requests against an in-process daemon.

use crate::rig::{self, Expect, Op, Rig, RigConfig, SliceOut};
use mmvc_core::run::{run, run_detailed, AlgorithmKind, RunArtifacts, RunSpec};
use mmvc_core::session::Session;
use mmvc_graph::rng::{hash2, SplitMix64};
use mmvc_graph::{scenarios, Graph, GraphDelta, VertexId};
use mmvc_serve::{canonical_report_body, parse_run_body};
use mmvc_substrate::{ExecutorConfig, ScratchPool, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How the serve slice of a workload is shaped.
pub struct ServePlan {
    /// `POST /run` bodies the slice requests.
    pub pool: Vec<String>,
    /// Keep-alive connections, one request outstanding on each.
    pub conns: usize,
    /// Closed-loop operations per pass.
    pub ops_per_pass: usize,
    /// Zipf(1.2) over the pool order; otherwise the pool in order.
    pub zipf: bool,
    /// Share of operations that are fresh-seed `/run`s (always misses).
    pub fresh_frac: f64,
    /// Share of operations that are session update + run pairs.
    pub pair_frac: f64,
    /// LRU entries. 0 turns caching off (no memo, LRU, or disk store), so
    /// every request runs its spec in the daemon.
    pub cache_capacity: usize,
    pub max_n: usize,
    /// Untimed requests per connection before each timed slice.
    pub warmup_per_conn: usize,
    /// Spec of the daemon-resident session the pairs update.
    pub session_body: Option<String>,
    /// Vertex count of fresh-seed specs and session deltas.
    pub small_n: usize,
}

/// One workload: what runs, on which executor, and how it is served.
pub struct Plan {
    pub name: &'static str,
    /// `POST /run` bodies; the in-process passes run exactly the specs
    /// these parse to.
    pub bodies: Vec<String>,
    pub executor: ExecutorConfig,
    pub executor_name: String,
    /// Spec of the in-process resident session, if any.
    pub session_body: Option<String>,
    pub batches_per_pass: usize,
    pub serve: ServePlan,
}

fn spec_body(kind: &str, scenario: &str, n: usize, seed: u64) -> String {
    format!(r#"{{"algorithm": "{kind}", "scenario": "{scenario}", "n": {n}, "seed": {seed}}}"#)
}

/// Looks a workload up by name.
pub fn plan(name: &str, seed: u64, tiny: bool, nproc: usize) -> Option<Plan> {
    match name {
        "scale-mis" => {
            let n = if tiny { 1 << 14 } else { 1 << 20 };
            let body = spec_body("greedy-mis", "scale-gnp-1m", n, seed);
            Some(Plan {
                name: "scale-mis",
                bodies: vec![body.clone()],
                executor: ExecutorConfig::with_threads(nproc),
                executor_name: format!("threaded({nproc})"),
                session_body: Some(body.clone()),
                batches_per_pass: if tiny { 2 } else { 4 },
                serve: ServePlan {
                    pool: vec![body],
                    conns: 1,
                    ops_per_pass: 1,
                    zipf: false,
                    fresh_frac: 0.0,
                    pair_frac: 0.0,
                    cache_capacity: 0,
                    max_n: n,
                    warmup_per_conn: 0,
                    session_body: None,
                    small_n: 128,
                },
            })
        }
        "matching-serve" => {
            let n = if tiny { 512 } else { 4096 };
            let mut bodies = Vec::new();
            for kind in [
                "mpc-matching",
                "integral-matching",
                "one-plus-eps",
                "clique-mis",
            ] {
                for scenario in ["gnp-mid", "power-law"] {
                    bodies.push(spec_body(kind, scenario, n, seed));
                }
            }
            // The load generator's 22-spec pool: every kind over a
            // rotating scenario, two seeds each.
            let small_n = if tiny { 64 } else { 128 };
            let rotation = [
                "gnp-sparse",
                "power-law",
                "bipartite",
                "geometric",
                "planted-matching",
                "gnm",
            ];
            let mut pool = Vec::new();
            for (i, kind) in AlgorithmKind::ALL.iter().enumerate() {
                for j in 0..2usize {
                    let scenario = rotation[(i + j) % rotation.len()];
                    pool.push(spec_body(
                        kind.name(),
                        scenario,
                        small_n,
                        seed.wrapping_add(j as u64),
                    ));
                }
            }
            let pool_len = pool.len();
            Some(Plan {
                name: "matching-serve",
                session_body: Some(spec_body("one-plus-eps", "gnp-mid", n, seed)),
                bodies,
                executor: ExecutorConfig::sequential(),
                executor_name: "sequential".to_string(),
                batches_per_pass: if tiny { 2 } else { 40 },
                serve: ServePlan {
                    pool,
                    conns: nproc,
                    ops_per_pass: if tiny { 300 } else { 8000 },
                    zipf: true,
                    fresh_frac: 0.05,
                    pair_frac: 0.05,
                    cache_capacity: (pool_len / 4).max(2),
                    max_n: mmvc_serve::MAX_SERVED_N,
                    warmup_per_conn: 20,
                    session_body: Some(spec_body("greedy-mis", "gnp-sparse", small_n, seed)),
                    small_n,
                },
            })
        }
        _ => None,
    }
}

/// What one in-process run produced.
pub struct RunOut {
    pub bytes: Arc<[u8]>,
    pub kind: AlgorithmKind,
    pub rounds: usize,
    pub total_words: usize,
    pub max_load_words: usize,
    pub extractions: f64,
    pub used_fallback: Option<bool>,
    /// Fresh arena bytes the graph build requested.
    pub build_fresh_bytes: u64,
}

/// Re-checks a run's witnesses with the public validators (timed as
/// `core.validate_ms`; the run itself validated them already).
fn revalidate(g: &Graph, artifacts: &RunArtifacts) -> bool {
    match artifacts {
        RunArtifacts::GreedyMis(o) => o.mis.is_maximal(g),
        RunArtifacts::CliqueMis(o) => o.mis.is_maximal(g),
        RunArtifacts::LocalMis(_, set) => set.is_maximal(g),
        RunArtifacts::IntegralMatching(o) => o.matching.is_maximal(g) && o.cover.covers(g),
        RunArtifacts::OnePlusEps(o) => o.matching.is_maximal(g),
        RunArtifacts::MpcMatching(o) => o.fractional.is_feasible(g) && o.cover.covers(g),
        _ => true,
    }
}

/// spec → graph (`Scenario::build_with_exec`) → validated report
/// (`run_detailed`) → canonical bytes, each call in its own span.
pub fn one_run(
    spec: &RunSpec,
    pool: &ScratchPool,
    tel: &Telemetry,
    validate: bool,
) -> Result<RunOut, String> {
    let mut spec = spec.clone();
    spec.executor = spec.executor.clone().with_scratch(pool).with_telemetry(tel);
    let sc = scenarios::get(&spec.scenario)
        .ok_or_else(|| format!("unknown scenario {}", spec.scenario))?;
    let before = pool.stats().allocated_bytes;
    let g = {
        let _span = tel.span_tagged("bench.build", sc.name);
        sc.build_with_exec(spec.n.unwrap_or(sc.default_n), spec.seed, &spec.executor)
            .map_err(|e| format!("build {}: {e}", spec.scenario))?
    };
    let build_fresh_bytes = pool.stats().allocated_bytes - before;
    let (report, artifacts) = {
        let _span = tel.span_tagged("bench.run", spec.algorithm.name());
        run_detailed(&g, &spec.scenario, &spec).map_err(|e| format!("{}: {e}", spec.algorithm))?
    };
    if validate {
        let _span = tel.span("bench.validate");
        if !revalidate(&g, &artifacts) {
            return Err(format!(
                "{} on {}: witness failed re-validation",
                spec.algorithm, spec.scenario
            ));
        }
    }
    if !report.ok() {
        return Err(format!(
            "{} on {}: report not ok",
            spec.algorithm, spec.scenario
        ));
    }
    let (kind, substrate) = (report.algorithm, report.substrate.clone());
    let extractions = report.metric_f64("extractions").unwrap_or(0.0);
    let used_fallback = report.metric_f64("used_fallback").map(|v| v > 0.0);
    let bytes = {
        let _span = tel.span("bench.render");
        canonical_report_body(report)
    };
    Ok(RunOut {
        bytes: Arc::from(bytes),
        kind,
        rounds: substrate.rounds,
        total_words: substrate.total_words,
        max_load_words: substrate.max_load_words,
        extractions,
        used_fallback,
        build_fresh_bytes,
    })
}

/// A seeded 0.1%-style churn batch: alternating deletes of present
/// edges and inserts of random pairs.
pub fn churn(g: &Graph, ops: usize, salt: u64) -> GraphDelta {
    let n = g.num_vertices() as u64;
    let mut delta = GraphDelta::new();
    let mut staged = 0usize;
    let mut probe = 0u64;
    while staged < ops && probe < 64 * ops as u64 + 64 {
        let h = hash2(salt, probe);
        probe += 1;
        if staged.is_multiple_of(2) {
            let v = (h % n) as VertexId;
            let nbrs = g.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            let w = nbrs[(h >> 32) as usize % nbrs.len()];
            delta
                .delete_edge(v, w)
                .expect("neighbors are not self-loops");
        } else {
            let (a, b) = ((h % n) as VertexId, ((h >> 32) % n) as VertexId);
            if a == b {
                continue;
            }
            delta.insert_edge(a, b).expect("a != b");
        }
        staged += 1;
    }
    delta
}

/// Parses a body exactly as the daemon does and puts it on `exec`.
fn parse_spec(body: &str, exec: &ExecutorConfig) -> Result<RunSpec, String> {
    let mut spec = parse_run_body(body.as_bytes())?;
    spec.executor = exec.clone();
    Ok(spec)
}

/// A workload after set-up: everything the timed passes touch.
pub struct Ready {
    pub specs: Vec<RunSpec>,
    /// Canonical bytes of `specs`, and of the served pool.
    pub expected: Vec<Arc<[u8]>>,
    pub pool_expected: Vec<Arc<[u8]>>,
    pub warm_pool: ScratchPool,
    pub session: Option<Session>,
    /// The daemon; it writes trace files only in a `--trace 1` run.
    pub rig: Rig,
    /// Fresh-seed spec bodies handed out so far.
    pub fresh: Vec<String>,
    pub batches_done: u64,
}

fn start_rig(
    plan: &Plan,
    dir: &Path,
    expected: &[Arc<[u8]>],
    trace_dir: Option<PathBuf>,
) -> Result<Rig, String> {
    let caching = plan.serve.cache_capacity > 0;
    let mut rig = Rig::start(&RigConfig {
        workers: crate::stats::nproc(),
        cache_capacity: plan.serve.cache_capacity,
        max_n: plan.serve.max_n,
        store_dir: caching.then(|| dir.join("store")),
        trace_dir,
    })?;
    if caching {
        // Warm the tiers: every pool spec misses once, lands in the store,
        // and the Zipf tail is evicted from the LRU by the head.
        for (i, body) in plan.serve.pool.iter().enumerate() {
            let resp = rig.request("POST", "/run", body.as_bytes())?;
            if resp.body[..] != expected[i][..] {
                return Err(format!(
                    "set-up: served pool spec {i} differs from the canonical bytes"
                ));
            }
        }
    }
    if let Some(body) = &plan.serve.session_body {
        rig.open_session(body)?;
    }
    Ok(rig)
}

/// Builds everything a pass needs: specs, the canonical bytes (from a
/// run on the pool that stays warm) of the specs and of the served pool,
/// the resident session, and the daemon, which traces into `dir/trace`
/// when `traced`.
pub fn setup(plan: &Plan, tel: &Telemetry, dir: &Path, traced: bool) -> Result<Ready, String> {
    let exec = plan.executor.clone().with_telemetry(tel);
    let specs = plan
        .bodies
        .iter()
        .map(|b| parse_spec(b, &exec))
        .collect::<Result<Vec<_>, _>>()?;
    let warm_pool = ScratchPool::new();
    let expected = specs
        .iter()
        .map(|s| one_run(s, &warm_pool, tel, false).map(|o| o.bytes))
        .collect::<Result<Vec<_>, _>>()?;
    let pool_expected = plan
        .serve
        .pool
        .iter()
        .map(|body| match plan.bodies.iter().position(|b| b == body) {
            Some(i) => Ok(Arc::clone(&expected[i])),
            None => one_run(&parse_spec(body, &exec)?, &warm_pool, tel, false).map(|o| o.bytes),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let session = match &plan.session_body {
        Some(body) => {
            let mut session =
                Session::new(&parse_spec(body, &exec)?).map_err(|e| format!("session: {e}"))?;
            let cold = session.run_cold().map_err(|e| format!("session: {e}"))?;
            if !cold.ok() {
                return Err("session: cold report not ok".to_string());
            }
            Some(session)
        }
        None => None,
    };
    let rig = start_rig(plan, dir, &pool_expected, traced.then(|| dir.join("trace")))?;
    Ok(Ready {
        specs,
        expected,
        pool_expected,
        warm_pool,
        session,
        rig,
        fresh: Vec::new(),
        batches_done: 0,
    })
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct PassOut {
    pub cold_s: f64,
    pub warm_s: f64,
    /// The in-process part (cold + warm + updates) of the pass.
    pub inprocess_s: f64,
    /// `VmHWM` right after the in-process part, in MiB.
    pub inprocess_hwm_mib: f64,
    pub update_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub cold_runs: Vec<RunOut>,
    pub warm_reused_bytes: u64,
    pub warm_fresh_bytes: u64,
    pub delta_ops: Vec<f64>,
    pub repaired: u64,
    pub slice: SliceOut,
    /// `/metrics` counter deltas over the serve slice.
    pub metrics_delta: Vec<(&'static str, f64)>,
}

/// The serve slice's schedule for pass `pass`, drawn from the seed.
fn schedule(
    plan: &Plan,
    fresh: &mut Vec<String>,
    session: Option<u64>,
    seed: u64,
    pass: u64,
) -> Vec<Op> {
    let sp = &plan.serve;
    let mut rng = SplitMix64::new(hash2(seed, 0x5E5E_0000 + pass));
    let weights: Vec<f64> = (0..sp.pool.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(1.2))
        .collect();
    let total: f64 = weights.iter().sum();
    let bodies: Vec<Arc<str>> = sp.pool.iter().map(|b| Arc::from(b.as_str())).collect();
    let n = sp.small_n as u64;
    let mut ops = Vec::with_capacity(sp.ops_per_pass);
    for _ in 0..sp.ops_per_pass {
        let u = rng.next_f64();
        if u < sp.fresh_frac {
            let i = fresh.len();
            let kind = AlgorithmKind::ALL[i % AlgorithmKind::ALL.len()];
            let fresh_seed = hash2(seed, 0xF2E5_0000_0000 + i as u64) >> 1;
            let body = spec_body(kind.name(), "gnp-sparse", sp.small_n, fresh_seed);
            fresh.push(body.clone());
            ops.push(Op::Run {
                body: Arc::from(body.as_str()),
                expect: Expect::Fresh(i),
            });
        } else if u < sp.fresh_frac + sp.pair_frac {
            let mut pair = || {
                let a = rng.next_below(n);
                let b = (a + 1 + rng.next_below(n - 1)) % n;
                (a, b)
            };
            let ((a, b), (c, d)) = (pair(), pair());
            let id = session.unwrap_or(0);
            ops.push(Op::Pair {
                update: format!(
                    r#"{{"session": {id}, "insert": [[{a}, {b}]], "delete": [[{c}, {d}]]}}"#
                ),
            });
        } else {
            let mut idx = ops.len() % bodies.len();
            if sp.zipf {
                let mut target = rng.next_f64() * total;
                for (k, w) in weights.iter().enumerate() {
                    idx = k;
                    target -= w;
                    if target <= 0.0 {
                        break;
                    }
                }
            }
            ops.push(Op::Run {
                body: Arc::clone(&bodies[idx]),
                expect: Expect::Pool(idx),
            });
        }
    }
    ops
}

fn metric_counters(doc: &mmvc_bench::Json) -> Vec<(&'static str, f64)> {
    let int = |path: &[&str]| {
        let mut node = Some(doc);
        for key in path {
            node = node.and_then(|n| n.get(key));
        }
        node.and_then(mmvc_bench::Json::as_f64).unwrap_or(0.0)
    };
    vec![
        ("requests", int(&["requests"])),
        ("keepalive_reuses", int(&["keepalive_reuses"])),
        ("bytes_served", int(&["bytes_served"])),
        (
            "scratch_allocated_bytes",
            int(&["scratch", "allocated_bytes"]),
        ),
    ]
}

/// One measured pass. With `traced`, the caller has switched the sink
/// on. In a `--trace 1` run (`trace_run`), cold runs re-check their
/// witnesses on every pass, so traced and untraced passes do the same
/// in-process work, and only traced passes drive the (traced) daemon.
pub fn pass(
    plan: &Plan,
    ready: &mut Ready,
    tel: &Telemetry,
    seed: u64,
    pass_idx: u64,
    traced: bool,
    trace_run: bool,
) -> PassOut {
    let mut out = PassOut::default();
    let fail = |out: &mut PassOut, e: String| out.failures.push(e);
    let pass_span = tel.span("bench.pass");
    let pass_start = Instant::now();

    // The update batches run in groups, one after each cold and each
    // warm run, not in one block: on the 2-vCPU host, the batches of one
    // block all ran about 1.0 ms or all about 1.5 ms, changing from pass
    // to pass, so a block sampled a single state of the machine.
    let specs = ready.specs.len();
    let group = |slot: usize| {
        let per = plan.batches_per_pass;
        per * (slot + 1) / (2 * specs) - per * slot / (2 * specs)
    };
    for i in 0..specs {
        let stage = tel.span("bench.cold");
        let start = Instant::now();
        out.attempted += 1;
        match one_run(&ready.specs[i], &ScratchPool::new(), tel, trace_run) {
            Ok(r) if r.bytes[..] == ready.expected[i][..] => out.cold_runs.push(r),
            Ok(_) => fail(
                &mut out,
                format!("cold run {i}: canonical bytes differ from set-up"),
            ),
            Err(e) => fail(&mut out, e),
        }
        out.cold_s += start.elapsed().as_secs_f64();
        drop(stage);
        update_batches(ready, tel, seed, group(i), &mut out);
    }

    // The session does not use the warm pool, so its counters read the
    // warm runs alone.
    let before = ready.warm_pool.stats();
    for i in 0..specs {
        let stage = tel.span("bench.warm");
        let start = Instant::now();
        out.attempted += 1;
        match one_run(&ready.specs[i], &ready.warm_pool, tel, false) {
            Ok(r) if r.bytes[..] == ready.expected[i][..] => {}
            Ok(_) => fail(
                &mut out,
                format!("warm run {i}: canonical bytes differ from the cold run"),
            ),
            Err(e) => fail(&mut out, e),
        }
        out.warm_s += start.elapsed().as_secs_f64();
        drop(stage);
        update_batches(ready, tel, seed, group(specs + i), &mut out);
    }
    let after = ready.warm_pool.stats();
    out.warm_reused_bytes = after.reused_bytes - before.reused_bytes;
    out.warm_fresh_bytes = after.allocated_bytes - before.allocated_bytes;

    out.inprocess_s = pass_start.elapsed().as_secs_f64();
    out.inprocess_hwm_mib = crate::stats::peak_rss_mib();
    drop(pass_span);
    if trace_run && !traced {
        return out;
    }

    let rig = &ready.rig;
    let ops = schedule(plan, &mut ready.fresh, rig.session, seed, pass_idx);
    let counters = |rig: &Rig| rig.metrics().map(|doc| metric_counters(&doc));
    let before = counters(rig);
    out.slice = {
        let _span = tel.span("bench.serve");
        rig::drive(
            rig,
            plan.serve.conns,
            plan.serve.warmup_per_conn,
            &ops,
            &ready.pool_expected,
        )
    };
    match (before, counters(rig)) {
        (Ok(b), Ok(a)) => {
            out.metrics_delta = b
                .iter()
                .zip(&a)
                .map(|(&(k, x), &(_, y))| (k, y - x))
                .collect();
        }
        (Err(e), _) | (_, Err(e)) => fail(&mut out, e),
    }
    out
}

/// `count` update batches on the resident session, if there is one:
/// `apply_update` of a seeded churn batch, `run_incremental`, render.
fn update_batches(ready: &mut Ready, tel: &Telemetry, seed: u64, count: usize, out: &mut PassOut) {
    let _stage = tel.span("bench.updates");
    if let Some(session) = ready.session.as_mut() {
        for _ in 0..count {
            out.attempted += 1;
            let ops = (session.graph().num_edges() / 1000).max(2);
            let delta = churn(
                session.graph(),
                ops,
                hash2(seed, 0xDE17_A000 + ready.batches_done),
            );
            ready.batches_done += 1;
            let start = Instant::now();
            let applied = {
                let _span = tel.span("bench.apply_update");
                session.apply_update(&delta)
            };
            let report = {
                let _span = tel.span("bench.run_incremental");
                session.run_incremental()
            };
            let result = applied.and_then(|a| report.map(|r| (a, r)));
            match result {
                Ok((applied, report)) => {
                    let ok = report.ok();
                    let incremental = report.metric_f64("incremental") == Some(1.0);
                    let bytes = {
                        let _span = tel.span("bench.render");
                        canonical_report_body(report)
                    };
                    out.update_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    out.delta_ops
                        .push((applied.inserted + applied.deleted) as f64);
                    out.repaired += u64::from(incremental);
                    if !ok || bytes.is_empty() {
                        out.failures
                            .push("session update: report not ok".to_string());
                    }
                }
                Err(e) => out.failures.push(format!("session update: {e}")),
            }
        }
    }
}

/// Checks the fresh-seed bodies the daemon served against in-process
/// runs of the same specs, on `nproc` threads. Returns the failures.
pub fn check_fresh(ready: &Ready, served: &[(usize, Vec<u8>)]) -> Vec<String> {
    let check = |(i, body): &(usize, Vec<u8>)| -> Option<String> {
        let expected = parse_run_body(ready.fresh[*i].as_bytes()).and_then(|spec| {
            run(&spec)
                .map(canonical_report_body)
                .map_err(|e| e.to_string())
        });
        match expected {
            Ok(bytes) if bytes == *body => None,
            Ok(_) => Some(format!(
                "fresh spec {i}: served body differs from the canonical bytes"
            )),
            Err(e) => Some(format!("fresh spec {i}: {e}")),
        }
    };
    let chunk = served.len().div_ceil(crate::stats::nproc()).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().filter_map(check).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("fresh check thread"))
            .collect()
    })
}

/// Time of one cold pass over `specs` on `exec` (fresh pool per run,
/// no telemetry): the baseline of `substrate.thread_speedup`.
pub fn cold_pass_on(specs: &[RunSpec], exec: &ExecutorConfig) -> Result<f64, String> {
    let start = Instant::now();
    let off = Telemetry::disabled();
    for spec in specs {
        let mut s = spec.clone();
        s.executor = exec.clone();
        one_run(&s, &ScratchPool::new(), &off, false)?;
    }
    Ok(start.elapsed().as_secs_f64())
}
