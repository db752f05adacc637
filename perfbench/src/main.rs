//! `mmvc-perfbench`: one command for the repository's three user paths.
//!
//! ```text
//! mmvc-perfbench --workload scale-mis|matching-serve
//!     --seed N --seconds S --trace 0|1 [--tiny] [--workdir DIR]
//!     [--git-commit C] [--source-digest D] [--inject-fault] [--setup-only]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with telemetry
//! off; with `--trace 1` it alternates untraced and traced passes and
//! reports the per-layer metrics. `--setup-only` sets the workload up,
//! prints `setup_s <seconds since process start>`, and exits: the
//! measuring process runs itself that way to sample `setup_s`. Every
//! output is checked; the last stdout line is the JSON result, and the
//! exit code is non-zero when any check failed. `perfbench/run.py` builds and runs it; NOTES.md
//! defines every metric.

mod rig;
mod spans;
mod stats;
mod workload;

use rig::{SliceOut, Tier};
use spans::Accounted;
use stats::{mean, median, percentile, ratio};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{PassOut, Plan};

/// `setup_s` samples per run: the measuring process's own set-up, then
/// fresh `--setup-only` processes, each timed from its own start: at
/// least `MIN_SETUPS` samples and, while they take less than
/// `SETUP_BUDGET` together, up to `MAX_SETUPS`, so cheap set-ups get
/// more samples. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// End-to-end metrics (`--trace 0`), with units, in BENCHMARK.json order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_warm_s", "s"),
    ("update_ms", "ms"),
    ("serve_rps", "req/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics carried in the result line (`--trace 1`): the ones
/// every workload exercises. The traced run prints more (per kind, per
/// cache tier) in its table and `layers` line.
const PER_LAYER: [(&str, &str); 27] = [
    ("graph.build_ms", "ms"),
    ("graph.generate_ms", "ms"),
    ("graph.csr_ms", "ms"),
    ("graph.fresh_bytes", "bytes"),
    ("graph.delta_ms", "ms"),
    ("graph.delta_ops", "count"),
    ("substrate.rounds", "count"),
    ("substrate.total_words", "words"),
    ("substrate.max_load_words", "words"),
    ("substrate.exec_ms", "ms"),
    ("substrate.scratch_reuse_frac", "ratio"),
    ("substrate.thread_speedup", "ratio"),
    ("host.nproc", "count"),
    ("proc.cpu_util", "ratio"),
    ("core.algorithm_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.repair_ms", "ms"),
    ("core.repair_frac", "ratio"),
    ("render.ms", "ms"),
    ("render.bytes", "bytes"),
    ("serve.miss_frac", "ratio"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.worker_ms", "ms"),
    ("serve.bytes_per_req", "bytes"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    workdir: PathBuf,
    git_commit: String,
    source_digest: String,
    inject_fault: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        workdir: PathBuf::from(".perfbench-work"),
        git_commit: "unknown".to_string(),
        source_digest: "unknown".to_string(),
        inject_fault: false,
        setup_only: false,
    };
    let mut seed = None;
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "--workdir" => args.workdir = PathBuf::from(value()?),
            "--git-commit" => args.git_commit = value()?,
            "--source-digest" => args.source_digest = value()?,
            "--tiny" | "--inject-fault" | "--setup-only" => {
                match argv[i].as_str() {
                    "--tiny" => args.tiny = true,
                    "--inject-fault" => args.inject_fault = true,
                    _ => args.setup_only = true,
                }
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Ordered metric values with units and a note on what backs them.
#[derive(Default)]
struct Sheet {
    rows: Vec<(String, f64, &'static str, String)>,
}

impl Sheet {
    fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.rows.push((name.into(), value, unit, note.into()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmvc-perfbench: {e}");
            eprintln!(
                "usage: mmvc-perfbench --workload scale-mis|matching-serve --seed N \
                 --seconds S --trace 0|1 [--tiny] [--workdir DIR] [--inject-fault] [--setup-only]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = stats::nproc();
    let Some(plan) = workload::plan(&args.workload, args.seed, args.tiny, nproc) else {
        eprintln!("mmvc-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    if args.setup_only {
        return match setup_only(&args, &plan, process_start) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mmvc-perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    match measure(&args, &plan, process_start) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mmvc-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Sets the workload up as a measuring run would, then prints the time
/// from process start until the first timed operation would begin.
fn setup_only(args: &Args, plan: &Plan, process_start: Instant) -> Result<(), String> {
    let off = mmvc_substrate::Telemetry::disabled();
    let _ = std::fs::remove_dir_all(&args.workdir);
    let ready = workload::setup(plan, &off, &args.workdir, false)?;
    let setup_s = process_start.elapsed().as_secs_f64();
    ready.rig.stop()?;
    let _ = std::fs::remove_dir_all(&args.workdir);
    println!("setup_s {}", num(setup_s));
    Ok(())
}

/// `setup_s` samples: `own` (this process's set-up), then this binary
/// run again with `--setup-only`, one fresh process per sample, one
/// after another.
fn setup_samples(args: &Args, own: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut samples: Vec<f64> = vec![own];
    while samples.len() < MIN_SETUPS
        || (samples.len() < MAX_SETUPS && samples.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--workdir")
        .arg(args.workdir.join(format!("setup-{}", samples.len())))
        .arg("--setup-only");
        if args.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up process: {}", out.status));
        }
        let sample = String::from_utf8_lossy(&out.stdout)
            .trim()
            .strip_prefix("setup_s ")
            .and_then(|v| v.parse().ok())
            .ok_or("set-up process printed no time")?;
        samples.push(sample);
    }
    Ok(samples)
}

/// Per-layer values of one traced pass.
type Layers = BTreeMap<String, f64>;

fn layers_of_pass(out: &PassOut, acc: &Accounted) -> Layers {
    let mut l = Layers::new();
    let main = acc.tid_of("bench.pass").unwrap_or(0);
    let cold = acc.subset("bench.cold", main);
    l.insert("graph.build_ms".into(), cold.incl_ms("bench.build", None));
    l.insert(
        "graph.generate_ms".into(),
        cold.self_ms("scenario.generate"),
    );
    l.insert("graph.csr_ms".into(), cold.incl_ms("csr.build", None));
    l.insert(
        "graph.fresh_bytes".into(),
        out.cold_runs
            .iter()
            .map(|r| r.build_fresh_bytes as f64)
            .sum(),
    );
    l.insert(
        "substrate.rounds".into(),
        out.cold_runs.iter().map(|r| r.rounds as f64).sum(),
    );
    l.insert(
        "substrate.total_words".into(),
        out.cold_runs.iter().map(|r| r.total_words as f64).sum(),
    );
    l.insert(
        "substrate.max_load_words".into(),
        out.cold_runs
            .iter()
            .map(|r| r.max_load_words as f64)
            .fold(0.0, f64::max),
    );
    l.insert(
        "substrate.exec_ms".into(),
        cold.incl_ms("exec.run_chunked", None) + cold.incl_ms("exec.run_slabs", None),
    );
    l.insert(
        "substrate.scratch_reuse_frac".into(),
        ratio(
            out.warm_reused_bytes as f64,
            (out.warm_reused_bytes + out.warm_fresh_bytes) as f64,
        ),
    );
    l.insert("core.algorithm_ms".into(), cold.incl_ms("algorithm", None));
    for r in &out.cold_runs {
        let kind = r.kind.name();
        *l.entry(format!("core.{kind}.ms")).or_default() = cold.incl_ms("algorithm", Some(kind));
        *l.entry(format!("core.{kind}.rounds")).or_default() += r.rounds as f64;
    }
    l.insert(
        "core.validate_ms".into(),
        cold.incl_ms("bench.validate", None),
    );
    let fallbacks: Vec<bool> = out
        .cold_runs
        .iter()
        .filter_map(|r| r.used_fallback)
        .collect();
    l.insert(
        "core.fallback_frac".into(),
        ratio(
            fallbacks.iter().filter(|&&f| f).count() as f64,
            fallbacks.len() as f64,
        ),
    );
    l.insert(
        "core.extractions".into(),
        out.cold_runs.iter().map(|r| r.extractions).sum(),
    );
    l.insert("render.ms".into(), cold.incl_ms("bench.render", None));
    l.insert(
        "render.bytes".into(),
        out.cold_runs.iter().map(|r| r.bytes.len() as f64).sum(),
    );
    let updates = acc.subset("bench.updates", main);
    l.insert(
        "graph.delta_ms".into(),
        median(&updates.durations_ms("bench.apply_update")),
    );
    l.insert("graph.delta_ops".into(), median(&out.delta_ops));
    l.insert(
        "core.repair_ms".into(),
        median(&updates.durations_ms("bench.run_incremental")),
    );
    l.insert(
        "core.repair_frac".into(),
        ratio(out.repaired as f64, out.update_ms.len() as f64),
    );
    l.insert(
        "trace.unattributed_frac".into(),
        acc.unattributed_frac("bench.pass"),
    );
    l
}

/// Times `parse_run_body` + `cache_key` over the served bodies, per call.
fn parse_us(plan: &Plan, tel: &mmvc_substrate::Telemetry) -> f64 {
    let _span = tel.span("bench.parse");
    let reps = 200;
    let start = Instant::now();
    let mut keys = 0usize;
    for _ in 0..reps {
        for body in &plan.serve.pool {
            if let Ok(spec) = mmvc_serve::parse_run_body(body.as_bytes()) {
                keys += mmvc_serve::cache_key(&spec, None).len();
            }
        }
    }
    std::hint::black_box(keys);
    start.elapsed().as_secs_f64() * 1e6 / (reps * plan.serve.pool.len()) as f64
}

fn tier_samples(samples: &[(Tier, f64)], tier: Option<Tier>) -> Vec<f64> {
    samples
        .iter()
        .filter(|(t, _)| tier.is_none_or(|want| *t == want))
        .map(|&(_, ms)| ms)
        .collect()
}

fn measure(args: &Args, plan: &Plan, process_start: Instant) -> Result<bool, String> {
    let nproc = stats::nproc();
    let tel = if args.trace {
        mmvc_substrate::Telemetry::recording()
    } else {
        mmvc_substrate::Telemetry::disabled()
    };
    tel.set_enabled(false);
    let _ = std::fs::remove_dir_all(&args.workdir);

    // This process sets up for its own passes; that set-up, timed from
    // process start, is the first `setup_s` sample, and fresh processes
    // give the others (only `--trace 0` reports it).
    let mut ready = workload::setup(plan, &tel, &args.workdir.join("run"), args.trace)
        .map_err(|e| format!("set-up: {e}"))?;
    let own_setup_s = process_start.elapsed().as_secs_f64();
    let setup_s = if args.trace {
        Vec::new()
    } else {
        setup_samples(args, own_setup_s)?
    };
    if args.inject_fault {
        // Corrupt one expected byte: every check against it must fail.
        let mut bytes = ready.expected[0].to_vec();
        bytes[0] ^= 0xFF;
        ready.expected[0] = bytes.into();
    }

    // The timed window: passes repeat while one more of the average
    // length still fits in it.
    let min_passes = if args.trace { 4 } else { 3 };
    let fits = |done: usize, elapsed: Duration| {
        elapsed.as_secs_f64() * (done + 1) as f64 / done.max(1) as f64 <= args.seconds
    };
    let cpu0 = stats::cpu_seconds();
    let steal0 = stats::host_steal_jiffies();
    let start = Instant::now();
    let mut passes: Vec<(bool, PassOut)> = Vec::new();
    let mut layer_passes: Vec<Layers> = Vec::new();
    let mut span_totals: Vec<spans::Totals> = Vec::new();
    let mut parse_samples = Vec::new();
    // Peak RSS of the first pass's in-process part, a fixed amount of
    // work: VmHWM is reset after set-up and read before that pass's serve
    // slice. Later passes add the allocator's growing retention, which
    // depends on how many passes fit in the window; the served run of
    // scale-mis allocates in a daemon thread's arena beside what the
    // main arena retains, which moved the peak by up to 280 MiB.
    let rss_reset = stats::reset_peak_rss();
    let mut first_pass_rss = f64::NAN;
    while passes.len() < min_passes || fits(passes.len(), start.elapsed()) {
        let idx = passes.len() as u64;
        let traced = args.trace && idx % 2 == 1;
        tel.set_enabled(traced);
        let out = workload::pass(plan, &mut ready, &tel, args.seed, idx, traced, args.trace);
        if idx == 0 {
            first_pass_rss = out.inprocess_hwm_mib;
        }
        if traced {
            parse_samples.push(parse_us(plan, &tel));
        }
        tel.set_enabled(false);
        let events = tel.drain();
        if traced {
            let acc = spans::account(spans::from_events(&events));
            layer_passes.push(layers_of_pass(&out, &acc));
            span_totals.push(acc.totals());
        }
        passes.push((traced, out));
    }
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu0;
    let steal1 = stats::host_steal_jiffies();
    let steal_frac = ratio(steal1.0 - steal0.0, steal1.1 - steal0.1);

    // Fresh-seed answers are checked against in-process runs now, after
    // the window, so the checking does not load the daemon.
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut fresh = Vec::new();
    for (_, p) in &mut passes {
        attempted += p.attempted + p.slice.attempted;
        failures.extend(p.failures.iter().cloned());
        failures.extend(p.slice.failures.iter().cloned());
        fresh.append(&mut p.slice.fresh_bodies);
    }
    failures.extend(workload::check_fresh(&ready, &fresh));

    let mut speedup = None;
    if args.trace {
        let seq =
            workload::cold_pass_on(&ready.specs, &mmvc_substrate::ExecutorConfig::sequential())?;
        let thr = workload::cold_pass_on(
            &ready.specs,
            &mmvc_substrate::ExecutorConfig::with_threads(nproc),
        )?;
        speedup = Some((seq, thr));
    }
    let daemon_spans = ready.rig.stop()?;
    let _ = std::fs::remove_dir_all(&args.workdir);

    // Pool the per-pass measurements of the mode's passes.
    let untraced: Vec<&PassOut> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&PassOut> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let measured = if args.trace { &traced } else { &untraced };
    let update_ms: Vec<f64> = measured.iter().flat_map(|p| p.update_ms.iter().copied()).collect();
    let samples: Vec<(Tier, f64)> = measured
        .iter()
        .flat_map(|p| p.slice.samples.iter().copied())
        .collect();
    let latencies = tier_samples(&samples, None);

    let daemon = spans::account(daemon_spans);
    let mut sheet = Sheet::default();
    if !args.trace {
        let cold: Vec<f64> = untraced.iter().map(|p| p.cold_s).collect();
        let warm: Vec<f64> = untraced.iter().map(|p| p.warm_s).collect();
        sheet.put(
            "setup_s",
            median(&setup_s),
            "s",
            format!(
                "median of {} set-ups (this process and fresh ones), each from process start \
                 to its first timed operation",
                setup_s.len()
            ),
        );
        // Timings are the mean over passes. The host's speed drifts over
        // seconds to minutes; a median snaps to whichever state held most
        // passes of a run, while a mean weighs each state by its share.
        sheet.put(
            "run_s",
            mean(&cold),
            "s",
            format!("mean of {} passes", cold.len()),
        );
        sheet.put(
            "run_warm_s",
            mean(&warm),
            "s",
            format!("mean of {} passes", warm.len()),
        );
        // Per pass the interquartile mean of its updates, then the mean
        // over passes: batch costs fall in groups (how many repair passes
        // a batch needs), and a plain median jumps between the groups as
        // their shares shift from seed to seed.
        let update: Vec<f64> = untraced
            .iter()
            .map(|p| stats::interquartile_mean(&p.update_ms))
            .collect();
        sheet.put(
            "update_ms",
            mean(&update),
            "ms",
            format!(
                "mean over {} passes of the per-pass interquartile mean; {} updates in all",
                update.len(),
                update_ms.len()
            ),
        );
        // Serving figures are taken per pass and reported as the mean over
        // passes, like the run times.
        let per_pass = |f: &dyn Fn(&[f64], &SliceOut) -> f64| -> Vec<f64> {
            untraced
                .iter()
                .map(|p| f(&tier_samples(&p.slice.samples, None), &p.slice))
                .collect()
        };
        let rps = per_pass(&|l, s| ratio(l.len() as f64, s.wall_s));
        let p50 = per_pass(&|l, _| median(l));
        let p99 = per_pass(&|l, _| percentile(l, 99.0));
        let per = latencies.len() / untraced.len().max(1);
        sheet.put(
            "serve_rps",
            mean(&rps),
            "req/s",
            format!(
                "mean over {} passes of answered requests / slice time; {per} requests per pass, \
                 closed loop, {} connection(s)",
                rps.len(),
                plan.serve.conns
            ),
        );
        sheet.put(
            "serve_p50_ms",
            mean(&p50),
            "ms",
            format!(
                "mean over {} passes of the per-pass median (mean of the middle two for an even count) of {per} requests",
                p50.len()
            ),
        );
        sheet.put(
            "serve_p99_ms",
            mean(&p99),
            "ms",
            format!(
                "mean over {} passes of the per-pass nearest-rank p99 of {per} requests \
                 ({} beyond it; highest tail with >=10 beyond: {})",
                p99.len(),
                per - (0.99 * per as f64).ceil() as usize,
                stats::supported_tail(per).map_or("none".to_string(), |p| format!("p{p}"))
            ),
        );
        sheet.put(
            "peak_rss_mib",
            first_pass_rss,
            "MiB",
            if rss_reset {
                "VmHWM over the in-process part of the first pass, reset after set-up"
            } else {
                "VmHWM after the in-process part of the first pass, set-up included \
                 (this kernel cannot reset it)"
            },
        );
    } else {
        let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for l in &layer_passes {
            for (k, v) in l {
                all.entry(k.clone()).or_default().push(*v);
            }
        }
        let n_traced = layer_passes.len();
        let unit_of = |name: &str| -> &'static str {
            PER_LAYER.iter().find(|(n, _)| *n == name).map_or_else(
                || {
                    if name.ends_with("_ms") || name.ends_with(".ms") {
                        "ms"
                    } else if name.ends_with("rounds") || name.ends_with("extractions") {
                        "count"
                    } else {
                        "ratio"
                    }
                },
                |(_, u)| *u,
            )
        };
        for (k, v) in &all {
            sheet.put(
                k.clone(),
                median(v),
                unit_of(k),
                format!("median of {n_traced} traced passes"),
            );
        }
        let (seq, thr) = speedup.expect("measured in trace mode");
        sheet.put(
            "substrate.thread_speedup",
            seq / thr,
            "ratio",
            format!("cold pass sequential {seq:.4} s / threaded({nproc}) {thr:.4} s, fresh pools"),
        );
        sheet.put("host.nproc", nproc as f64, "count", "available parallelism");
        sheet.put(
            "proc.cpu_util",
            ratio(cpu_s, window_s * nproc as f64),
            "ratio",
            format!("{cpu_s:.2} CPU s over {window_s:.2} s x {nproc} cores"),
        );
        for tier in Tier::ALL {
            let t = tier_samples(&samples, Some(tier));
            sheet.put(
                format!("serve.{}_frac", tier.name()),
                ratio(t.len() as f64, latencies.len() as f64),
                "ratio",
                format!("{} of {} requests", t.len(), latencies.len()),
            );
            sheet.put(
                format!("serve.{}_p50_ms", tier.name()),
                if t.is_empty() { 0.0 } else { median(&t) },
                "ms",
                format!("p50 of {} (0 when no request took this tier)", t.len()),
            );
        }
        sheet.put(
            "serve.parse_us",
            median(&parse_samples),
            "us",
            "parse_run_body + cache_key per call",
        );
        let workers = daemon.durations_ms("serve.worker");
        sheet.put(
            "serve.worker_ms",
            if workers.is_empty() {
                0.0
            } else {
                median(&workers)
            },
            "ms",
            format!("median of {} serve.worker spans", workers.len()),
        );
        let delta = |key: &str| -> f64 {
            traced
                .iter()
                .flat_map(|p| p.metrics_delta.iter())
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .sum()
        };
        sheet.put(
            "serve.keepalive_reuse_frac",
            ratio(delta("keepalive_reuses"), delta("requests")),
            "ratio",
            "/metrics keepalive_reuses / requests deltas",
        );
        sheet.put(
            "serve.bytes_per_req",
            ratio(delta("bytes_served"), delta("requests")),
            "bytes",
            "/metrics bytes_served / requests deltas",
        );
        sheet.put(
            "serve.scratch_fresh_bytes",
            ratio(delta("scratch_allocated_bytes"), traced.len() as f64),
            "bytes",
            "/metrics scratch.allocated_bytes delta per traced pass",
        );
        let wall = |ps: &[&PassOut]| median(&ps.iter().map(|p| p.inprocess_s).collect::<Vec<_>>());
        sheet.put(
            "trace.overhead_frac",
            wall(&traced) / wall(&untraced) - 1.0,
            "ratio",
            format!(
                "median traced in-process pass {:.4} s vs untraced {:.4} s",
                wall(&traced),
                wall(&untraced)
            ),
        );
    }

    // Provenance, the table, self time per span, then the result line.
    let correct = failures.is_empty();
    let samples: Vec<String> = sheet
        .rows
        .iter()
        .map(|(n, _, _, note)| format!("\"{n}\": \"{note}\""))
        .collect();
    println!(
        "# provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, \
         \"nproc\": {nproc}, \"executor\": \"{}\", \"git_commit\": \"{}\", \"source_digest\": \"{}\", \
         \"passes\": {}, \"traced_passes\": {}, \"setups\": {}, \"tail_percentile\": \"p99 nearest-rank\", \
         \"host_steal_frac\": {}, \"samples\": {{{}}}}}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny,
        plan.executor_name,
        args.git_commit,
        args.source_digest,
        passes.len(),
        traced.len(),
        setup_s.len(),
        num(steal_frac),
        samples.join(", ")
    );
    for (i, (was_traced, p)) in passes.iter().enumerate() {
        println!(
            "# pass {i}{}: cold_s={} warm_s={} update_ms_iqm={} slice_rps={} slice_p50_ms={}",
            if *was_traced { " (traced)" } else { "" },
            num(p.cold_s),
            num(p.warm_s),
            num(stats::interquartile_mean(&p.update_ms)),
            num(ratio(p.slice.samples.len() as f64, p.slice.wall_s)),
            num(median(&tier_samples(&p.slice.samples, None))),
        );
    }
    for (name, value, unit, note) in &sheet.rows {
        println!("metric {name} = {} {unit}  ({note})", num(*value));
    }
    println!(
        "metric error_rate = {} ratio  ({} failed of {attempted} attempted)",
        num(ratio(failures.len() as f64, attempted as f64)),
        failures.len()
    );
    for f in failures.iter().take(10) {
        println!("# failure: {f}");
    }
    if args.trace {
        let mut merged: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for t in &span_totals {
            for (k, &(c, i, s)) in t {
                let e = merged.entry(k.clone()).or_default();
                e.0 += c;
                e.1 += i;
                e.2 += s;
            }
        }
        let per = span_totals.len().max(1) as f64;
        println!("# self time per span name, per traced pass (in-process):");
        for (name, (count, incl, selfns)) in &merged {
            println!(
                "span {name} count={} incl_ms={} self_ms={}",
                *count as f64 / per,
                num(*incl as f64 / 1e6 / per),
                num(*selfns as f64 / 1e6 / per)
            );
        }
        println!("# self time per span name, traced daemon, whole run:");
        for (name, (count, incl, selfns)) in daemon.totals() {
            println!(
                "daemon-span {name} count={count} incl_ms={} self_ms={}",
                num(incl as f64 / 1e6),
                num(selfns as f64 / 1e6)
            );
        }
        let layers: Vec<String> = sheet
            .rows
            .iter()
            .map(|(n, v, u, _)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        println!("# layers {{{}}}", layers.join(", "));
    }
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let value = sheet
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.len(),
        metrics.join(", ")
    );
    Ok(correct)
}
