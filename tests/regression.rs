//! Regression pins: every algorithm is deterministic in its seed, so a
//! handful of exact values freeze the behaviour of the whole pipeline.
//! If a refactor changes any of these, that is a *behaviour* change and
//! must be a conscious decision (update the pins in the same commit).
//!
//! Pins are baselined against the vendored `rand` shim (`vendor/rand`,
//! xoshiro256++ as in rand 0.8.5), measured when the workspace first
//! became buildable.

use mmvc::prelude::*;

const SEED: u64 = 0xC0FFEE;

fn fixture() -> Graph {
    generators::gnp(512, 0.05, SEED).expect("valid p")
}

#[test]
fn pin_graph_generation() {
    let g = fixture();
    assert_eq!(g.num_vertices(), 512);
    assert_eq!(g.num_edges(), 6421);
    assert_eq!(g.max_degree(), 44);
}

#[test]
fn pin_sequential_greedy_mis() {
    let s = mis::randomized_greedy_mis(&fixture(), SEED);
    assert_eq!(s.len(), 63);
}

#[test]
fn pin_mpc_mis() {
    let out = greedy_mpc_mis(&fixture(), &GreedyMisConfig::new(SEED)).unwrap();
    assert_eq!(out.mis.len(), 66);
    assert_eq!(
        out.prefix_phases, 0,
        "deg 44 < log² 512 = 81: no prefix phases"
    );
}

#[test]
fn pin_luby() {
    let out = luby_mis(&fixture(), SEED);
    assert_eq!(out.mis.len(), 71);
    assert_eq!(out.rounds, 5);
}

#[test]
fn pin_central() {
    let eps = Epsilon::new(0.1).unwrap();
    let out = central(&fixture(), eps);
    assert_eq!(out.iterations, 50);
    assert!((out.fractional.weight() - 207.04415).abs() < 1e-4);
    assert_eq!(out.cover.len(), 452);
}

#[test]
fn pin_mpc_simulation() {
    let eps = Epsilon::new(0.1).unwrap();
    let out = mpc_simulation(&fixture(), &MpcMatchingConfig::new(eps, SEED)).unwrap();
    assert_eq!(out.phases, 0, "deg 44 below d_min: direct simulation");
    assert_eq!(out.cover.len(), 478);
    assert!((out.fractional.weight() - 174.63065).abs() < 1e-4);
}

#[test]
fn pin_mpc_mis_invariant_under_executor() {
    // The engine's determinism contract meets the pins: the exact values
    // pinned above must hold under every executor, not just the default.
    use mmvc::substrate::ExecutorConfig;
    for exec in [
        ExecutorConfig::sequential(),
        ExecutorConfig::with_threads(2),
        ExecutorConfig::with_threads(8),
    ] {
        let mut cfg = GreedyMisConfig::new(SEED);
        cfg.executor = exec.clone();
        let out = greedy_mpc_mis(&fixture(), &cfg).unwrap();
        assert_eq!(out.mis.len(), 66, "pin moved under {exec:?}");
    }
}

#[test]
fn pin_clique_mis_invariant_under_executor() {
    use mmvc::substrate::ExecutorConfig;
    let mut baseline = None;
    for exec in [
        ExecutorConfig::sequential(),
        ExecutorConfig::with_threads(2),
        ExecutorConfig::with_threads(8),
    ] {
        let mut cfg = CliqueMisConfig::new(SEED);
        cfg.executor = exec.clone();
        let out = clique_mis(&fixture(), &cfg).unwrap();
        assert_eq!(out.mis.len(), 72);
        match &baseline {
            None => baseline = Some((out.mis.members().to_vec(), out.trace)),
            Some((members, trace)) => {
                assert_eq!(out.mis.members(), &members[..], "members moved");
                assert_eq!(&out.trace, trace, "trace moved under {exec:?}");
            }
        }
    }
}

#[test]
fn pin_local_mis_invariant_under_executor() {
    // The `local-mis` kind drives the sparsified subroutine on the whole
    // graph; its chunked passes must not leak the thread count into the
    // report. n = 4096 spans several executor chunks.
    use mmvc::core::run::{run, AlgorithmKind, RunSpec};
    use mmvc::substrate::ExecutorConfig;
    use mmvc_bench::report_json;
    let mut baseline: Option<String> = None;
    for exec in [
        ExecutorConfig::sequential(),
        ExecutorConfig::with_threads(2),
        ExecutorConfig::with_threads(4),
    ] {
        let mut spec = RunSpec::new(AlgorithmKind::LocalMis, "gnp-sparse");
        spec.n = Some(4096);
        spec.seed = SEED;
        spec.executor = exec.clone();
        let mut report = run(&spec).unwrap();
        assert_eq!(report.witnesses[0].size, 1210, "pin moved under {exec:?}");
        report.wall_ms = 0.0;
        let bytes = report_json(&report).render();
        assert!(bytes.contains("\"process_rounds\": 4"), "{bytes}");
        assert!(bytes.contains("\"residual_edges\": 2209"), "{bytes}");
        match &baseline {
            None => baseline = Some(bytes),
            Some(b) => assert_eq!(&bytes, b, "report moved under {exec:?}"),
        }
    }
}

#[test]
fn pin_integral_matching() {
    let eps = Epsilon::new(0.1).unwrap();
    let out = integral_matching(&fixture(), &IntegralMatchingConfig::new(eps, SEED)).unwrap();
    let opt = matching::blossom(&fixture()).len();
    assert_eq!(opt, 256);
    assert_eq!(out.matching.len(), 246);
}
