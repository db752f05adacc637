//! The sparsified MIS subroutine: Ghaffari's local MIS process.
//!
//! Theorem 2.1 of the paper (quoting \[Gha17\]) supplies an
//! `O(log log Δ)`-round CONGESTED-CLIQUE MIS for graphs of
//! polylogarithmic degree, used as the second stage of the Theorem 1.1
//! algorithm once the greedy rank-prefix phases have thinned the graph.
//!
//! **Substitution (recorded in DESIGN.md):** we implement the *local
//! process* underlying that result — Ghaffari's SODA'16 desire-level MIS
//! dynamics. Every vertex maintains a desire level `p_v` (initially
//! `1/2`); per round it marks itself with probability `p_v`, joins the MIS
//! if no neighbor is marked, and halves (resp. doubles, capped at `1/2`)
//! its desire level according to whether its *effective degree*
//! `Σ_{u ∈ N(v)} p_u` is at least 2. For Δ = polylog(n) the process
//! shatters the graph within `O(log Δ) = O(log log n)` rounds w.h.p.,
//! after which the paper's algorithms gather the `O(n)`-edge residue onto
//! one machine. Each round uses one exchange of marks with neighbors, so
//! it costs `O(1)` rounds in both MPC and CONGESTED-CLIQUE — the only
//! properties the paper needs from the black box.
//!
//! ### Frontier loop
//!
//! A round does work proportional to the *undecided* vertices and their
//! edges, not to `n` or `|E|`. The loop keeps a `live` frontier (the undecided vertices,
//! ascending, compacted every round) and one packed state byte per vertex
//! — decided bit, marked bit, and the 6-bit level `k_v` with
//! `p_v = 2^{-k_v}`. Desire levels come from a 256-entry table indexed by
//! the state byte (`0.0` for a decided vertex), so no `powi` runs in the
//! hot loop. A round is three read-only passes over fixed
//! [`PAR_CHUNK`]-sized chunks, run through the executor, each followed by
//! a sequential write-back:
//!
//! 1. **mark** — live vertices draw their marks;
//! 2. **join** — marked vertices with no marked neighbor join the MIS,
//!    and the writes decide them and their neighbors;
//! 3. **settle** — every live vertex *pulls* its effective degree over
//!    its sorted neighbor list, is absorbed into the MIS if it has no
//!    undecided neighbor, and otherwise moves its level; the same pass
//!    counts the residual edges from each vertex's larger undecided
//!    neighbors.
//!
//! The output is bit-identical to the straightforward formulation (a scan
//! of all `n` vertices for joins and absorption, and an effective-degree
//! *push* along the lexicographic edge list — kept as the test oracle)
//! under any executor, for two reasons:
//!
//! * **Absorption is order-independent.** An absorbed vertex has no
//!   undecided neighbor, so it is nobody's undecided neighbor: deciding
//!   it changes no other vertex's effective degree, absorption test or
//!   residual count. Absorbing in the settle pass, alongside the level
//!   updates, is therefore the same as a sequential sweep before them.
//! * **Neighbor lists are sorted.** The lexicographic push adds the
//!   `2^{-k_u}` terms into `v`'s sum in ascending order of `u`; the pull
//!   walks `N(v)` in the same order (adding an exact `0.0` for decided
//!   neighbors, which leaves a non-negative sum unchanged), so every
//!   `f64` sum, and every `≥ 2` comparison, is the same.
//!
//! Every other value a pass returns is a per-vertex list concatenated in
//! chunk order or an integer sum, so no result depends on the thread
//! count.

use crate::PAR_CHUNK;
use mmvc_graph::rng::hash3_unit;
use mmvc_graph::{Graph, VertexId};
use mmvc_substrate::ExecutorConfig;

/// Configuration for [`ghaffari_local_mis`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocalMisConfig {
    /// Seed for the per-round marking randomness.
    pub seed: u64,
    /// Maximum rounds to run (the callers use `O(log Δ)`).
    pub max_rounds: usize,
    /// Stop early once the number of edges among undecided vertices drops
    /// to this target (the "gather the rest onto one machine" threshold).
    pub target_edges: usize,
    /// How the per-round scans execute (results are identical for any
    /// executor; see [`ExecutorConfig`]).
    pub executor: ExecutorConfig,
}

/// Output of [`ghaffari_local_mis`].
#[derive(Debug, Clone)]
pub struct LocalMisOutcome {
    /// Vertices that joined the MIS.
    pub in_mis: Vec<bool>,
    /// Vertices decided either way (in MIS, or removed as an MIS
    /// neighbor). Undecided vertices form the residual graph.
    pub decided: Vec<bool>,
    /// Rounds executed.
    pub rounds: usize,
    /// Edges among undecided vertices when the process stopped.
    pub residual_edges: usize,
}

/// State-byte flag: the vertex is decided (in the MIS or dominated).
const DECIDED: u8 = 0x80;
/// State-byte flag: the vertex marked itself this round.
const MARKED: u8 = 0x40;
/// State-byte mask of the desire level `k_v` (`p_v = 2^{-k_v}`).
const LEVEL: u8 = 0x3F;
/// Largest desire level (`p_v ≥ 2^{-60}`).
const MAX_LEVEL: u8 = 60;

/// The desire level `p_v` a state byte contributes to its neighbors'
/// effective degrees: `2^{-k_v}`, or `0.0` once the vertex is decided.
fn desire_table() -> [f64; 256] {
    std::array::from_fn(|s| {
        let s = s as u8;
        if s & DECIDED != 0 {
            0.0
        } else {
            0.5f64.powi(i32::from(s & LEVEL))
        }
    })
}

/// Runs Ghaffari's desire-level local MIS process on the subgraph of `g`
/// induced by `active` (callers pass the not-yet-decided vertices).
///
/// Stops after `max_rounds` rounds or once the residual graph has at most
/// `target_edges` edges, whichever comes first. Vertices that join the MIS
/// and their neighbors are *decided*; the caller finishes the residue
/// (e.g. on a single machine).
///
/// # Panics
///
/// Panics if `active.len() != g.num_vertices()`.
pub fn ghaffari_local_mis(g: &Graph, active: &[bool], config: &LocalMisConfig) -> LocalMisOutcome {
    assert_eq!(active.len(), g.num_vertices(), "mask length must equal n");
    let n = g.num_vertices();
    let exec = &config.executor;
    let desire = desire_table();
    let mut in_mis = vec![false; n];
    // Every active vertex starts undecided at level 1 (p_v = 1/2).
    let mut state: Vec<u8> = active
        .iter()
        .map(|&a| if a { 1 } else { DECIDED })
        .collect();
    let mut live = exec.take_u32(n);
    live.extend((0..n as VertexId).filter(|&v| active[v as usize]));

    // Undecided vertices whose neighbors are all decided can always join;
    // the settle pass absorbs them before and during the marking rounds.
    let mut residual_edges = settle(g, exec, &desire, &mut live, &mut state, &mut in_mis, false);

    let mut rounds = 0usize;
    while rounds < config.max_rounds && residual_edges > config.target_edges {
        // Mark each undecided vertex with probability p_v.
        let marked = collect_chunks(exec, live.len(), |range| {
            live[range]
                .iter()
                .copied()
                .filter(|&v| {
                    hash3_unit(config.seed, rounds as u64, u64::from(v))
                        < desire[usize::from(state[v as usize])]
                })
                .collect()
        });
        for &v in &marked {
            state[v as usize] |= MARKED;
        }

        // A marked vertex with no marked neighbor joins the MIS (every
        // marked vertex is undecided).
        let joins = collect_chunks(exec, marked.len(), |range| {
            marked[range]
                .iter()
                .copied()
                .filter(|&v| {
                    !g.neighbors(v)
                        .iter()
                        .any(|&u| state[u as usize] & MARKED != 0)
                })
                .collect()
        });
        // No mark needs clearing: the settle pass below rewrites every live
        // state byte, and a marked vertex that got decided is a joiner (a
        // marked neighbor of a joiner would have blocked it), whose
        // neighbors are all decided, so no pass reads its stale mark.
        for &v in &joins {
            in_mis[v as usize] = true;
            state[v as usize] |= DECIDED;
            for &u in g.neighbors(v) {
                state[u as usize] |= DECIDED;
            }
        }
        live.retain(|&v| state[v as usize] & DECIDED == 0);

        residual_edges = settle(g, exec, &desire, &mut live, &mut state, &mut in_mis, true);
        rounds += 1;
    }

    let decided = state.iter().map(|&s| s & DECIDED != 0).collect();
    exec.recycle_u32(live);
    LocalMisOutcome {
        in_mis,
        decided,
        rounds,
        residual_edges,
    }
}

/// Runs `work` over fixed [`PAR_CHUNK`]-sized chunks of `0..items` and
/// concatenates the per-chunk vertex lists in chunk order.
fn collect_chunks<F>(exec: &ExecutorConfig, items: usize, work: F) -> Vec<VertexId>
where
    F: Fn(std::ops::Range<usize>) -> Vec<VertexId> + Sync,
{
    exec.run_chunked(items, PAR_CHUNK, work)
        .into_iter()
        .flatten()
        .collect()
}

/// The settle pass over the (all undecided) `live` frontier: absorbs
/// every vertex without an undecided neighbor into the MIS, moves the
/// desire level of every other vertex when `update_levels` is set, drops
/// the absorbed vertices from `live`, and returns the number of edges
/// left among undecided vertices.
///
/// Per vertex, the pass pulls the effective degree `Σ 2^{-k_u}` over the
/// sorted neighbor list — the order the lexicographic edge push used.
fn settle(
    g: &Graph,
    exec: &ExecutorConfig,
    desire: &[f64; 256],
    live: &mut Vec<VertexId>,
    state: &mut [u8],
    in_mis: &mut [bool],
    update_levels: bool,
) -> usize {
    let chunks = exec.run_chunked(live.len(), PAR_CHUNK, |range| {
        let mut residual = 0usize;
        let next: Vec<u8> = live[range]
            .iter()
            .map(|&v| {
                let mut eff = 0.0f64;
                let mut undecided = 0usize;
                let mut forward = 0usize;
                for &u in g.neighbors(v) {
                    let s = state[u as usize];
                    eff += desire[usize::from(s)];
                    let open = usize::from(s & DECIDED == 0);
                    undecided += open;
                    forward += open & usize::from(u > v);
                }
                residual += forward;
                let level = state[v as usize] & LEVEL;
                if undecided == 0 {
                    DECIDED
                } else if !update_levels {
                    level
                } else if eff >= 2.0 {
                    (level + 1).min(MAX_LEVEL)
                } else {
                    level.saturating_sub(1).max(1)
                }
            })
            .collect();
        (next, residual)
    });
    let mut residual_edges = 0usize;
    let mut absorbed = false;
    for (block, (next, residual)) in live.chunks(PAR_CHUNK).zip(chunks) {
        residual_edges += residual;
        for (&v, s) in block.iter().zip(next) {
            if s == DECIDED {
                in_mis[v as usize] = true;
                absorbed = true;
            }
            state[v as usize] = s;
        }
    }
    if absorbed {
        live.retain(|&v| state[v as usize] & DECIDED == 0);
    }
    residual_edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_graph::generators;
    use mmvc_graph::mis::IndependentSet;
    use mmvc_graph::rng::hash2;

    /// The straightforward formulation of the process, kept only as the
    /// oracle for the frontier loop: every round scans all `n` vertices for
    /// marks, joins and absorption, and pushes effective degrees along the
    /// lexicographic edge list.
    fn reference_local_mis(g: &Graph, active: &[bool], config: &LocalMisConfig) -> LocalMisOutcome {
        assert_eq!(active.len(), g.num_vertices(), "mask length must equal n");
        let n = g.num_vertices();
        let mut in_mis = vec![false; n];
        let mut decided: Vec<bool> = (0..n).map(|v| !active[v]).collect();
        // Desire levels, as exponents: p_v = 2^{-k_v}, k_v >= 1.
        let mut level = vec![1u32; n];

        let residual_edge_count = |decided: &[bool]| -> usize {
            g.edges()
                .iter()
                .filter(|e| !decided[e.u() as usize] && !decided[e.v() as usize])
                .count()
        };

        // Undecided vertices whose neighbors are all decided can always join;
        // sweep before, during, and after the marking rounds.
        let absorb_isolated = |in_mis: &mut Vec<bool>, decided: &mut Vec<bool>| {
            for v in 0..n as u32 {
                if !decided[v as usize] && g.neighbors(v).iter().all(|&u| decided[u as usize]) {
                    in_mis[v as usize] = true;
                    decided[v as usize] = true;
                }
            }
        };
        absorb_isolated(&mut in_mis, &mut decided);

        let mut rounds = 0usize;
        let mut residual_edges = residual_edge_count(&decided);
        while rounds < config.max_rounds && residual_edges > config.target_edges {
            // Mark each undecided vertex with probability p_v.
            let marked: Vec<bool> = (0..n)
                .map(|v| {
                    !decided[v]
                        && hash3_unit(config.seed, rounds as u64, v as u64)
                            < 0.5f64.powi(level[v] as i32)
                })
                .collect();

            // A marked vertex with no marked undecided neighbor joins the MIS.
            let mut joins: Vec<VertexId> = Vec::new();
            for v in 0..n as u32 {
                if !marked[v as usize] || decided[v as usize] {
                    continue;
                }
                let blocked = g
                    .neighbors(v)
                    .iter()
                    .any(|&u| marked[u as usize] && !decided[u as usize]);
                if !blocked {
                    joins.push(v);
                }
            }
            for v in joins {
                in_mis[v as usize] = true;
                decided[v as usize] = true;
                for &u in g.neighbors(v) {
                    decided[u as usize] = true;
                }
            }

            absorb_isolated(&mut in_mis, &mut decided);

            // Desire-level update from effective degrees.
            let mut eff = vec![0.0f64; n];
            for e in g.edges() {
                let (u, v) = (e.u() as usize, e.v() as usize);
                if !decided[u] && !decided[v] {
                    eff[u] += 0.5f64.powi(level[v] as i32);
                    eff[v] += 0.5f64.powi(level[u] as i32);
                }
            }
            for v in 0..n {
                if decided[v] {
                    continue;
                }
                if eff[v] >= 2.0 {
                    level[v] = (level[v] + 1).min(60);
                } else {
                    level[v] = level[v].saturating_sub(1).max(1);
                }
            }

            rounds += 1;
            residual_edges = residual_edge_count(&decided);
        }
        absorb_isolated(&mut in_mis, &mut decided);

        LocalMisOutcome {
            in_mis,
            decided,
            rounds,
            residual_edges,
        }
    }

    fn run_to_completion(g: &Graph, seed: u64) -> LocalMisOutcome {
        let cfg = LocalMisConfig {
            seed,
            max_rounds: 10_000,
            target_edges: 0,
            executor: ExecutorConfig::sequential(),
        };
        let active = vec![true; g.num_vertices()];
        ghaffari_local_mis(g, &active, &cfg)
    }

    #[test]
    fn produces_independent_set() {
        for seed in 0..5u64 {
            let g = generators::gnp(200, 0.05, seed).unwrap();
            let out = run_to_completion(&g, seed);
            let members: Vec<u32> = (0..g.num_vertices() as u32)
                .filter(|&v| out.in_mis[v as usize])
                .collect();
            let is = IndependentSet::new(&g, members).expect("must be independent");
            // With target_edges = 0 and generous rounds, everything decides;
            // undecided-free means the set is maximal.
            assert_eq!(out.residual_edges, 0);
            assert!(out.decided.iter().all(|&d| d));
            assert!(is.is_maximal(&g), "seed {seed}");
        }
    }

    #[test]
    fn respects_active_mask() {
        let g = generators::complete(6);
        let mut active = vec![true; 6];
        active[0] = false;
        active[1] = false;
        let cfg = LocalMisConfig {
            seed: 1,
            max_rounds: 1000,
            target_edges: 0,
            executor: ExecutorConfig::sequential(),
        };
        let out = ghaffari_local_mis(&g, &active, &cfg);
        assert!(
            !out.in_mis[0] && !out.in_mis[1],
            "inactive vertices never join"
        );
        // Exactly one of the 4 active vertices joins (clique).
        let joined = out.in_mis.iter().filter(|&&b| b).count();
        assert_eq!(joined, 1);
    }

    #[test]
    fn round_budget_respected() {
        let g = generators::gnp(300, 0.1, 2).unwrap();
        let cfg = LocalMisConfig {
            seed: 2,
            max_rounds: 3,
            target_edges: 0,
            executor: ExecutorConfig::sequential(),
        };
        let out = ghaffari_local_mis(&g, &vec![true; 300], &cfg);
        assert!(out.rounds <= 3);
    }

    #[test]
    fn target_edges_early_exit() {
        let g = generators::gnp(300, 0.1, 3).unwrap();
        let target = g.num_edges() / 2;
        let cfg = LocalMisConfig {
            seed: 3,
            max_rounds: 10_000,
            target_edges: target,
            executor: ExecutorConfig::sequential(),
        };
        let out = ghaffari_local_mis(&g, &vec![true; 300], &cfg);
        assert!(out.residual_edges <= target);
    }

    #[test]
    fn shatters_low_degree_graph_quickly() {
        // Δ = polylog: the process should decide almost everything within
        // O(log Δ) rounds — allow a generous constant.
        let g = generators::gnp(2000, 4.0 / 2000.0, 4).unwrap(); // avg deg 4
        let cfg = LocalMisConfig {
            seed: 4,
            max_rounds: 40,
            target_edges: 0,
            executor: ExecutorConfig::sequential(),
        };
        let out = ghaffari_local_mis(&g, &vec![true; 2000], &cfg);
        let undecided = out.decided.iter().filter(|&&d| !d).count();
        assert!(
            undecided * 10 <= 2000,
            "only {undecided} of 2000 undecided expected fewer"
        );
    }

    #[test]
    fn empty_and_edgeless() {
        let g = Graph::empty(5);
        let out = run_to_completion(&g, 0);
        assert!(out.in_mis.iter().all(|&b| b), "all isolated vertices join");
        assert_eq!(out.rounds, 0, "no residual edges, loop never runs");
    }

    use mmvc_graph::Graph;

    #[test]
    fn deterministic() {
        let g = generators::gnp(150, 0.08, 5).unwrap();
        let a = run_to_completion(&g, 9);
        let b = run_to_completion(&g, 9);
        assert_eq!(a.in_mis, b.in_mis);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn frontier_loop_matches_reference() {
        // Graphs span several PAR_CHUNK chunks so the threaded executors
        // really split the passes.
        let graphs = [
            generators::gnp(3000, 8.0 / 3000.0, 21).unwrap(),
            generators::power_law(3000, 2.5, 10.0, 22).unwrap(),
            generators::star(3000),
            generators::complete(80),
            generators::cycle(3001),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.num_vertices();
            let masks = [
                vec![true; n],
                (0..n as u64)
                    .map(|v| !hash2(gi as u64, v).is_multiple_of(3))
                    .collect(),
            ];
            for (mi, active) in masks.iter().enumerate() {
                for (max_rounds, target_edges) in [(10_000, 0), (3, 0), (10_000, g.num_edges() / 2)]
                {
                    let cfg = LocalMisConfig {
                        seed: 40 + gi as u64,
                        max_rounds,
                        target_edges,
                        executor: ExecutorConfig::sequential(),
                    };
                    let want = reference_local_mis(g, active, &cfg);
                    for executor in [
                        ExecutorConfig::sequential(),
                        ExecutorConfig::with_threads(2),
                        ExecutorConfig::with_threads(4),
                    ] {
                        let ctx = format!("graph {gi} mask {mi} rounds {max_rounds} target {target_edges} {executor:?}");
                        let got = ghaffari_local_mis(
                            g,
                            active,
                            &LocalMisConfig {
                                executor,
                                ..cfg.clone()
                            },
                        );
                        assert_eq!(got.in_mis, want.in_mis, "in_mis: {ctx}");
                        assert_eq!(got.decided, want.decided, "decided: {ctx}");
                        assert_eq!(got.rounds, want.rounds, "rounds: {ctx}");
                        assert_eq!(got.residual_edges, want.residual_edges, "residual: {ctx}");
                    }
                }
            }
        }
    }
}
