//! # mmvc-substrate
//!
//! The shared metering layer under both simulated substrates of the `mmvc`
//! workspace — the from-scratch reproduction of *"Improved Massively
//! Parallel Computation Algorithms for MIS, Matching, and Vertex Cover"*
//! (Ghaffari, Gouleakis, Konrad, Mitrović, Rubinfeld — PODC 2018).
//!
//! The paper states its theorems against **two** models: MPC (machines ×
//! words of memory; Section 1.1.1) and CONGESTED-CLIQUE (per-link
//! bandwidth; Section 1.1.2). Both charge *rounds* and *words*, and every
//! experiment in the harness reports the same three measured quantities
//! against the paper's claims. This crate owns that common vocabulary:
//!
//! * [`Substrate`] — the trait both `mmvc_mpc::Cluster` and
//!   `mmvc_clique::CliqueNetwork` implement: `rounds()`,
//!   `max_load_words()`, `total_words()`, and access to the full
//!   [`ExecutionTrace`];
//! * [`ExecutionTrace`] / [`RoundSummary`] — the unified per-round record;
//! * [`RoundLedger`] — the shared open-round state machine (begin /
//!   charge / end, protocol guards) both simulators are thin policy
//!   wrappers over;
//! * [`ExecutorConfig`] — deterministic sequential/threaded execution of
//!   per-machine and per-player closures (results byte-identical for any
//!   thread count);
//! * [`WorkerPool`] — the streaming counterpart for jobs that arrive
//!   over time (the serving layer's connection pool), under the same
//!   schedule-independence discipline;
//! * [`ScratchPool`] / [`ScratchStats`] — the reusable scratch-buffer
//!   arena the builder, generators and per-round scans draw their
//!   working buffers from (threaded through [`ExecutorConfig`]), with
//!   the allocation counters `bench_scale` reports;
//! * [`Bitset`] — the word-packed membership mask the hot MIS/matching
//!   scans use instead of `Vec<bool>`;
//! * [`Telemetry`] / [`TraceEvent`] — the out-of-band span/counter sink
//!   threaded through the same configs (strictly an observer: report
//!   bytes are pinned byte-identical with telemetry on or off);
//! * [`SubstrateError`] — the substrate-agnostic failure type every
//!   model-specific error converts into.
//!
//! ```
//! use mmvc_substrate::{ExecutionTrace, RoundSummary, Substrate};
//!
//! // Anything carrying an ExecutionTrace is a read-only Substrate.
//! let mut trace = ExecutionTrace::new();
//! trace.record(RoundSummary { round: 1, max_load_words: 8, total_words: 24 });
//!
//! let s: &dyn Substrate = &trace;
//! assert_eq!(s.rounds(), 1);
//! assert_eq!(s.max_load_words(), 8);
//! assert_eq!(s.total_words(), 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod engine;
mod error;
mod executor;
mod pool;
mod scratch;
mod telemetry;
mod trace;

pub use bitset::Bitset;
pub use engine::RoundLedger;
pub use error::SubstrateError;
pub use executor::ExecutorConfig;
pub use pool::{Completions, WorkerPool};
pub use scratch::{ScratchPool, ScratchStats};
pub use telemetry::{EventKind, Span, Telemetry, TraceEvent};
pub use trace::{ExecutionTrace, RoundSummary};

/// A metered execution substrate.
///
/// Implemented by the live simulators (`mmvc_mpc::Cluster`,
/// `mmvc_clique::CliqueNetwork`) and by [`ExecutionTrace`] itself, so the
/// harness can report rounds and loads through one code path whether it
/// holds a live substrate or a finished trace.
pub trait Substrate {
    /// Short name of the model, e.g. `"mpc"` or `"congested-clique"`.
    fn substrate_name(&self) -> &'static str;

    /// The per-round record of the execution so far.
    fn execution_trace(&self) -> &ExecutionTrace;

    /// Number of completed rounds — the complexity measure of both models.
    fn rounds(&self) -> usize {
        self.execution_trace().rounds()
    }

    /// The largest per-machine (MPC) or per-player (clique) load observed
    /// in any round, in words.
    fn max_load_words(&self) -> usize {
        self.execution_trace().max_load_words()
    }

    /// Total words communicated over the whole execution.
    fn total_words(&self) -> usize {
        self.execution_trace().total_words()
    }
}

impl Substrate for ExecutionTrace {
    fn substrate_name(&self) -> &'static str {
        "trace"
    }

    fn execution_trace(&self) -> &ExecutionTrace {
        self
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn executor_results_independent_of_thread_count(
            tasks in 0usize..200,
            threads in 1usize..12,
            salt: u64
        ) {
            let work = |i: usize| (i as u64).wrapping_mul(salt ^ 0x9E37_79B9_7F4A_7C15);
            let seq = ExecutorConfig::sequential().run(tasks, work);
            let par = ExecutorConfig::with_threads(threads).run(tasks, work);
            prop_assert_eq!(seq, par);
        }

        #[test]
        fn chunked_reductions_independent_of_thread_count(
            items in 0usize..2000,
            chunk in 1usize..300,
            threads in 1usize..12
        ) {
            // Per-chunk partials must match the sequential decomposition
            // exactly — the property every deterministic port relies on.
            let work = |r: std::ops::Range<usize>| r.map(|i| i * 3 + 1).sum::<usize>();
            let seq = ExecutorConfig::sequential().run_chunked(items, chunk, work);
            let par = ExecutorConfig::with_threads(threads).run_chunked(items, chunk, work);
            prop_assert_eq!(&seq, &par);
            prop_assert_eq!(seq.len(), items.div_ceil(chunk));
        }

        #[test]
        fn ledger_totals_match_charges(
            charges in proptest::collection::vec((0usize..4, 0usize..50), 0..40)
        ) {
            let mut l = RoundLedger::new("prop", 4);
            l.begin_round().unwrap();
            let mut expect = 0usize;
            for &(slot, words) in &charges {
                l.charge(slot, words).unwrap();
                expect += words;
            }
            let s = l.end_round().unwrap();
            prop_assert_eq!(s.total_words, expect);
            prop_assert!(s.max_load_words <= expect);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_substrate() {
        let mut t = ExecutionTrace::new();
        t.record(RoundSummary {
            round: 1,
            max_load_words: 5,
            total_words: 11,
        });
        t.record(RoundSummary {
            round: 2,
            max_load_words: 9,
            total_words: 2,
        });
        let s: &dyn Substrate = &t;
        assert_eq!(s.substrate_name(), "trace");
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.max_load_words(), 9);
        assert_eq!(s.total_words(), 13);
        assert_eq!(s.execution_trace().per_round().len(), 2);
    }
}
