//! The simulated MPC cluster: synchronous rounds with per-machine memory
//! metering.
//!
//! The simulator does not execute machines on separate hosts — the
//! algorithms run locally — but it *meters* the model quantities exactly:
//! every word a machine receives or holds in a round is charged against its
//! budget, and the trace records rounds, loads, and total communication.
//! Exceeding a budget is a hard [`MpcError::MemoryExceeded`] error, so the
//! paper's "O(n) memory per machine" claims are *checked*, not assumed.
//!
//! The round lifecycle itself (open/charge/close, protocol guards) is the
//! shared [`RoundLedger`] of `mmvc-substrate`; this type adds the MPC
//! *policy* — a slot is a machine, and every charge is checked against the
//! per-machine memory budget. Per-machine local computation runs through
//! the deterministic [`ExecutorConfig`] (see
//! [`Cluster::parallel_round`]).

use crate::config::MpcConfig;
use crate::error::MpcError;
use mmvc_substrate::{ExecutionTrace, ExecutorConfig, RoundLedger, RoundSummary, Substrate};

/// A simulated MPC cluster (paper, Section 1.1.1).
///
/// Usage follows the model's structure: open a round, charge the words each
/// machine receives/holds, close the round. The convenience wrapper
/// [`Cluster::round`] scopes this with a closure.
///
/// # Examples
///
/// ```
/// use mmvc_mpc::{Cluster, MpcConfig, Substrate};
///
/// let mut cluster = Cluster::new(MpcConfig::new(4, 1000)?);
/// cluster.round(|r| {
///     r.receive(0, 800)?; // machine 0 receives 800 words
///     r.broadcast(10)?;   // every machine receives 10 words
///     Ok(())
/// })?;
/// assert_eq!(cluster.rounds(), 1);
/// assert_eq!(cluster.max_load_words(), 810);
/// # Ok::<(), mmvc_mpc::MpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    config: MpcConfig,
    ledger: RoundLedger,
    executor: ExecutorConfig,
}

/// Handle for charging memory within one open round; created by
/// [`Cluster::round`].
#[derive(Debug)]
pub struct RoundCtx<'a> {
    cluster: &'a mut Cluster,
}

impl Cluster {
    /// Creates a cluster with the given configuration and the default
    /// (threaded, auto-sized) executor.
    pub fn new(config: MpcConfig) -> Self {
        Cluster {
            ledger: RoundLedger::new("mpc", config.num_machines()),
            config,
            executor: ExecutorConfig::default(),
        }
    }

    /// Replaces the executor used by [`Cluster::parallel_round`].
    ///
    /// The thread count is resolved when the [`ExecutorConfig`] is built,
    /// never per round, and results are identical for any executor.
    #[must_use]
    pub fn with_executor(mut self, executor: ExecutorConfig) -> Self {
        // The executor carries the run's telemetry sink; rounds metered
        // by this cluster report their spans into the same sink.
        self.ledger.set_telemetry(executor.telemetry());
        self.executor = executor;
        self
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// The executor running per-machine closures.
    pub fn executor(&self) -> &ExecutorConfig {
        &self.executor
    }

    /// Opens a new round.
    ///
    /// # Errors
    ///
    /// [`MpcError::Substrate`] (round protocol) if a round is already
    /// open.
    pub fn begin_round(&mut self) -> Result<(), MpcError> {
        self.ledger.begin_round()?;
        Ok(())
    }

    /// Charges `words` received/held by `machine` in the open round.
    ///
    /// # Errors
    ///
    /// * [`MpcError::Substrate`] (round protocol) if no round is open.
    /// * [`MpcError::NoSuchMachine`] for an invalid machine id.
    /// * [`MpcError::MemoryExceeded`] if the charge would exceed the
    ///   machine's budget.
    pub fn receive(&mut self, machine: usize, words: usize) -> Result<(), MpcError> {
        let budget = self.config.words_per_machine();
        let attempted = self.ledger.load(machine)? + words;
        if attempted > budget {
            return Err(MpcError::MemoryExceeded {
                machine,
                round: self.ledger.current_round(),
                attempted_words: attempted,
                budget_words: budget,
            });
        }
        self.ledger.charge(machine, words)?;
        Ok(())
    }

    /// Charges `words` received by *every* machine (a broadcast).
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::receive`].
    pub fn broadcast(&mut self, words: usize) -> Result<(), MpcError> {
        for machine in 0..self.config.num_machines() {
            self.receive(machine, words)?;
        }
        Ok(())
    }

    /// Closes the open round and records its summary.
    ///
    /// # Errors
    ///
    /// [`MpcError::Substrate`] (round protocol) if no round is open.
    pub fn end_round(&mut self) -> Result<RoundSummary, MpcError> {
        Ok(self.ledger.end_round()?)
    }

    /// Runs `f` inside a fresh round, closing it afterwards.
    ///
    /// If `f` fails, the round is abandoned (not recorded) and the error is
    /// propagated.
    ///
    /// # Errors
    ///
    /// Propagates protocol and budget errors from `f` or round management.
    pub fn round<T>(
        &mut self,
        f: impl FnOnce(&mut RoundCtx<'_>) -> Result<T, MpcError>,
    ) -> Result<T, MpcError> {
        self.begin_round()?;
        let mut ctx = RoundCtx { cluster: self };
        match f(&mut ctx) {
            Ok(value) => {
                self.end_round()?;
                Ok(value)
            }
            Err(e) => {
                self.ledger.abandon_round();
                Err(e)
            }
        }
    }

    /// Records `k` rounds of an abstracted constant-round primitive (e.g.
    /// the "standard techniques" of \[GSZ11\] the paper invokes for sorting /
    /// aggregation), charging `load_words` to every machine per round.
    ///
    /// # Errors
    ///
    /// [`MpcError::MemoryExceeded`] if `load_words` exceeds the budget;
    /// [`MpcError::Substrate`] (round protocol) if a round is already
    /// open.
    pub fn charge_rounds(&mut self, k: usize, load_words: usize) -> Result<(), MpcError> {
        for _ in 0..k {
            self.begin_round()?;
            self.broadcast(load_words)?;
            self.end_round()?;
        }
        Ok(())
    }

    /// Merges the trace of a nested computation (e.g. a subroutine run on
    /// its own cluster handle) into this cluster's trace.
    pub fn absorb_trace(&mut self, other: &ExecutionTrace) {
        self.ledger.absorb(other);
    }

    /// Executes one round in which every machine `0..k` runs `work`
    /// through the cluster's [`ExecutorConfig`], then charges each machine
    /// the words its closure reports.
    ///
    /// `work(machine)` returns `(output, words_received)`. This is the
    /// "local computation" step of the MPC model executed with real
    /// parallelism; metering semantics are identical to calling
    /// [`Cluster::receive`] per machine inside a [`Cluster::round`], and
    /// the outputs are identical for any executor (results land in
    /// machine-indexed slots; tiny rounds degrade to the sequential path).
    ///
    /// # Errors
    ///
    /// * [`MpcError::NoSuchMachine`] if `k` exceeds the cluster size.
    /// * [`MpcError::MemoryExceeded`] if any reported load overflows its
    ///   machine's budget — the round is then abandoned (not recorded).
    /// * [`MpcError::Substrate`] (round protocol) if a round is already
    ///   open.
    ///
    /// # Examples
    ///
    /// ```
    /// use mmvc_mpc::{Cluster, MpcConfig, Substrate};
    /// let mut cluster = Cluster::new(MpcConfig::new(4, 1000)?);
    /// let sums = cluster.parallel_round(4, |m| {
    ///     let local_sum: usize = (0..100).map(|i| i * (m + 1)).sum();
    ///     (local_sum, 100) // each machine received 100 words
    /// })?;
    /// assert_eq!(sums.len(), 4);
    /// assert_eq!(cluster.max_load_words(), 100);
    /// # Ok::<(), mmvc_mpc::MpcError>(())
    /// ```
    pub fn parallel_round<T, F>(&mut self, k: usize, work: F) -> Result<Vec<T>, MpcError>
    where
        T: Send,
        F: Fn(usize) -> (T, usize) + Sync,
    {
        if k > self.config.num_machines() {
            return Err(MpcError::NoSuchMachine {
                machine: k.saturating_sub(1),
                num_machines: self.config.num_machines(),
            });
        }
        self.ledger.ensure_no_open_round()?;
        let results = self.executor.run(k, &work);
        self.begin_round()?;
        let mut outputs = Vec::with_capacity(k);
        for (machine, (out, words)) in results.into_iter().enumerate() {
            if let Err(e) = self.receive(machine, words) {
                self.ledger.abandon_round(); // abandon the partially charged round
                return Err(e);
            }
            outputs.push(out);
        }
        self.end_round()?;
        Ok(outputs)
    }
}

impl Substrate for Cluster {
    fn substrate_name(&self) -> &'static str {
        "mpc"
    }

    fn execution_trace(&self) -> &ExecutionTrace {
        self.ledger.trace()
    }
}

impl RoundCtx<'_> {
    /// Charges `words` to `machine`; see [`Cluster::receive`].
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::receive`].
    pub fn receive(&mut self, machine: usize, words: usize) -> Result<(), MpcError> {
        self.cluster.receive(machine, words)
    }

    /// Charges a broadcast; see [`Cluster::broadcast`].
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::broadcast`].
    pub fn broadcast(&mut self, words: usize) -> Result<(), MpcError> {
        self.cluster.broadcast(words)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MpcConfig {
        self.cluster.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmvc_substrate::SubstrateError;

    fn small() -> Cluster {
        Cluster::new(MpcConfig::new(3, 100).unwrap())
    }

    fn is_round_protocol(e: &MpcError) -> bool {
        matches!(e, MpcError::Substrate(SubstrateError::RoundProtocol { .. }))
    }

    #[test]
    fn basic_round_lifecycle() {
        let mut c = small();
        c.begin_round().unwrap();
        c.receive(0, 40).unwrap();
        c.receive(0, 40).unwrap();
        c.receive(2, 10).unwrap();
        let s = c.end_round().unwrap();
        assert_eq!(s.round, 1);
        assert_eq!(s.max_load_words, 80);
        assert_eq!(s.total_words, 90);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn memory_budget_enforced() {
        let mut c = small();
        c.begin_round().unwrap();
        c.receive(1, 99).unwrap();
        let err = c.receive(1, 2).unwrap_err();
        assert_eq!(
            err,
            MpcError::MemoryExceeded {
                machine: 1,
                round: 1,
                attempted_words: 101,
                budget_words: 100
            }
        );
    }

    #[test]
    fn protocol_violations() {
        let mut c = small();
        assert!(is_round_protocol(&c.receive(0, 1).unwrap_err()));
        assert!(is_round_protocol(&c.end_round().unwrap_err()));
        c.begin_round().unwrap();
        assert!(is_round_protocol(&c.begin_round().unwrap_err()));
    }

    #[test]
    fn no_such_machine() {
        let mut c = small();
        c.begin_round().unwrap();
        assert_eq!(
            c.receive(3, 1).unwrap_err(),
            MpcError::NoSuchMachine {
                machine: 3,
                num_machines: 3
            }
        );
    }

    #[test]
    fn round_closure_records_on_success() {
        let mut c = small();
        let out = c.round(|r| {
            r.receive(0, 5)?;
            Ok(7)
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn round_closure_abandons_on_failure() {
        let mut c = small();
        let out: Result<(), _> = c.round(|r| r.receive(0, 1000));
        assert!(matches!(out, Err(MpcError::MemoryExceeded { .. })));
        assert_eq!(c.rounds(), 0, "failed round not recorded");
        // The cluster is reusable afterwards.
        c.round(|r| r.receive(0, 1)).unwrap();
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn broadcast_charges_everyone() {
        let mut c = small();
        c.round(|r| r.broadcast(30)).unwrap();
        let s = c.execution_trace().per_round()[0];
        assert_eq!(s.max_load_words, 30);
        assert_eq!(s.total_words, 90);
    }

    #[test]
    fn charge_rounds_counts() {
        let mut c = small();
        c.charge_rounds(4, 10).unwrap();
        assert_eq!(c.rounds(), 4);
        assert_eq!(c.total_words(), 4 * 3 * 10);
    }

    #[test]
    fn charge_rounds_budget_enforced() {
        let mut c = small();
        assert!(matches!(
            c.charge_rounds(1, 101),
            Err(MpcError::MemoryExceeded { .. })
        ));
    }

    #[test]
    fn parallel_round_outputs_in_machine_order() {
        let mut c = Cluster::new(MpcConfig::new(8, 100).unwrap());
        let out = c.parallel_round(8, |m| (m * 10, m)).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        let s = c.execution_trace().per_round()[0];
        assert_eq!(s.max_load_words, 7);
        assert_eq!(s.total_words, 28);
    }

    #[test]
    fn parallel_round_identical_for_any_executor() {
        let work = |m: usize| (m.wrapping_mul(0x9E37_79B9), m % 5);
        let mut expect: Option<(Vec<usize>, ExecutionTrace)> = None;
        for exec in [
            ExecutorConfig::sequential(),
            ExecutorConfig::with_threads(2),
            ExecutorConfig::with_threads(8),
        ] {
            let mut c = Cluster::new(MpcConfig::new(16, 100).unwrap()).with_executor(exec);
            let out = c.parallel_round(16, work).unwrap();
            let trace = c.execution_trace().clone();
            match &expect {
                None => expect = Some((out, trace)),
                Some((o, t)) => {
                    assert_eq!(&out, o);
                    assert_eq!(&trace, t);
                }
            }
        }
    }

    #[test]
    fn parallel_round_budget_enforced_and_abandoned() {
        let mut c = small();
        let r = c.parallel_round(3, |m| ((), if m == 2 { 1000 } else { 1 }));
        assert!(matches!(
            r,
            Err(MpcError::MemoryExceeded { machine: 2, .. })
        ));
        assert_eq!(c.rounds(), 0, "failed round not recorded");
        // Cluster usable afterwards.
        c.parallel_round(3, |_| ((), 1)).unwrap();
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn parallel_round_rejects_too_many_machines() {
        let mut c = small();
        assert!(matches!(
            c.parallel_round(4, |_| ((), 0)),
            Err(MpcError::NoSuchMachine { .. })
        ));
    }

    #[test]
    fn parallel_round_zero_machines() {
        let mut c = small();
        let out: Vec<()> = c.parallel_round(0, |_| ((), 0)).unwrap();
        assert!(out.is_empty());
        assert_eq!(c.rounds(), 1, "an empty round still advances the clock");
    }

    #[test]
    fn cluster_is_a_substrate() {
        let mut c = small();
        c.round(|r| {
            r.receive(0, 40)?;
            r.receive(1, 10)
        })
        .unwrap();
        c.round(|r| r.receive(2, 25)).unwrap();
        let s: &dyn Substrate = &c;
        assert_eq!(s.substrate_name(), "mpc");
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.max_load_words(), 40);
        assert_eq!(s.total_words(), 75);
    }

    #[test]
    fn parallel_round_actually_runs_concurrently_safe() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let mut c = Cluster::new(MpcConfig::new(16, 10).unwrap());
        c.parallel_round(16, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            ((), 1)
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
