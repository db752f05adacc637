//! The simulated CONGESTED-CLIQUE network (paper, Section 1.1.2).
//!
//! In the model (Lotker–Pavlov–Patt-Shamir–Peleg), `n` players
//! communicate in synchronous rounds; in each round every ordered pair of
//! players can exchange `O(log n)` bits (one *word* here). Besides
//! point-to-point sends, the paper's algorithms rely on **Lenzen's routing
//! scheme** \[Len13\]: any routing instance where each player sends and
//! receives at most `n` words completes in `O(1)` rounds. The simulator
//! *checks that precondition* and fails with a
//! [`SubstrateError::LoadExceeded`] when an algorithm violates it.
//!
//! The round lifecycle (open/charge/close, protocol guards) is the shared
//! [`RoundLedger`]; this type adds the clique *policy* — a slot is a
//! player, the charge of a `send` is the words the receiving player takes
//! in, and every link `(from, to)` is additionally checked against the
//! per-round per-pair bandwidth.
//!
//! ```
//! use mmvc_substrate::{CliqueNetwork, Substrate, LENZEN_ROUTING_ROUNDS};
//!
//! let mut net = CliqueNetwork::new(16)?;
//! // Leader 0 collects one word from everyone via Lenzen routing.
//! let msgs: Vec<(usize, usize, usize)> = (1..16).map(|p| (p, 0, 1)).collect();
//! net.lenzen_route(&msgs)?;
//! assert_eq!(net.rounds(), LENZEN_ROUTING_ROUNDS);
//! # Ok::<(), mmvc_substrate::SubstrateError>(())
//! ```

use crate::engine::RoundLedger;
use crate::error::SubstrateError;
use crate::telemetry::Telemetry;
use crate::trace::ExecutionTrace;
use crate::Substrate;
use std::collections::HashMap;

/// The substrate name the CONGESTED-CLIQUE model reports in traces and
/// errors.
const CLIQUE: &str = "congested-clique";

/// Number of rounds charged for one invocation of Lenzen's routing scheme.
///
/// Lenzen's deterministic scheme completes any routing instance in which
/// every player sends and receives at most `n` messages in `O(1)` rounds
/// \[Len13\]; the concrete constant in his paper is 16, but since the paper
/// we reproduce only relies on "O(1)" we charge a small representative
/// constant and expose it for the experiments to report.
pub const LENZEN_ROUTING_ROUNDS: usize = 2;

/// A simulated CONGESTED-CLIQUE network (paper, Section 1.1.2).
///
/// `n` players communicate in synchronous rounds; per round, every ordered
/// pair of players may exchange `O(log n)` bits — one *word* by default.
/// The simulator meters per-link bandwidth, counts rounds, and provides the
/// primitives the paper's algorithms use: [`all_to_all`](Self::all_to_all)
/// and [`lenzen_route`](Self::lenzen_route).
///
/// # Examples
///
/// ```
/// use mmvc_substrate::{CliqueNetwork, Substrate};
///
/// let mut net = CliqueNetwork::new(8)?;
/// net.round(|r| {
///     r.send(0, 1, 1)?; // one word over link 0->1
///     Ok(())
/// })?;
/// assert_eq!(net.rounds(), 1);
/// assert_eq!(net.total_words(), 1);
/// # Ok::<(), mmvc_substrate::SubstrateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CliqueNetwork {
    n: usize,
    words_per_pair: usize,
    ledger: RoundLedger,
    /// Per-link usage of the open round; cleared by `begin_round`, only
    /// meaningful while the ledger has an open round.
    open_links: HashMap<(u32, u32), usize>,
}

/// Handle for sending within one open round; created by
/// [`CliqueNetwork::round`].
#[derive(Debug)]
pub struct CliqueRoundCtx<'a> {
    net: &'a mut CliqueNetwork,
}

impl CliqueNetwork {
    /// Creates a network of `n` players with the standard one-word
    /// (`O(log n)`-bit) per-pair bandwidth.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::InvalidConfig`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, SubstrateError> {
        Self::with_bandwidth(n, 1)
    }

    /// Creates a network with `words_per_pair` words of per-round per-pair
    /// bandwidth (for experimenting with `O(polylog)`-bit variants).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::InvalidConfig`] if `n == 0` or
    /// `words_per_pair == 0`.
    pub fn with_bandwidth(n: usize, words_per_pair: usize) -> Result<Self, SubstrateError> {
        let invalid = |message: &str| SubstrateError::InvalidConfig {
            substrate: CLIQUE,
            message: message.into(),
        };
        if n == 0 {
            return Err(invalid("need at least one player"));
        }
        if words_per_pair == 0 {
            return Err(invalid("per-pair bandwidth must be positive"));
        }
        Ok(CliqueNetwork {
            n,
            words_per_pair,
            ledger: RoundLedger::new(CLIQUE, n),
            open_links: HashMap::new(),
        })
    }

    /// Number of players.
    pub fn num_players(&self) -> usize {
        self.n
    }

    /// Attaches a telemetry sink: completed rounds emit spans (tagged
    /// `congested-clique`) when it is enabled. Strictly an observer — the
    /// metered trace is identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.ledger.set_telemetry(telemetry);
    }

    /// Per-round, per-ordered-pair bandwidth in words.
    pub fn words_per_pair(&self) -> usize {
        self.words_per_pair
    }

    fn check_player(&self, player: usize) -> Result<(), SubstrateError> {
        if player >= self.n {
            Err(SubstrateError::InvalidAddress {
                substrate: CLIQUE,
                address: player,
                limit: self.n,
            })
        } else {
            Ok(())
        }
    }

    /// Opens a round.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if a round is already open.
    pub fn begin_round(&mut self) -> Result<(), SubstrateError> {
        self.ledger.begin_round()?;
        self.open_links.clear();
        Ok(())
    }

    /// Sends `words` from player `from` to player `to` in the open round.
    ///
    /// # Errors
    ///
    /// * [`SubstrateError::InvalidAddress`] for invalid ids.
    /// * [`SubstrateError::RoundProtocol`] if no round is open.
    /// * [`SubstrateError::LoadExceeded`] (location `link {from}->{to}`)
    ///   if the link budget overflows.
    pub fn send(&mut self, from: usize, to: usize, words: usize) -> Result<(), SubstrateError> {
        self.check_player(from)?;
        self.check_player(to)?;
        self.ledger.ensure_open()?;
        let used = self.open_links.entry((from as u32, to as u32)).or_insert(0);
        let attempted = *used + words;
        if attempted > self.words_per_pair {
            return Err(SubstrateError::LoadExceeded {
                substrate: CLIQUE,
                location: format!("link {from}->{to}"),
                round: Some(self.ledger.current_round()),
                attempted_words: attempted,
                budget_words: self.words_per_pair,
            });
        }
        *used = attempted;
        self.ledger.charge(to, words)?;
        Ok(())
    }

    /// Closes the open round.
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if no round is open.
    pub fn end_round(&mut self) -> Result<(), SubstrateError> {
        self.ledger.end_round()?;
        Ok(())
    }

    /// Runs `f` inside a fresh round.
    ///
    /// On failure the round is abandoned and not counted.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` and round management.
    pub fn round<T>(
        &mut self,
        f: impl FnOnce(&mut CliqueRoundCtx<'_>) -> Result<T, SubstrateError>,
    ) -> Result<T, SubstrateError> {
        self.begin_round()?;
        let mut ctx = CliqueRoundCtx { net: self };
        match f(&mut ctx) {
            Ok(v) => {
                self.end_round()?;
                Ok(v)
            }
            Err(e) => {
                self.ledger.abandon_round();
                Err(e)
            }
        }
    }

    /// Charges a full all-to-all exchange in which every ordered pair
    /// exchanges `words` words, using `ceil(words / words_per_pair)`
    /// rounds. Accounting is `O(1)` (no per-link map entries), making this
    /// suitable for large `n` — e.g. "every vertex broadcasts its rank"
    /// in the paper's CONGESTED-CLIQUE MIS (Section 3.2).
    ///
    /// Returns the number of rounds consumed (0 when `words == 0`).
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if a round is already open.
    pub fn all_to_all(&mut self, words: usize) -> Result<usize, SubstrateError> {
        self.ledger.ensure_no_open_round()?;
        let rounds_needed = words.div_ceil(self.words_per_pair);
        let pairs = self.n * self.n.saturating_sub(1);
        let mut remaining = words;
        for _ in 0..rounds_needed {
            let chunk = remaining.min(self.words_per_pair);
            self.ledger
                .record_completed(1, pairs * chunk, self.n.saturating_sub(1) * chunk)?;
            remaining -= chunk;
        }
        Ok(rounds_needed)
    }

    /// Routes an arbitrary multiset of point-to-point messages using
    /// Lenzen's deterministic routing scheme \[Len13\]: if every player sends
    /// at most `n` words and receives at most `n` words, the whole instance
    /// completes in `O(1)` rounds ([`LENZEN_ROUTING_ROUNDS`]).
    ///
    /// `messages` is a list of `(from, to, words)` triples. Returns the
    /// number of rounds consumed.
    ///
    /// # Errors
    ///
    /// * [`SubstrateError::InvalidAddress`] for invalid ids.
    /// * [`SubstrateError::LoadExceeded`] (location
    ///   `player {p} as sender` or `player {p} as receiver`, no round) if a
    ///   player's send or receive total exceeds `n` words — the scheme's
    ///   precondition, which the paper's algorithms must (and do)
    ///   maintain.
    /// * [`SubstrateError::RoundProtocol`] if a round is open.
    pub fn lenzen_route(
        &mut self,
        messages: &[(usize, usize, usize)],
    ) -> Result<usize, SubstrateError> {
        let mut out = vec![0usize; self.n];
        let mut inc = vec![0usize; self.n];
        for &(from, to, words) in messages {
            self.check_player(from)?;
            self.check_player(to)?;
            out[from] += words;
            inc[to] += words;
        }
        let capacity = self.n * self.words_per_pair;
        let overload =
            |player: usize, role: &str, attempted_words: usize| SubstrateError::LoadExceeded {
                substrate: CLIQUE,
                location: format!("player {player} as {role}"),
                round: None,
                attempted_words,
                budget_words: capacity,
            };
        for p in 0..self.n {
            if out[p] > capacity {
                return Err(overload(p, "sender", out[p]));
            }
            if inc[p] > capacity {
                return Err(overload(p, "receiver", inc[p]));
            }
        }
        // The scheme itself is abstracted: charge its constant round cost
        // and account the traffic.
        let total: usize = messages.iter().map(|&(_, _, w)| w).sum();
        let max_in = inc.iter().copied().max().unwrap_or(0);
        self.ledger
            .record_completed(LENZEN_ROUTING_ROUNDS, total, max_in)?;
        Ok(LENZEN_ROUTING_ROUNDS)
    }

    /// Charges `k` rounds of an abstracted constant-round local primitive
    /// (e.g. "every vertex tells its neighbors whether it joined the MIS").
    ///
    /// # Errors
    ///
    /// [`SubstrateError::RoundProtocol`] if a round is already open.
    pub fn charge_rounds(&mut self, k: usize) -> Result<(), SubstrateError> {
        for _ in 0..k {
            self.begin_round()?;
            self.end_round()?;
        }
        Ok(())
    }
}

impl Substrate for CliqueNetwork {
    fn substrate_name(&self) -> &'static str {
        CLIQUE
    }

    fn execution_trace(&self) -> &ExecutionTrace {
        self.ledger.trace()
    }
}

impl CliqueRoundCtx<'_> {
    /// Sends within the open round; see [`CliqueNetwork::send`].
    ///
    /// # Errors
    ///
    /// Same as [`CliqueNetwork::send`].
    pub fn send(&mut self, from: usize, to: usize, words: usize) -> Result<(), SubstrateError> {
        self.net.send(from, to, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_round_protocol(e: &SubstrateError) -> bool {
        matches!(
            e,
            SubstrateError::RoundProtocol {
                substrate: CLIQUE,
                ..
            }
        )
    }

    /// The `location` of a [`SubstrateError::LoadExceeded`], or a panic.
    fn overflow_location(e: &SubstrateError) -> &str {
        match e {
            SubstrateError::LoadExceeded {
                substrate: CLIQUE,
                location,
                ..
            } => location,
            other => panic!("expected a clique LoadExceeded, got {other:?}"),
        }
    }

    #[test]
    fn send_within_budget() {
        let mut net = CliqueNetwork::new(4).unwrap();
        net.round(|r| {
            r.send(0, 1, 1)?;
            r.send(1, 0, 1)?;
            r.send(2, 3, 1)
        })
        .unwrap();
        assert_eq!(net.rounds(), 1);
        assert_eq!(net.total_words(), 3);
        assert_eq!(net.max_load_words(), 1);
    }

    #[test]
    fn per_link_budget_enforced() {
        let mut net = CliqueNetwork::new(4).unwrap();
        let err = net
            .round(|r| {
                r.send(0, 1, 1)?;
                r.send(0, 1, 1) // second word over same link, same round
            })
            .unwrap_err();
        assert_eq!(
            err,
            SubstrateError::LoadExceeded {
                substrate: CLIQUE,
                location: "link 0->1".into(),
                round: Some(1),
                attempted_words: 2,
                budget_words: 1,
            }
        );
        assert_eq!(net.rounds(), 0, "failed round not counted");
    }

    #[test]
    fn different_links_independent() {
        let mut net = CliqueNetwork::new(4).unwrap();
        net.round(|r| {
            r.send(0, 1, 1)?;
            r.send(0, 2, 1)?;
            r.send(0, 3, 1)
        })
        .unwrap();
        assert_eq!(net.total_words(), 3);
    }

    #[test]
    fn wider_bandwidth() {
        let mut net = CliqueNetwork::with_bandwidth(3, 4).unwrap();
        net.round(|r| r.send(0, 1, 4)).unwrap();
        assert!(net.round(|r| r.send(0, 1, 5)).is_err());
    }

    #[test]
    fn link_budget_resets_between_rounds() {
        let mut net = CliqueNetwork::new(3).unwrap();
        net.round(|r| r.send(0, 1, 1)).unwrap();
        // Same link again in the next round must be allowed.
        net.round(|r| r.send(0, 1, 1)).unwrap();
        assert_eq!(net.rounds(), 2);
        assert_eq!(net.total_words(), 2);
    }

    #[test]
    fn invalid_players_rejected() {
        let mut net = CliqueNetwork::new(3).unwrap();
        assert!(matches!(
            net.round(|r| r.send(0, 3, 1)),
            Err(SubstrateError::InvalidAddress {
                substrate: CLIQUE,
                address: 3,
                limit: 3
            })
        ));
        assert!(matches!(
            net.lenzen_route(&[(5, 0, 1)]),
            Err(SubstrateError::InvalidAddress { address: 5, .. })
        ));
    }

    #[test]
    fn protocol_violations() {
        let mut net = CliqueNetwork::new(3).unwrap();
        assert!(is_round_protocol(&net.send(0, 1, 1).unwrap_err()));
        assert!(is_round_protocol(&net.end_round().unwrap_err()));
        net.begin_round().unwrap();
        assert!(is_round_protocol(&net.begin_round().unwrap_err()));
    }

    #[test]
    fn lenzen_route_within_capacity() {
        let mut net = CliqueNetwork::new(10).unwrap();
        // Capacity is n * 1 = 10 words per player: each player sends one
        // word to its successor.
        let msgs: Vec<(usize, usize, usize)> = (0..10).map(|p| (p, (p + 1) % 10, 1)).collect();
        let rounds = net.lenzen_route(&msgs).unwrap();
        assert_eq!(rounds, LENZEN_ROUTING_ROUNDS);
        assert_eq!(net.rounds(), LENZEN_ROUTING_ROUNDS);
        assert_eq!(net.total_words(), 10);
    }

    #[test]
    fn lenzen_route_receiver_overload() {
        let mut net = CliqueNetwork::new(4).unwrap();
        // 3 senders each push 2 words to player 0: 6 > capacity 4.
        let msgs = vec![(1, 0, 2), (2, 0, 2), (3, 0, 2)];
        let err = net.lenzen_route(&msgs).unwrap_err();
        assert_eq!(overflow_location(&err), "player 0 as receiver");
        assert!(matches!(
            err,
            SubstrateError::LoadExceeded {
                round: None,
                attempted_words: 6,
                budget_words: 4,
                ..
            }
        ));
        assert_eq!(net.rounds(), 0, "rejected routing charges nothing");
    }

    #[test]
    fn lenzen_route_sender_overload() {
        let mut net = CliqueNetwork::new(4).unwrap();
        let msgs = vec![(0, 1, 3), (0, 2, 2)];
        let err = net.lenzen_route(&msgs).unwrap_err();
        assert_eq!(overflow_location(&err), "player 0 as sender");
        assert!(matches!(
            err,
            SubstrateError::LoadExceeded {
                round: None,
                attempted_words: 5,
                ..
            }
        ));
    }

    #[test]
    fn all_to_all_accounting() {
        let mut net = CliqueNetwork::new(5).unwrap();
        let rounds = net.all_to_all(3).unwrap();
        assert_eq!(rounds, 3);
        assert_eq!(net.rounds(), 3);
        assert_eq!(net.total_words(), 5 * 4 * 3);
        assert_eq!(net.max_load_words(), 4);
        assert_eq!(net.all_to_all(0).unwrap(), 0);
    }

    #[test]
    fn all_to_all_requires_closed_round() {
        let mut net = CliqueNetwork::new(3).unwrap();
        net.begin_round().unwrap();
        assert!(is_round_protocol(&net.all_to_all(1).unwrap_err()));
    }

    #[test]
    fn charge_rounds() {
        let mut net = CliqueNetwork::new(3).unwrap();
        net.charge_rounds(5).unwrap();
        assert_eq!(net.rounds(), 5);
    }

    #[test]
    fn network_is_a_substrate() {
        let mut net = CliqueNetwork::new(5).unwrap();
        // Player 0 sends one word to every other player, twice.
        for _ in 0..2 {
            net.round(|r| (1..5).try_for_each(|to| r.send(0, to, 1)))
                .unwrap();
        }
        let s: &dyn Substrate = &net;
        assert_eq!(s.substrate_name(), "congested-clique");
        assert_eq!(s.rounds(), 2);
        assert_eq!(s.total_words(), 2 * 4);
        assert_eq!(s.max_load_words(), 1, "one word per player per round");
        assert_eq!(s.execution_trace().per_round().len(), 2);
    }

    #[test]
    fn lenzen_route_rejects_open_round() {
        let mut net = CliqueNetwork::new(4).unwrap();
        net.begin_round().unwrap();
        assert!(is_round_protocol(
            &net.lenzen_route(&[(0, 1, 1)]).unwrap_err()
        ));
    }

    #[test]
    fn zero_players_rejected() {
        for net in [CliqueNetwork::new(0), CliqueNetwork::with_bandwidth(3, 0)] {
            assert!(matches!(
                net,
                Err(SubstrateError::InvalidConfig {
                    substrate: CLIQUE,
                    ..
                })
            ));
        }
    }
}
