//! The consistency oracle — the checkable content of Theorem 1.
//!
//! "If the server follows Algorithm 5 and all clients follow Algorithm 4,
//! then in a distributed snapshot of the system the states ζ_CS at the
//! clients and the state ζ_S at the server will never be inconsistent."
//!
//! Under the Incomplete World Model a replica's ζ_CS is *partial*, and two
//! replicas may legitimately hold different-age values for an object
//! neither currently depends on. What consistency observably means — and
//! what this oracle checks — is:
//!
//! 1. **Evaluation agreement**: every replica that evaluates the action at
//!    position `p` computes the identical outcome (same writes, same abort
//!    flag). This is what makes optimistic replicas converge and makes the
//!    server's value-installing completions well-defined.
//! 2. **No missing reads**: no replica ever evaluates an action while part
//!    of its declared read set is unmaterialized — the failure mode of
//!    visibility-filtered systems like RING (Section III-B, Figure 3).
//! 3. **Authoritative agreement**: ζ_S equals an omniscient reference
//!    replica's state at `last_committed` (checked by the harness, which
//!    owns the reference).
//!
//! Baselines report their divergences through the same oracle, which is how
//! Figure 10's companion inconsistency measurements are produced.

use crate::metrics::EvalRecord;
use seve_world::ids::QueuePos;
use std::collections::HashMap;

/// A detected consistency violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two replicas computed different outcomes for the same position.
    OutcomeMismatch {
        /// The serialization position.
        pos: QueuePos,
        /// The first digest observed.
        expected: u64,
        /// The disagreeing digest.
        got: u64,
    },
    /// A replica evaluated an action with unmaterialized read-set objects.
    MissingReads {
        /// The serialization position.
        pos: QueuePos,
        /// How many read-set objects were missing.
        missing: u32,
    },
}

/// Accumulates evaluation records from every replica and reports
/// violations.
///
/// ```
/// use seve_core::consistency::ConsistencyOracle;
/// use seve_core::metrics::EvalRecord;
/// use seve_world::ids::{ActionId, ClientId};
///
/// let rec = |digest| EvalRecord {
///     pos: 1,
///     id: ActionId::new(ClientId(0), 0),
///     digest,
///     input_digest: 0,
///     missing_reads: 0,
/// };
/// let mut oracle = ConsistencyOracle::new();
/// oracle.observe(&rec(42)); // replica A
/// oracle.observe(&rec(42)); // replica B agrees
/// assert!(oracle.is_consistent());
/// oracle.observe(&rec(43)); // replica C diverged
/// assert!(!oracle.is_consistent());
/// ```
#[derive(Debug, Default)]
pub struct ConsistencyOracle {
    outcomes: HashMap<QueuePos, u64>,
    violations: Vec<Violation>,
    records: u64,
}

impl ConsistencyOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one replica's evaluation record.
    pub fn observe(&mut self, rec: &EvalRecord) {
        self.records += 1;
        if rec.missing_reads > 0 {
            self.violations.push(Violation::MissingReads {
                pos: rec.pos,
                missing: rec.missing_reads,
            });
        }
        match self.outcomes.get(&rec.pos) {
            None => {
                self.outcomes.insert(rec.pos, rec.digest);
            }
            Some(&expected) if expected != rec.digest => {
                self.violations.push(Violation::OutcomeMismatch {
                    pos: rec.pos,
                    expected,
                    got: rec.digest,
                });
            }
            Some(_) => {}
        }
    }

    /// Ingest a batch of records.
    pub fn observe_all<'a>(&mut self, recs: impl IntoIterator<Item = &'a EvalRecord>) {
        for r in recs {
            self.observe(r);
        }
    }

    /// Total records ingested.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Distinct positions seen.
    pub fn positions(&self) -> usize {
        self.outcomes.len()
    }

    /// All violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Is the system consistent so far?
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seve_world::ids::{ActionId, ClientId};

    fn rec(pos: QueuePos, digest: u64, missing: u32) -> EvalRecord {
        EvalRecord {
            pos,
            id: ActionId::new(ClientId(0), pos as u32),
            digest,
            input_digest: 0,
            missing_reads: missing,
        }
    }

    #[test]
    fn agreeing_replicas_are_consistent() {
        let mut o = ConsistencyOracle::new();
        for _replica in 0..3 {
            o.observe(&rec(1, 0xAA, 0));
            o.observe(&rec(2, 0xBB, 0));
        }
        assert!(o.is_consistent());
        assert_eq!(o.records(), 6);
        assert_eq!(o.positions(), 2);
    }

    #[test]
    fn outcome_mismatch_is_flagged() {
        let mut o = ConsistencyOracle::new();
        o.observe(&rec(1, 0xAA, 0));
        o.observe(&rec(1, 0xAB, 0));
        assert!(!o.is_consistent());
        assert_eq!(
            o.violations(),
            &[Violation::OutcomeMismatch {
                pos: 1,
                expected: 0xAA,
                got: 0xAB
            }]
        );
    }

    #[test]
    fn missing_reads_are_flagged() {
        let mut o = ConsistencyOracle::new();
        o.observe(&rec(3, 0xCC, 2));
        assert_eq!(
            o.violations(),
            &[Violation::MissingReads { pos: 3, missing: 2 }]
        );
    }

    #[test]
    fn observe_all_ingests_batches() {
        let mut o = ConsistencyOracle::new();
        let records = vec![rec(1, 1, 0), rec(2, 2, 0)];
        o.observe_all(&records);
        assert_eq!(o.records(), 2);
        assert!(o.is_consistent());
    }
}
