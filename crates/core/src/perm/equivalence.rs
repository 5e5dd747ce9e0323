//! Observational equivalence of replacement policies.
//!
//! Two policies are *observationally equivalent* on a set if, for every
//! access sequence over a block universe, they produce the same hit/miss
//! outcomes and evict the same blocks. Because both machines are finite
//! (finitely many policy states × finitely many content arrangements over
//! a finite universe), equivalence over all infinite sequences reduces to
//! a product-state search — a bisimulation check.

use cachekit_policies::{PolicyState, ReplacementPolicy};
use cachekit_sim::{AccessOutcome, CacheSet};
use std::collections::HashSet;

/// A diverging access sequence found by [`equivalent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The block accesses leading to (and including) the divergence.
    pub accesses: Vec<u64>,
    /// Outcome of the final access on the first policy.
    pub outcome_a: String,
    /// Outcome of the final access on the second policy.
    pub outcome_b: String,
}

/// Result of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// All reachable product states agree.
    Equivalent {
        /// Number of product states explored.
        states: usize,
    },
    /// The policies diverge on the returned access sequence.
    Diverges(Counterexample),
    /// The search hit the state budget before finishing.
    Inconclusive {
        /// Number of product states explored before giving up.
        states: usize,
    },
}

impl EquivalenceResult {
    /// Whether the result proves equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent { .. })
    }
}

fn outcome_str(o: &AccessOutcome) -> String {
    match o {
        AccessOutcome::Hit => "hit".to_owned(),
        AccessOutcome::Miss { evicted: None } => "miss".to_owned(),
        AccessOutcome::Miss { evicted: Some(t) } => format!("miss evicting {t}"),
    }
}

/// Joint state key: the contents of both machines (block per way — the
/// way arrangement matters to the machines, so keep it as-is) plus both
/// policy state keys.
///
/// Blocks are renamed in order of first appearance. The machines compare
/// tags only for equality, so two joint states that differ by a renaming
/// of the block universe have the same futures up to that renaming; one
/// representative per class is enough. This is what keeps an exhaustive
/// search over eight-way LRU at about `8!` states instead of `9 · 8!²`.
fn joint_key(a: &CacheSet, b: &CacheSet) -> Vec<u8> {
    let mut seen: Vec<u64> = Vec::with_capacity(a.associativity() + b.associativity());
    let mut key = Vec::with_capacity(4 * a.associativity());
    for set in [a, b] {
        for w in 0..set.associativity() {
            // 0 marks an invalid way, `n + 1` the `n`-th distinct block.
            let code = set.tag_in_way(w).map_or(0, |tag| {
                let name = seen.iter().position(|&t| t == tag).unwrap_or_else(|| {
                    seen.push(tag);
                    seen.len() - 1
                });
                name as u16 + 1
            });
            key.extend_from_slice(&code.to_le_bytes());
        }
    }
    // Length-prefix the first state key so the pair stays unambiguous.
    let start = key.len();
    a.policy().write_state_key(&mut key);
    let len = key.len() - start;
    key.splice(start..start, (len as u32).to_le_bytes());
    b.policy().write_state_key(&mut key);
    key
}

/// Exhaustively check observational equivalence of two policies over a
/// block universe of `universe` ids, exploring at most `max_states`
/// product states.
///
/// Both policies must have the same associativity.
///
/// # Panics
///
/// Panics if the associativities differ or `universe` is zero.
pub fn equivalent(
    a: &dyn ReplacementPolicy,
    b: &dyn ReplacementPolicy,
    universe: u64,
    max_states: usize,
) -> EquivalenceResult {
    let empty =
        |p: &dyn ReplacementPolicy| CacheSet::from_state(PolicyState::from_boxed(p.boxed_clone()));
    equivalent_sets(empty(a), empty(b), universe, max_states)
}

/// [`equivalent`], starting from two given sets instead of empty ones.
///
/// Permutation policies such as tree-PLRU model *full* sets whose
/// priority order is known, so checking one against a concrete policy
/// means starting both from the same full state. Counterexamples are
/// access sequences from the given states.
///
/// # Panics
///
/// Panics if the associativities differ, `universe` is zero, or a
/// resident block lies outside the universe.
pub fn equivalent_sets(
    a: CacheSet,
    b: CacheSet,
    universe: u64,
    max_states: usize,
) -> EquivalenceResult {
    assert_eq!(
        a.associativity(),
        b.associativity(),
        "policies must have equal associativity"
    );
    assert!(universe > 0, "universe must be nonempty");
    assert!(
        [&a, &b]
            .iter()
            .all(|set| set.resident_tags().iter().all(|&tag| tag < universe)),
        "resident blocks must lie in the universe"
    );

    let mut visited = HashSet::new();
    visited.insert(joint_key(&a, &b));
    // Access tree of the search: (parent node, block) per explored state,
    // so a counterexample is rebuilt by walking back from its last node
    // instead of every stack entry carrying its own copy of the path.
    let mut trail: Vec<(usize, u64)> = vec![(usize::MAX, 0)];
    // DFS stack of (setA, setB, trail node).
    let mut stack = vec![(a, b, 0)];

    while let Some((sa, sb, node)) = stack.pop() {
        for block in 0..universe {
            let mut na = sa.clone();
            let mut nb = sb.clone();
            let oa = na.access_tag(block);
            let ob = nb.access_tag(block);
            if oa != ob {
                let mut accesses = vec![block];
                let mut at = node;
                while at != 0 {
                    accesses.push(trail[at].1);
                    at = trail[at].0;
                }
                accesses.reverse();
                return EquivalenceResult::Diverges(Counterexample {
                    accesses,
                    outcome_a: outcome_str(&oa),
                    outcome_b: outcome_str(&ob),
                });
            }
            let key = joint_key(&na, &nb);
            if visited.insert(key) {
                if visited.len() > max_states {
                    return EquivalenceResult::Inconclusive {
                        states: visited.len(),
                    };
                }
                trail.push((node, block));
                stack.push((na, nb, trail.len() - 1));
            }
        }
    }
    EquivalenceResult::Equivalent {
        states: visited.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::{PermutationPolicy, PermutationSpec};
    use cachekit_policies::{Fifo, LazyLru, Lru, TreePlru};

    #[test]
    fn lru_equals_its_permutation_spec() {
        let lru = Lru::new(3);
        let perm = PermutationPolicy::new(PermutationSpec::lru(3));
        let r = equivalent(&lru, &perm, 5, 500_000);
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn fifo_equals_its_permutation_spec() {
        let fifo = Fifo::new(3);
        let perm = PermutationPolicy::new(PermutationSpec::fifo(3));
        let r = equivalent(&fifo, &perm, 5, 500_000);
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn lru_differs_from_fifo_with_counterexample() {
        let lru = Lru::new(2);
        let fifo = Fifo::new(2);
        match equivalent(&lru, &fifo, 3, 100_000) {
            EquivalenceResult::Diverges(cex) => {
                // Replay the counterexample to confirm it is real.
                let mut sa = CacheSet::from_state(PolicyState::from(Lru::new(2)));
                let mut sb = CacheSet::from_state(PolicyState::from(Fifo::new(2)));
                let n = cex.accesses.len();
                for (i, &blk) in cex.accesses.iter().enumerate() {
                    let oa = sa.access_tag(blk);
                    let ob = sb.access_tag(blk);
                    if i + 1 == n {
                        assert_ne!(oa, ob, "counterexample does not diverge");
                    } else {
                        assert_eq!(oa, ob, "divergence before the last access");
                    }
                }
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn lazy_lru_assoc2_equals_lru() {
        let r = equivalent(&LazyLru::new(2), &Lru::new(2), 4, 100_000);
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn lazy_lru_assoc4_differs_from_lru() {
        let r = equivalent(&LazyLru::new(4), &Lru::new(4), 6, 500_000);
        assert!(matches!(r, EquivalenceResult::Diverges(_)), "{r:?}");
    }

    #[test]
    fn plru_two_way_equals_lru() {
        let r = equivalent(&TreePlru::new(2), &Lru::new(2), 4, 100_000);
        assert!(r.is_equivalent(), "{r:?}");
    }

    #[test]
    fn plru_four_way_differs_from_lru() {
        let r = equivalent(&TreePlru::new(4), &Lru::new(4), 6, 500_000);
        assert!(matches!(r, EquivalenceResult::Diverges(_)), "{r:?}");
    }

    #[test]
    fn tiny_budget_is_inconclusive() {
        let r = equivalent(&Lru::new(4), &Lru::new(4), 6, 3);
        assert!(matches!(r, EquivalenceResult::Inconclusive { .. }), "{r:?}");
    }
}
