//! Cross-engine differential suite: the three policy execution engines
//! (boxed trait objects, the inline enum, the monomorphized batch
//! kernels) must be **bit-identical** — same hits and misses, same
//! victims, same final set contents — on every differential policy kind.
//!
//! The boxed engine here is a faithful local replica of the
//! pre-refactor cache set (array-of-`Option` tags driving concrete
//! policies behind `Box<dyn ReplacementPolicy>`), so the suite pins the
//! refactor's semantics to the original substrate, not to itself.

use cachekit::core::perm::{catalog_for, equivalent, equivalent_sets, PermutationPolicy};
use cachekit::policies::conformance::{assert_conformance, assert_state_key_soundness};
use cachekit::policies::kernel::KernelCache;
use cachekit::policies::rng::{mix64, Prng};
use cachekit::policies::{
    Bip, BitPlru, Brrip, Clock, Fifo, LazyLru, Lip, Lru, Nru, PolicyKind, PolicyState, Qlru,
    RandomPolicy, ReplacementPolicy, Slru, Srrip, TreePlru,
};
use cachekit::sim::{AccessOutcome, CacheSet};

const ASSOCS: [usize; 3] = [4, 8, 16];

/// Product-state budget of the catalog equivalence check.
const CATALOG_STATE_BUDGET: usize = 2_000_000;

/// Replica of the pre-refactor set representation.
struct BoxedSet {
    tags: Vec<Option<u64>>,
    policy: Box<dyn ReplacementPolicy>,
}

impl BoxedSet {
    fn new(policy: Box<dyn ReplacementPolicy>) -> Self {
        let assoc = policy.associativity();
        Self {
            tags: vec![None; assoc],
            policy,
        }
    }

    fn access(&mut self, tag: u64) -> AccessOutcome {
        if let Some(way) = self.tags.iter().position(|&t| t == Some(tag)) {
            self.policy.on_hit(way);
            return AccessOutcome::Hit;
        }
        let way = self
            .tags
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| self.policy.victim());
        let evicted = self.tags[way];
        self.tags[way] = Some(tag);
        self.policy.on_fill(way);
        AccessOutcome::Miss { evicted }
    }

    fn tag_in_way(&self, way: usize) -> Option<u64> {
        self.tags[way]
    }
}

/// The concrete boxed policy the pre-refactor engine used, with the
/// per-set seed derivation [`PolicyKind::build_state`] applies.
fn boxed_policy(kind: PolicyKind, assoc: usize, salt: u64) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(assoc)),
        PolicyKind::Fifo => Box::new(Fifo::new(assoc)),
        PolicyKind::TreePlru => Box::new(TreePlru::new(assoc)),
        PolicyKind::BitPlru => Box::new(BitPlru::new(assoc)),
        PolicyKind::Nru => Box::new(Nru::new(assoc)),
        PolicyKind::Clock => Box::new(Clock::new(assoc)),
        PolicyKind::Lip => Box::new(Lip::new(assoc)),
        PolicyKind::Slru { protected } => Box::new(Slru::new(assoc, protected)),
        PolicyKind::Bip { throttle } => Box::new(Bip::new(assoc, throttle, mix64(0xb1b0, salt))),
        PolicyKind::Srrip { bits } => Box::new(Srrip::new(assoc, bits)),
        PolicyKind::Brrip { bits, throttle } => {
            Box::new(Brrip::new(assoc, bits, throttle, mix64(0xbbb1, salt)))
        }
        PolicyKind::Random { seed } => Box::new(RandomPolicy::new(assoc, mix64(seed, salt))),
        PolicyKind::LazyLru => Box::new(LazyLru::new(assoc)),
        PolicyKind::Qlru { insert } => Box::new(Qlru::new(assoc, insert)),
    }
}

/// A mixed hot/cold tag stream exercising hits, cold fills and capacity
/// evictions.
fn stream(assoc: usize, len: usize, seed: u64) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                rng.gen_range(0..assoc as u64)
            } else {
                rng.gen_range(0..6 * assoc as u64)
            }
        })
        .collect()
}

#[test]
fn boxed_and_enum_engines_are_bit_identical() {
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let salt = assoc as u64;
            let mut boxed = BoxedSet::new(boxed_policy(kind, assoc, salt));
            let mut enumed = CacheSet::from_state(kind.build_state(assoc, salt));
            for (i, &tag) in stream(assoc, 4000, 0xD1FF ^ salt).iter().enumerate() {
                let a = boxed.access(tag);
                let b = enumed.access_tag(tag);
                assert_eq!(a, b, "{kind:?} A={assoc} diverged at access {i}");
            }
            for w in 0..assoc {
                assert_eq!(
                    boxed.tag_in_way(w),
                    enumed.tag_in_way(w),
                    "{kind:?} A={assoc} final contents differ in way {w}"
                );
            }
            assert_eq!(
                boxed.policy.state_key(),
                enumed.policy().state_key(),
                "{kind:?} A={assoc} final replacement state differs"
            );
        }
    }
}

#[test]
fn batch_kernels_are_bit_identical_across_the_whole_grid() {
    // Every monomorphized (policy, assoc) kernel — LRU/FIFO/PLRU/NRU at
    // 4/8/16 ways — replayed at cache scale against per-access enum
    // sets, on an interleaved multi-set stream.
    let sets = 64usize;
    let mut compiled = 0;
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            let Some(mut kernel) = KernelCache::for_kind(kind, assoc, sets) else {
                continue;
            };
            compiled += 1;
            let mut enumed: Vec<CacheSet> = (0..sets)
                .map(|s| CacheSet::from_state(kind.build_state(assoc, s as u64)))
                .collect();
            let mut rng = Prng::seed_from_u64(0xBA7C4 ^ assoc as u64);
            let interleaved: Vec<(u32, u64)> = (0..40_000)
                .map(|_| {
                    let set = rng.gen_range(0..sets as u64) as u32;
                    let tag = if rng.gen_bool(0.5) {
                        rng.gen_range(0..assoc as u64)
                    } else {
                        rng.gen_range(0..6 * assoc as u64)
                    };
                    (set, tag)
                })
                .collect();
            let (hits, misses) = kernel.access_many(&interleaved);
            let mut want_hits = 0u64;
            for &(set, tag) in &interleaved {
                want_hits += u64::from(enumed[set as usize].access_tag(tag).is_hit());
            }
            assert_eq!(
                hits, want_hits,
                "{kind:?} A={assoc} kernel hit count diverged"
            );
            assert_eq!(hits + misses, interleaved.len() as u64);
            for (set, enum_set) in enumed.iter().enumerate() {
                for w in 0..assoc {
                    assert_eq!(
                        kernel.tag(set, w),
                        enum_set.tag_in_way(w),
                        "{kind:?} A={assoc} set {set} way {w} differs"
                    );
                }
            }
        }
    }
    // LRU, FIFO, PLRU and NRU at 4, 8 and 16 ways.
    assert_eq!(compiled, 12, "kernel grid shrank");
}

#[test]
fn enum_engine_passes_policy_conformance_for_all_differential_kinds() {
    for kind in PolicyKind::differential_kinds() {
        for assoc in ASSOCS {
            assert_conformance(Box::new(kind.build_state(assoc, 5)));
        }
    }
}

#[test]
fn enum_engine_state_keys_are_sound_for_all_deterministic_kinds() {
    // Soundness (equal key => equal future behaviour) is only defined
    // for deterministic policies: stochastic kinds deliberately keep
    // their RNG position out of the key.
    for kind in PolicyKind::differential_kinds() {
        if !kind.is_deterministic() {
            continue;
        }
        assert_state_key_soundness(|| Box::new(kind.build_state(8, 5)), 300);
    }
}

#[test]
fn catalog_specs_are_equivalent_to_their_enum_policies() {
    // Every catalog spec, run by the permutation interpreter, must be
    // observationally equivalent to the enum engine's policy of the same
    // name: an exhaustive product-state search over a universe of one
    // block more than the associativity, so every eviction is reachable.
    for assoc in [4usize, 8] {
        for entry in catalog_for(assoc) {
            let kind = match entry.name {
                "LRU" => PolicyKind::Lru,
                "FIFO" => PolicyKind::Fifo,
                "LIP" => PolicyKind::Lip,
                "PLRU" => PolicyKind::TreePlru,
                other => panic!("catalog entry {other} has no enum policy"),
            };
            let interp = PermutationPolicy::new(entry.spec.clone());
            let enumed = kind.build_state(assoc, 0);
            let universe = assoc as u64 + 1;
            let result = if kind == PolicyKind::TreePlru {
                let (interp, tree) = synchronized_full_sets(interp, enumed);
                equivalent_sets(interp, tree, universe, CATALOG_STATE_BUDGET)
            } else {
                equivalent(&interp, &enumed, universe, CATALOG_STATE_BUDGET)
            };
            assert!(
                result.is_equivalent(),
                "catalog {} A={assoc}: {result:?}",
                entry.name
            );
        }
    }
}

/// Sets holding blocks `0..A`, the interpreter's priority order matched
/// to the tree's. A permutation spec models a full set with a known
/// order: cold fills into invalid ways are outside the model, and
/// tree-PLRU takes them differently, so the check starts where the model
/// applies. The tree's order is the one in which fresh misses would evict
/// its blocks, read from a scratch copy.
fn synchronized_full_sets(interp: PermutationPolicy, tree: PolicyState) -> (CacheSet, CacheSet) {
    let assoc = tree.associativity() as u64;
    let mut interp = CacheSet::from_state(PolicyState::from_boxed(Box::new(interp)));
    let mut tree = CacheSet::from_state(tree);
    for block in 0..assoc {
        interp.access_tag(block);
        tree.access_tag(block);
    }
    let mut scratch = tree.clone();
    for fresh in assoc..2 * assoc {
        let AccessOutcome::Miss {
            evicted: Some(block),
        } = scratch.access_tag(fresh)
        else {
            panic!("a fresh block must evict a resident one");
        };
        assert!(block < assoc, "fresh misses must evict the set's blocks");
        // Refilling the only invalid way moves that way to the front,
        // so refilling in eviction order leaves the first victim last.
        interp.invalidate(block);
        interp.access_tag(block);
    }
    (interp, tree)
}
