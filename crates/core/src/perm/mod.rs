//! The permutation-policy formalism.
//!
//! A *permutation policy* for associativity `A` keeps, per cache set, a
//! total priority order over the resident lines: position `0` is the most
//! protected line, position `A - 1` the next victim. The policy is fully
//! described by
//!
//! * `A` **hit permutations** `Π_0 … Π_{A-1}` — a hit on the line at
//!   position `i` reorders the state by `Π_i` (the line at position `j`
//!   moves to position `Π_i[j]`), and
//! * an **insertion position** `p` — on a miss the line at position
//!   `A - 1` is evicted and the new line is inserted at position `p`,
//!   shifting positions `p..A-2` down by one.
//!
//! LRU (`Π_i` rotates `i` to the front, `p = 0`), FIFO (all `Π_i` are the
//! identity, `p = 0`), tree-PLRU and LIP (`p = A - 1`) are permutation
//! policies; random replacement and policies whose behaviour depends on
//! physical way indices (bit-PLRU, NRU, RRIP) are not.

mod catalog;
mod derive;
mod equivalence;
mod permutation;
mod policy;

pub use catalog::{catalog_for, match_spec, CatalogEntry};
pub use derive::{derive_permutation_spec, detect_insertion_position, DeriveError};
pub use equivalence::{equivalent, equivalent_sets, Counterexample, EquivalenceResult};
pub use permutation::{Permutation, PermutationError};
pub use policy::{PermutationPolicy, PermutationSpec, SpecError};
