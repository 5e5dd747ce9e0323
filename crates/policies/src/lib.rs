//! # cachekit-policies
//!
//! Implementations of cache replacement policies behind a single
//! [`ReplacementPolicy`] trait.
//!
//! This crate is the *policy zoo* substrate of the `cachekit` workspace: the
//! reverse-engineering pipeline in `cachekit-core` needs faithful
//! implementations of the policies that Intel microprocessors of the
//! Core 2 / Atom era plausibly used (tree-PLRU, bit-PLRU, LRU, …), and the
//! evaluation part of the reproduction needs textbook baselines
//! (LRU, FIFO, random, RRIP variants) to compare the discovered policies
//! against.
//!
//! Each policy manages the replacement state of **one cache set** of a fixed
//! associativity and speaks only in *way indices*; tag matching, validity
//! tracking and address mapping are the cache simulator's job
//! (`cachekit-sim`).
//!
//! ## Example
//!
//! ```
//! use cachekit_policies::{Lru, ReplacementPolicy};
//!
//! let mut p = Lru::new(4);
//! // Warm up: fill ways 0..4 (the surrounding cache decides the ways).
//! for w in 0..4 {
//!     p.on_fill(w);
//! }
//! p.on_hit(0); // way 0 becomes most recently used
//! assert_eq!(p.victim(), 1); // way 1 is now least recently used
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod bip;
mod bit_plru;
mod clock;
mod dip;
mod fifo;
mod kind;
mod lazy_lru;
mod lip;
mod lru;
mod nru;
mod qlru;
mod random;
mod slru;
mod srrip;
mod state;
mod tree_plru;

pub use bip::Bip;
pub use bit_plru::BitPlru;
pub use clock::Clock;
pub use dip::{Dip, DipFamily, Drrip, DrripFamily, DuelState};
pub use fifo::Fifo;
pub use kind::PolicyKind;
pub use lazy_lru::LazyLru;
pub use lip::Lip;
pub use lru::Lru;
pub use nru::Nru;
pub use qlru::Qlru;
pub use random::RandomPolicy;
pub use slru::Slru;
pub use srrip::{Brrip, Srrip};
pub use state::{PolicyState, StateVisitor};
pub use tree_plru::TreePlru;

pub mod conformance;
pub mod kernel;
pub mod rng;

/// Replacement state machine for a single cache set.
///
/// Implementations are driven by the cache that owns the set:
///
/// * [`on_fill`](Self::on_fill) after a line is installed in a way (the way
///   may have been invalid, or may be the way returned by
///   [`victim`](Self::victim));
/// * [`on_hit`](Self::on_hit) when an access hits a way;
/// * [`victim`](Self::victim) to pick the way to evict when the set is full.
///
/// The trait is object-safe; the simulator stores `Box<dyn
/// ReplacementPolicy>` per set. Implementations must be `Send + Sync`
/// (all state behind `&mut self`) so caches and oracles can be shared by
/// reference across the worker threads of `cachekit-sim::parallel`.
///
/// # Panics
///
/// All methods taking a `way` panic if `way >= self.associativity()`.
pub trait ReplacementPolicy: fmt::Debug + Send + Sync {
    /// Number of ways in the set this policy manages.
    fn associativity(&self) -> usize;

    /// Human-readable policy name, e.g. `"LRU"` or `"SRRIP-2"`.
    fn name(&self) -> String;

    /// Record a hit on `way`.
    fn on_hit(&mut self, way: usize);

    /// Choose the way to evict.
    ///
    /// Must only be consulted when the set is full; the caller is expected
    /// to follow up with [`on_fill`](Self::on_fill) for the same way once
    /// the new line is installed. Stochastic policies may advance their RNG.
    fn victim(&mut self) -> usize;

    /// Record that a (new) line was installed in `way`.
    fn on_fill(&mut self, way: usize);

    /// Record that the line in `way` was invalidated.
    ///
    /// The default implementation does nothing; policies with an explicit
    /// recency order may demote the way.
    #[inline]
    fn on_invalidate(&mut self, _way: usize) {}

    /// Return to the initial (power-on) state.
    fn reset(&mut self);

    /// Whether the policy's behaviour is a deterministic function of the
    /// access history (false for e.g. random replacement).
    fn is_deterministic(&self) -> bool {
        true
    }

    /// Canonical byte encoding of the current replacement state.
    ///
    /// Two states with equal keys must behave identically on all future
    /// inputs. Used by state-space exploration in `cachekit-core`; for
    /// non-deterministic policies the key only needs to cover the
    /// deterministic part of the state.
    fn state_key(&self) -> Vec<u8>;

    /// Append the [`state_key`](Self::state_key) bytes to `out` without
    /// allocating.
    ///
    /// Exploration loops (reachability, eviction distances) call this
    /// once per explored state; the default implementation falls back to
    /// `state_key()` and allocates, so every in-tree policy overrides it
    /// to write its state bytes directly.
    /// Implementations must append exactly the bytes `state_key()` would
    /// return and must not otherwise touch `out`.
    fn write_state_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.state_key());
    }

    /// Clone into a boxed trait object.
    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy>;
}

impl Clone for Box<dyn ReplacementPolicy> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

impl ReplacementPolicy for Box<dyn ReplacementPolicy> {
    fn associativity(&self) -> usize {
        (**self).associativity()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    #[inline]
    fn on_hit(&mut self, way: usize) {
        (**self).on_hit(way)
    }
    #[inline]
    fn victim(&mut self) -> usize {
        (**self).victim()
    }
    #[inline]
    fn on_fill(&mut self, way: usize) {
        (**self).on_fill(way)
    }
    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        (**self).on_invalidate(way)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn is_deterministic(&self) -> bool {
        (**self).is_deterministic()
    }
    fn state_key(&self) -> Vec<u8> {
        (**self).state_key()
    }
    fn write_state_key(&self, out: &mut Vec<u8>) {
        (**self).write_state_key(out)
    }
    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        (**self).boxed_clone()
    }
}

#[inline]
pub(crate) fn check_way(way: usize, assoc: usize) {
    assert!(
        way < assoc,
        "way index {way} out of range for associativity {assoc}"
    );
}

#[inline]
pub(crate) fn check_assoc(assoc: usize) -> usize {
    assert!(assoc >= 1, "associativity must be at least 1");
    assert!(assoc <= 128, "associativity above 128 is not supported");
    assoc
}
