//! # sgs-stream
//!
//! The sliding-window stream engine and the lifespan arithmetic of §5.3.
//!
//! Density-based clusters are produced once per *slide* over the points in
//! the current window (§3.1, CQL semantics). The key property this crate
//! packages is **determinism of expiry**: the moment a point arrives, the
//! exact set of windows it will participate in is known
//! ([`mod@lifespan`], Obs. 5.2), and so is the lifespan of every neighborship
//! it forms (Obs. 5.3 — the minimum of the two endpoints' lifespans). The
//! C-SGS algorithm exploits this to pre-compute all expiry effects at
//! insertion time and do *no* structural work on expiration.
//!
//! * [`WindowEngine`] drives a [`WindowConsumer`] (a clustering algorithm)
//!   over a stream, signalling window completions,
//! * [`lifespan::core_until`] is the one-shot core career (Obs. 5.4): the
//!   θc-th largest neighbor expiry, capped by the point's own. No per-view
//!   state is kept — a consumer that holds a point's neighbors in expiry
//!   order reads the career off one index of that list.

pub mod engine;
pub mod lifespan;
pub mod source;

pub use engine::{WindowConsumer, WindowEngine};
pub use lifespan::core_until;
pub use source::replay;
