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
//! * [`lifespan::ExpiryHistogram`] maintains "how many of this point's
//!   neighbors are still alive at window w" and answers core-career queries
//!   (Obs. 5.4) in O(views).

pub mod engine;
pub mod lifespan;
pub mod source;

pub use engine::{WindowConsumer, WindowEngine};
pub use lifespan::{core_until, ExpiryHistogram};
pub use source::replay;
