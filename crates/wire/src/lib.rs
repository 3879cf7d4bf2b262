//! # sgs-wire
//!
//! The binary wire protocol of the streamsum network front-end: the frame
//! grammar spoken between [`sgs-client`] and the `streamsum-server`
//! binary (`DESIGN.md` §9). The paper's setting (§1, Figs. 2–3) is
//! analysts issuing DETECT and matching statements against a live
//! stream; this crate is the point where that becomes a client/server
//! boundary instead of an in-process API.
//!
//! ## Frame layout
//!
//! Every frame is length-prefixed and versioned:
//!
//! ```text
//! frame   := len:u32le payload            (len = payload byte count)
//! payload := version:u8 kind:u8 body
//! ```
//!
//! `len` counts the payload only (so the minimum is 2) and is capped at
//! [`MAX_FRAME_LEN`]; a peer announcing a larger frame is rejected
//! *before* any allocation ([`WireError::Oversized`]). `version` is
//! [`WIRE_VERSION`]; the rule is a **whole-protocol version**: any
//! change to any body grammar bumps it, and a decoder rejects every
//! other version ([`WireError::Version`]) rather than guessing — the
//! handshake ([`Frame::Hello`] / [`Frame::HelloAck`]) surfaces the
//! mismatch to the user as an error message, not silent corruption.
//!
//! Body scalars are little-endian; strings are `u32` length + UTF-8
//! bytes; sequences are `u32` count + elements. The complete grammar
//! per kind is documented on [`Frame`].
//!
//! ## Robustness
//!
//! Decoding never panics and never trusts a count it has not bounded
//! against the remaining payload: truncated input yields
//! [`WireError::Truncated`], leftover bytes yield
//! [`WireError::TrailingBytes`], and every enum code is validated.
//! `tests/roundtrip.rs` property-tests encode → decode → re-encode
//! byte-identity for every frame type plus the error paths.
//!
//! [`sgs-client`]: ../sgs_client/index.html

pub mod codec;
#[cfg(feature = "test-util")]
pub mod fault;
pub mod frame;
pub mod io;

pub use codec::{decode, WireError};
#[cfg(feature = "test-util")]
pub use fault::{Fault, FaultKind, FaultTransport};
pub use frame::{
    ErrorCode, Frame, WireMatch, WireMetric, WireMetricValue, WireQuery, WireQueryState, WireStats,
    WireWindow,
};
pub use io::{read_frame, write_frame, RecvError};

/// Protocol version carried by every frame. Bump on **any** grammar
/// change; decoders reject all other versions.
///
/// History: `1` — initial protocol; `2` — added the
/// [`Frame::MetricsReq`] / [`Frame::MetricsReply`] pair; `3` — added
/// [`Frame::GoAway`] (graceful drain) and
/// [`ErrorCode::QuotaExceeded`] (per-owner admission control); `4` —
/// [`Frame::Hello`] gained an option-flagged auth token, and
/// [`Frame::Subscribe`] / [`Frame::Unsubscribe`] switched a query to
/// server-push delivery ([`ErrorCode::Unauthorized`] rejects a bad
/// credential); `5` — [`WireStats`] lost its dropped-window count
/// (every completed window is delivered).
pub const WIRE_VERSION: u8 = 5;

/// Hard cap on one frame's payload length (64 MiB). Applied before any
/// allocation, so a corrupt or hostile length prefix cannot balloon
/// memory. Feeders chunk batches well below this
/// (`sgs-client` sends at most [`FEED_CHUNK`] points per frame).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Points per [`Frame::Feed`] a well-behaved client sends at most: keeps
/// individual frames small enough that server-side backpressure (the
/// bounded per-query `InputQueue`) is felt within one frame's worth of
/// data, not after a giant buffered batch.
pub const FEED_CHUNK: usize = 4096;
