//! # sgs-csgs
//!
//! **C-SGS** (§5) — the paper's integrated cluster-extraction +
//! summarization algorithm. One pass over the stream maintains *skeletal
//! grid cells* whose three mutable attributes (population, status,
//! connections) carry **lifespan watermarks**: at insertion time the
//! algorithm pre-computes, from the deterministic sliding-window semantics,
//! how long each attribute value will persist (Obs. 5.2–5.4,
//! Lemmas 5.1–5.2). Expiration then requires *no structural work at all* —
//! liveness at window `w` is a watermark comparison.
//!
//! Each slide outputs clusters in **both** representations (Fig. 2):
//! the full representation (member objects with core/edge labels) and the
//! Skeletal Grid Summarization, derived together from the same cell store
//! — by reading what the clusters hold, not what the window holds, and
//! only for the clusters a write has touched since the previous window;
//! the others are carried over from it, shared rather than copied, and
//! the work is found from the cells the window wrote (`DESIGN.md` §6).
//!
//! Design notes relative to the paper (also in `DESIGN.md`):
//!
//! * Lifespans are stored as absolute window indices (`*_until`) so no
//!   per-slide decrement is needed.
//! * We retain each live point's current neighbor list. The paper's
//!   "non-core-career neighbor list" (§5.3) bounds what is needed for edge
//!   attachment at output; the connection-prolong path (a new arrival
//!   extends an existing point's core career, which can extend its cell's
//!   connections — the "details omitted" part of §5.4) additionally needs
//!   core-career neighbors, so we keep the full list, pruned eagerly when
//!   a neighbor expires. It is kept in expiry order, so the core career
//!   (Obs. 5.4) is one index into it. The retained meta-data is still
//!   independent of `win/slide`, which is the memory property Fig. 7
//!   measures.
//! * Extraction is **one sequential pass** per query, as in the paper: one
//!   grid index, point table and cell store, each arrival inserted in
//!   order (`DESIGN.md` §6). Parallelism comes from running queries side
//!   by side on the runtime's scheduler pool (`DESIGN.md` §8).
//! * State is addressed by dense handles, not by hashing coordinates. A
//!   cell lives in a slot named by a [`cell_store::CellId`]; its
//!   coordinate — held inline, not boxed, in up to four dimensions — is
//!   looked up once per arrival, and everything else — populations,
//!   careers, links keyed by the other cell's id, the previous output's
//!   clusters, held with their cells' ids for the carry-over check, the
//!   output stage's per-window indexes — indexes slots. Point states sit in an arrival-ordered table found
//!   by the id's offset from the oldest live point, so an expired
//!   neighbor is a vacant slot. Slots freed by `gc` are reused; why a
//!   stale link to a reused slot can never read live is in the
//!   [`cell_store`] docs.

pub mod algorithm;
pub mod cell_store;
#[cfg(test)]
#[path = "../tests/counting/mod.rs"]
mod counting;
mod merge;
pub mod output;
mod point_store;

pub use algorithm::CSgs;
pub use output::{ExtractedCluster, WindowOutput};
