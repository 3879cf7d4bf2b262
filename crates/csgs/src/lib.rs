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
//! the others are carried over from it (`DESIGN.md` §6).
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
//!   a neighbor expires. The retained meta-data is still independent of
//!   `win/slide`, which is the memory property Fig. 7 measures.
//! * Extraction is **sharded by grid region** (`DESIGN.md` §6): the state
//!   lives in `S` shards (`ClusterQuery::shards`). Insertion is written
//!   once, over routed shards; with `S > 1` a between-boundary batch large
//!   enough to fork runs the same steps as parallel fork-join phases on
//!   the shared [`sgs_exec::Pool`] (`DESIGN.md` §8), and the output stage
//!   connects the shards' core cells across region borders with
//!   union-find. The per-window output is byte-identical for every `S`.

pub mod algorithm;
pub mod cell_store;
mod merge;
pub mod output;
mod shard;
pub mod tracking;

pub use algorithm::CSgs;
pub use output::{ExtractedCluster, WindowOutput};
pub use tracking::{ClusterTracker, Event, TrackId, TrackedWindow};
