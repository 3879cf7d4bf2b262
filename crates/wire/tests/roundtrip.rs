//! Property tests of the wire codec: for **every** frame type,
//! encode → decode is the identity on values and decode → re-encode is
//! the identity on bytes; every strict prefix of a valid frame asks for
//! more bytes; corrupted length/version/kind/payload bytes fail with the
//! right [`WireError`] instead of panicking or over-allocating.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgs_core::{Point, PointId, WindowId};
use sgs_csgs::ExtractedCluster;
use sgs_summarize::{CellStatus, CellsBuilder, Sgs};
use sgs_wire::{
    decode, ErrorCode, Frame, WireError, WireMatch, WireMetric, WireMetricValue, WireQuery,
    WireQueryState, WireStats, WireWindow,
};

// ---------------------------------------------------------------------------
// Random instances
// ---------------------------------------------------------------------------

fn rand_string(rng: &mut StdRng, max: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefgh XYZ_0123=<>\xc3\xa9"; // includes a multi-byte char
    let len = rng.gen_range(0usize..max);
    let mut s = String::new();
    for _ in 0..len {
        // Pick a char boundary-safe symbol: é is appended whole.
        let i = rng.gen_range(0usize..ALPHABET.len() - 1);
        if ALPHABET[i] < 0x80 {
            s.push(ALPHABET[i] as char);
        } else {
            s.push('é');
        }
    }
    s
}

fn rand_point(rng: &mut StdRng) -> Point {
    let dim = rng.gen_range(1usize..5);
    let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(-100.0f64..100.0)).collect();
    Point::new(coords, rng.gen_range(0u64..1 << 40))
}

fn rand_sgs(rng: &mut StdRng) -> Sgs {
    let dim = rng.gen_range(1usize..4);
    let n_cells = rng.gen_range(0usize..6);
    let mut list = CellsBuilder::default();
    for _ in 0..n_cells {
        let coord: Vec<i32> = (0..dim).map(|_| rng.gen_range(-50i32..50)).collect();
        let n_conns = rng.gen_range(0usize..n_cells.max(1));
        let population = rng.gen_range(1u32..500);
        let status = if rng.gen_bool(0.5) {
            CellStatus::Core
        } else {
            CellStatus::Edge
        };
        let connections: Vec<u32> = (0..n_conns)
            .map(|_| rng.gen_range(0u32..n_cells as u32))
            .collect();
        list.push(&coord, population, status, connections);
    }
    Sgs {
        dim,
        side: rng.gen_range(0.01f64..5.0),
        level: rng.gen_range(0u32..4) as u8,
        cells: list.build(),
    }
}

fn rand_cluster(rng: &mut StdRng) -> Arc<ExtractedCluster> {
    let ids = |rng: &mut StdRng| -> Vec<PointId> {
        let n = rng.gen_range(0usize..8);
        (0..n)
            .map(|_| PointId(rng.gen_range(0u32..10_000)))
            .collect()
    };
    Arc::new(ExtractedCluster {
        cores: ids(rng),
        edges: ids(rng),
        sgs: rand_sgs(rng),
    })
}

fn rand_stats(rng: &mut StdRng) -> WireStats {
    WireStats {
        points: rng.gen_range(0u64..1 << 50),
        windows: rng.gen_range(0u64..1 << 30),
        clusters: rng.gen_range(0u64..1 << 30),
        archived: rng.gen_range(0u64..1 << 30),
        archive_bytes: rng.gen_range(0u64..1 << 40),
        busy_nanos: rng.gen_range(0u64..1 << 60),
        error: if rng.gen_bool(0.3) {
            Some(rand_string(rng, 40))
        } else {
            None
        },
    }
}

fn rand_metric(rng: &mut StdRng) -> WireMetric {
    let value = match rng.gen_range(0u8..3) {
        0 => WireMetricValue::Counter(rng.gen_range(0u64..1 << 50)),
        1 => WireMetricValue::Gauge(rng.gen_range(-(1i64 << 30)..1 << 30)),
        _ => WireMetricValue::Histogram {
            count: rng.gen_range(0u64..1 << 30),
            sum: rng.gen_range(0u64..1 << 50),
            max: rng.gen_range(0u64..1 << 40),
            p50: rng.gen_range(0u64..1 << 40),
            p95: rng.gen_range(0u64..1 << 40),
            p99: rng.gen_range(0u64..1 << 40),
        },
    };
    WireMetric {
        name: rand_string(rng, 60),
        value,
    }
}

fn rand_query(rng: &mut StdRng) -> WireQuery {
    let states = [
        WireQueryState::Running,
        WireQueryState::Paused,
        WireQueryState::Cancelled,
        WireQueryState::Failed,
    ];
    WireQuery {
        query: rng.gen_range(0u64..1 << 20),
        state: states[rng.gen_range(0usize..states.len())],
        text: rand_string(rng, 120),
        stats: rand_stats(rng),
    }
}

/// One random frame of each of the 26 kinds.
fn all_frame_kinds(rng: &mut StdRng) -> Vec<Frame> {
    let q = |rng: &mut StdRng| rng.gen_range(0u64..1 << 20);
    vec![
        Frame::Hello {
            client: rand_string(rng, 40),
            token: if rng.gen_bool(0.5) {
                Some(rand_string(rng, 32))
            } else {
                None
            },
        },
        Frame::Submit {
            text: rand_string(rng, 200),
        },
        Frame::Feed {
            stream: rand_string(rng, 16),
            points: {
                let n = rng.gen_range(0usize..20);
                (0..n).map(|_| rand_point(rng)).collect()
            },
        },
        Frame::Poll {
            query: q(rng),
            max: rng.gen_range(0u32..1 << 16),
        },
        Frame::StatsReq { query: q(rng) },
        Frame::ListQueries,
        Frame::Pause { query: q(rng) },
        Frame::Resume { query: q(rng) },
        Frame::Cancel { query: q(rng) },
        Frame::Bind {
            name: rand_string(rng, 24),
            sgs: rand_sgs(rng),
        },
        Frame::Quiesce,
        Frame::Goodbye,
        Frame::MetricsReq,
        Frame::Subscribe { query: q(rng) },
        Frame::Unsubscribe { query: q(rng) },
        Frame::HelloAck {
            server: rand_string(rng, 40),
            protocol: rng.gen_range(0u32..256) as u8,
        },
        Frame::Registered { query: q(rng) },
        Frame::Matches {
            candidates: rng.gen_range(0u64..1 << 30),
            refined: rng.gen_range(0u64..1 << 30),
            matches: {
                let n = rng.gen_range(0usize..10);
                (0..n)
                    .map(|_| WireMatch {
                        pattern: rng.gen_range(0u64..1 << 40),
                        distance: rng.gen_range(0.0f64..10.0),
                    })
                    .collect()
            },
        },
        Frame::Windows {
            query: q(rng),
            windows: {
                let n = rng.gen_range(0usize..4);
                (0..n)
                    .map(|_| WireWindow {
                        window: WindowId(rng.gen_range(0u64..1 << 30)),
                        clusters: {
                            let c = rng.gen_range(0usize..4);
                            (0..c).map(|_| rand_cluster(rng)).collect()
                        },
                    })
                    .collect()
            },
        },
        Frame::StatsReply(rand_query(rng)),
        Frame::Queries({
            let n = rng.gen_range(0usize..5);
            (0..n).map(|_| rand_query(rng)).collect()
        }),
        Frame::OkAck,
        Frame::Report {
            query: q(rng),
            stats: rand_stats(rng),
        },
        Frame::MetricsReply({
            let n = rng.gen_range(0usize..12);
            (0..n).map(|_| rand_metric(rng)).collect()
        }),
        Frame::GoAway {
            reason: rand_string(rng, 60),
            drain_millis: rng.gen_range(0u64..1 << 40),
        },
        Frame::Error {
            code: [
                ErrorCode::Protocol,
                ErrorCode::Plan,
                ErrorCode::UnknownQuery,
                ErrorCode::UnknownStream,
                ErrorCode::UnknownBinding,
                ErrorCode::InvalidTransition,
                ErrorCode::Dimension,
                ErrorCode::Internal,
                ErrorCode::QuotaExceeded,
                ErrorCode::Unauthorized,
            ][rng.gen_range(0usize..10)],
            message: rand_string(rng, 80),
        },
    ]
}

/// Compile-time guard that `all_frame_kinds` stays exhaustive: adding a
/// `Frame` variant must break this match until the generator learns it.
#[allow(dead_code)]
fn assert_generator_covers(frame: &Frame) {
    match frame {
        Frame::Hello { .. }
        | Frame::Submit { .. }
        | Frame::Feed { .. }
        | Frame::Poll { .. }
        | Frame::StatsReq { .. }
        | Frame::ListQueries
        | Frame::Pause { .. }
        | Frame::Resume { .. }
        | Frame::Cancel { .. }
        | Frame::Bind { .. }
        | Frame::Quiesce
        | Frame::Goodbye
        | Frame::MetricsReq
        | Frame::Subscribe { .. }
        | Frame::Unsubscribe { .. }
        | Frame::HelloAck { .. }
        | Frame::Registered { .. }
        | Frame::Matches { .. }
        | Frame::Windows { .. }
        | Frame::StatsReply(_)
        | Frame::Queries(_)
        | Frame::OkAck
        | Frame::Report { .. }
        | Frame::MetricsReply(_)
        | Frame::GoAway { .. }
        | Frame::Error { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// encode → decode → re-encode: value identity and byte identity,
    /// for a random instance of every frame type.
    #[test]
    fn every_frame_type_roundtrips(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for frame in all_frame_kinds(&mut rng) {
            let bytes = frame.encode();
            let (decoded, consumed) = decode(&bytes)
                .expect("valid frame must decode")
                .expect("complete frame must not ask for more bytes");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(&decoded, &frame);
            prop_assert_eq!(decoded.encode(), bytes, "re-encode must be byte-identical");
        }
    }

    /// Every strict prefix of a valid frame is "incomplete", never an
    /// error and never a bogus success.
    #[test]
    fn truncated_frames_ask_for_more_bytes(seed in 0u64..2_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for frame in all_frame_kinds(&mut rng) {
            let bytes = frame.encode();
            // Cap the scan for very large frames; always cover the
            // header and the first/last body bytes.
            let cuts: Vec<usize> = (0..bytes.len().min(64))
                .chain((bytes.len().saturating_sub(8))..bytes.len())
                .collect();
            for cut in cuts {
                prop_assert_eq!(
                    decode(&bytes[..cut]),
                    Ok(None),
                    "prefix len {} of kind {:#04x}",
                    cut,
                    frame.kind()
                );
            }
        }
    }

    /// A frame whose *interior* is truncated but whose length prefix is
    /// patched to match must fail cleanly (Truncated/Invalid), not panic.
    #[test]
    fn interior_truncation_fails_cleanly(seed in 0u64..2_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for frame in all_frame_kinds(&mut rng) {
            let bytes = frame.encode();
            if bytes.len() <= 7 {
                continue; // Bodyless frames have no interior to cut.
            }
            let cut = rng.gen_range(6usize..bytes.len() - 1);
            let mut corrupt = bytes[..cut].to_vec();
            let len = (cut - 4) as u32;
            corrupt[..4].copy_from_slice(&len.to_le_bytes());
            prop_assert!(
                decode(&corrupt).is_err(),
                "kind {:#04x} cut at {} must fail to decode",
                frame.kind(),
                cut
            );
        }
    }

    /// Oversized length prefixes are rejected before the body is even
    /// examined, regardless of what follows.
    #[test]
    fn oversized_length_is_rejected(extra in 1u64..1 << 30) {
        let len = (sgs_wire::MAX_FRAME_LEN as u64 + extra).min(u32::MAX as u64) as u32;
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 0x0B, 0, 0]);
        prop_assert_eq!(
            decode(&bytes),
            Err(WireError::Oversized { len: len as u64 })
        );
    }
}

#[test]
fn generator_covers_every_kind_byte_exactly_once() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut kinds: Vec<u8> = all_frame_kinds(&mut rng).iter().map(|f| f.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 26, "one generated frame per protocol kind");
}
