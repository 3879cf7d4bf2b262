//! Panic-free encoding and decoding of [`Frame`]s.
//!
//! The writer is a plain `Vec<u8>`; the reader is a checked cursor that
//! bounds every count against the bytes actually present **before**
//! allocating, so a corrupt length or count can produce only a
//! [`WireError`], never an over-read panic or an outsized allocation.

use std::sync::Arc;

use sgs_core::{Point, PointId, WindowId};
use sgs_csgs::ExtractedCluster;
use sgs_summarize::codec::{self as sgs_codec, DecodeError};

use crate::frame::{
    ErrorCode, Frame, WireMatch, WireMetric, WireMetricValue, WireQuery, WireQueryState, WireStats,
    WireWindow,
};
use crate::{MAX_FRAME_LEN, WIRE_VERSION};

/// Why a byte sequence is not a valid frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix announces a payload above [`MAX_FRAME_LEN`]
    /// (or below the 2-byte version+kind minimum).
    Oversized {
        /// The announced payload length.
        len: u64,
    },
    /// The frame carries a protocol version this decoder does not speak.
    Version(u8),
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// The payload ended before its grammar was satisfied (a count or
    /// string pointing past the end of the frame).
    Truncated,
    /// The payload decoded fully but bytes remained.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A field violated its invariant (bad UTF-8, unknown enum code,
    /// zero dimensionality, out-of-range connection index, ...).
    Invalid(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "frame length {len} outside 2..={MAX_FRAME_LEN}")
            }
            WireError::Version(v) => {
                write!(f, "protocol version {v} (this build speaks {WIRE_VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Truncated => write!(f, "payload truncated mid-field"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the frame body")
            }
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::Invalid(what) => WireError::Invalid(what),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_point(out: &mut Vec<u8>, p: &Point) {
    put_u64(out, p.ts);
    put_u16(out, p.coords.len() as u16);
    for &c in p.coords.iter() {
        put_f64(out, c);
    }
}

fn put_cluster(out: &mut Vec<u8>, c: &ExtractedCluster) {
    put_u32(out, c.cores.len() as u32);
    for id in &c.cores {
        put_u32(out, id.0);
    }
    put_u32(out, c.edges.len() as u32);
    for id in &c.edges {
        put_u32(out, id.0);
    }
    sgs_codec::encode(&c.sgs, out);
}

fn put_stats(out: &mut Vec<u8>, s: &WireStats) {
    put_u64(out, s.points);
    put_u64(out, s.windows);
    put_u64(out, s.clusters);
    put_u64(out, s.archived);
    put_u64(out, s.archive_bytes);
    put_u64(out, s.busy_nanos);
    put_opt_str(out, s.error.as_deref());
}

fn put_query(out: &mut Vec<u8>, q: &WireQuery) {
    put_u64(out, q.query);
    out.push(q.state.code());
    put_str(out, &q.text);
    put_stats(out, &q.stats);
}

fn put_metric(out: &mut Vec<u8>, m: &WireMetric) {
    put_str(out, &m.name);
    match m.value {
        WireMetricValue::Counter(v) => {
            out.push(0);
            put_u64(out, v);
        }
        WireMetricValue::Gauge(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        WireMetricValue::Histogram {
            count,
            sum,
            max,
            p50,
            p95,
            p99,
        } => {
            out.push(2);
            put_u64(out, count);
            put_u64(out, sum);
            put_u64(out, max);
            put_u64(out, p50);
            put_u64(out, p95);
            put_u64(out, p99);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Checked cursor over one frame's body.
struct Rd<'a> {
    buf: &'a [u8],
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` element count, validated against the bytes actually left
    /// (each element occupies at least `min_elem_bytes`), so a hostile
    /// count cannot drive an outsized `Vec` pre-allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("string not UTF-8"))
    }

    fn opt_str(&mut self) -> Result<Option<String>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(WireError::Invalid("option flag")),
        }
    }

    fn point(&mut self) -> Result<Point, WireError> {
        let ts = self.u64()?;
        let dim = self.u16()? as usize;
        if dim == 0 {
            return Err(WireError::Invalid("zero-dimensional point"));
        }
        let mut coords = Vec::with_capacity(dim.min(self.buf.len() / 8));
        for _ in 0..dim {
            let c = self.f64()?;
            if !c.is_finite() {
                // NaN/Inf would silently poison grid assignment and
                // distance math; reject at the wire boundary.
                return Err(WireError::Invalid("non-finite point coordinate"));
            }
            coords.push(c);
        }
        Ok(Point::new(coords, ts))
    }

    fn point_ids(&mut self) -> Result<Vec<PointId>, WireError> {
        let n = self.count(4)?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(PointId(self.u32()?));
        }
        Ok(ids)
    }

    fn cluster(&mut self) -> Result<Arc<ExtractedCluster>, WireError> {
        Ok(Arc::new(ExtractedCluster {
            cores: self.point_ids()?,
            edges: self.point_ids()?,
            sgs: sgs_codec::decode(&mut self.buf)?,
        }))
    }

    fn stats(&mut self) -> Result<WireStats, WireError> {
        Ok(WireStats {
            points: self.u64()?,
            windows: self.u64()?,
            clusters: self.u64()?,
            archived: self.u64()?,
            archive_bytes: self.u64()?,
            busy_nanos: self.u64()?,
            error: self.opt_str()?,
        })
    }

    fn query(&mut self) -> Result<WireQuery, WireError> {
        Ok(WireQuery {
            query: self.u64()?,
            state: WireQueryState::from_code(self.u8()?)
                .ok_or(WireError::Invalid("query state code"))?,
            text: self.str()?,
            stats: self.stats()?,
        })
    }

    fn metric(&mut self) -> Result<WireMetric, WireError> {
        let name = self.str()?;
        let value = match self.u8()? {
            0 => WireMetricValue::Counter(self.u64()?),
            1 => WireMetricValue::Gauge(self.i64()?),
            2 => WireMetricValue::Histogram {
                count: self.u64()?,
                sum: self.u64()?,
                max: self.u64()?,
                p50: self.u64()?,
                p95: self.u64()?,
                p99: self.u64()?,
            },
            _ => return Err(WireError::Invalid("metric value tag")),
        };
        Ok(WireMetric { name, value })
    }
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

impl Frame {
    /// Encode into complete wire bytes (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; 4]; // length prefix patched below
        out.push(WIRE_VERSION);
        out.push(self.kind());
        self.encode_body(&mut out);
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { client, token } => {
                put_str(out, client);
                put_opt_str(out, token.as_deref());
            }
            Frame::Submit { text } => put_str(out, text),
            Frame::Feed { stream, points } => {
                put_str(out, stream);
                put_u32(out, points.len() as u32);
                for p in points {
                    put_point(out, p);
                }
            }
            Frame::Poll { query, max } => {
                put_u64(out, *query);
                put_u32(out, *max);
            }
            Frame::StatsReq { query }
            | Frame::Pause { query }
            | Frame::Resume { query }
            | Frame::Cancel { query }
            | Frame::Subscribe { query }
            | Frame::Unsubscribe { query }
            | Frame::Registered { query } => put_u64(out, *query),
            Frame::ListQueries
            | Frame::Quiesce
            | Frame::Goodbye
            | Frame::MetricsReq
            | Frame::OkAck => {}
            Frame::Bind { name, sgs } => {
                put_str(out, name);
                sgs_codec::encode(sgs, out);
            }
            Frame::HelloAck { server, protocol } => {
                put_str(out, server);
                out.push(*protocol);
            }
            Frame::Matches {
                candidates,
                refined,
                matches,
            } => {
                put_u64(out, *candidates);
                put_u64(out, *refined);
                put_u32(out, matches.len() as u32);
                for m in matches {
                    put_u64(out, m.pattern);
                    put_f64(out, m.distance);
                }
            }
            Frame::Windows { query, windows } => {
                put_u64(out, *query);
                put_u32(out, windows.len() as u32);
                for w in windows {
                    put_u64(out, w.window.0);
                    put_u32(out, w.clusters.len() as u32);
                    for c in &w.clusters {
                        put_cluster(out, c);
                    }
                }
            }
            Frame::StatsReply(q) => put_query(out, q),
            Frame::Queries(qs) => {
                put_u32(out, qs.len() as u32);
                for q in qs {
                    put_query(out, q);
                }
            }
            Frame::Report { query, stats } => {
                put_u64(out, *query);
                put_stats(out, stats);
            }
            Frame::MetricsReply(metrics) => {
                put_u32(out, metrics.len() as u32);
                for m in metrics {
                    put_metric(out, m);
                }
            }
            Frame::GoAway {
                reason,
                drain_millis,
            } => {
                put_str(out, reason);
                put_u64(out, *drain_millis);
            }
            Frame::Error { code, message } => {
                put_u16(out, code.code());
                put_str(out, message);
            }
        }
    }

    fn decode_body(kind: u8, rd: &mut Rd<'_>) -> Result<Frame, WireError> {
        Ok(match kind {
            0x01 => Frame::Hello {
                client: rd.str()?,
                token: rd.opt_str()?,
            },
            0x02 => Frame::Submit { text: rd.str()? },
            0x03 => {
                let stream = rd.str()?;
                let n = rd.count(8 + 2)?;
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push(rd.point()?);
                }
                Frame::Feed { stream, points }
            }
            0x04 => Frame::Poll {
                query: rd.u64()?,
                max: rd.u32()?,
            },
            0x05 => Frame::StatsReq { query: rd.u64()? },
            0x06 => Frame::ListQueries,
            0x07 => Frame::Pause { query: rd.u64()? },
            0x08 => Frame::Resume { query: rd.u64()? },
            0x09 => Frame::Cancel { query: rd.u64()? },
            0x0A => Frame::Bind {
                name: rd.str()?,
                sgs: sgs_codec::decode(&mut rd.buf)?,
            },
            0x0B => Frame::Quiesce,
            0x0C => Frame::Goodbye,
            0x0D => Frame::MetricsReq,
            0x0E => Frame::Subscribe { query: rd.u64()? },
            0x0F => Frame::Unsubscribe { query: rd.u64()? },
            0x81 => Frame::HelloAck {
                server: rd.str()?,
                protocol: rd.u8()?,
            },
            0x82 => Frame::Registered { query: rd.u64()? },
            0x83 => {
                let candidates = rd.u64()?;
                let refined = rd.u64()?;
                let n = rd.count(8 + 8)?;
                let mut matches = Vec::with_capacity(n);
                for _ in 0..n {
                    matches.push(WireMatch {
                        pattern: rd.u64()?,
                        distance: rd.f64()?,
                    });
                }
                Frame::Matches {
                    candidates,
                    refined,
                    matches,
                }
            }
            0x84 => {
                let query = rd.u64()?;
                let n = rd.count(8 + 4)?;
                let mut windows = Vec::with_capacity(n);
                for _ in 0..n {
                    let window = WindowId(rd.u64()?);
                    let n_clusters = rd.count(4 + 4)?;
                    let mut clusters = Vec::with_capacity(n_clusters);
                    for _ in 0..n_clusters {
                        clusters.push(rd.cluster()?);
                    }
                    windows.push(WireWindow { window, clusters });
                }
                Frame::Windows { query, windows }
            }
            0x85 => Frame::StatsReply(rd.query()?),
            0x86 => {
                let n = rd.count(8 + 1 + 4)?;
                let mut qs = Vec::with_capacity(n);
                for _ in 0..n {
                    qs.push(rd.query()?);
                }
                Frame::Queries(qs)
            }
            0x87 => Frame::OkAck,
            0x88 => Frame::Report {
                query: rd.u64()?,
                stats: rd.stats()?,
            },
            0x89 => {
                // Min element bytes: name length u32 + value tag u8 +
                // the smallest value body (counter/gauge, 8 bytes).
                let n = rd.count(4 + 1 + 8)?;
                let mut metrics = Vec::with_capacity(n);
                for _ in 0..n {
                    metrics.push(rd.metric()?);
                }
                Frame::MetricsReply(metrics)
            }
            0x8A => Frame::GoAway {
                reason: rd.str()?,
                drain_millis: rd.u64()?,
            },
            0xFF => Frame::Error {
                code: ErrorCode::from_code(rd.u16()?).ok_or(WireError::Invalid("error code"))?,
                message: rd.str()?,
            },
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// Streaming decode: parse one frame off the front of `buf`.
///
/// * `Ok(None)` — `buf` holds a valid prefix but not yet a whole frame;
///   read more bytes and call again.
/// * `Ok(Some((frame, consumed)))` — one frame decoded; drop `consumed`
///   bytes from the front of `buf`.
/// * `Err(_)` — the stream is corrupt (or hostile); the connection
///   should be closed.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return Err(WireError::Oversized { len: len as u64 });
    }
    let Some(payload) = buf.get(4..4 + len) else {
        return Ok(None);
    };
    let version = payload[0];
    if version != WIRE_VERSION {
        return Err(WireError::Version(version));
    }
    let kind = payload[1];
    let mut rd = Rd { buf: &payload[2..] };
    let frame = Frame::decode_body(kind, &mut rd)?;
    if !rd.buf.is_empty() {
        return Err(WireError::TrailingBytes {
            extra: rd.buf.len(),
        });
    }
    Ok(Some((frame, 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_header_and_split_payload_want_more_bytes() {
        let bytes = Frame::Quiesce.encode();
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), Ok(None), "prefix of {cut} bytes");
        }
        let (frame, consumed) = decode(&bytes).unwrap().unwrap();
        assert_eq!(frame, Frame::Quiesce);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn oversized_and_undersized_lengths_are_rejected() {
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[WIRE_VERSION, 0x0B]);
        assert!(matches!(decode(&huge), Err(WireError::Oversized { .. })));
        let tiny = 1u32.to_le_bytes().to_vec();
        assert!(matches!(
            decode(&tiny),
            Err(WireError::Oversized { len: 1 })
        ));
    }

    #[test]
    fn version_and_kind_are_validated() {
        // A version-4 peer (whose `WireStats` carried a seventh `u64`) is
        // refused, not misparsed, and so is any later version.
        for version in [4, WIRE_VERSION + 1] {
            let mut bytes = Frame::Quiesce.encode();
            bytes[4] = version;
            assert_eq!(decode(&bytes), Err(WireError::Version(version)));
        }
        let mut bytes = Frame::Quiesce.encode();
        bytes[5] = 0x60;
        assert_eq!(decode(&bytes), Err(WireError::UnknownKind(0x60)));
    }

    #[test]
    fn trailing_bytes_inside_a_frame_are_rejected() {
        let mut bytes = Frame::OkAck.encode();
        bytes.push(0xAB);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn hostile_count_cannot_force_a_large_allocation() {
        // A Feed frame claiming u32::MAX points in a 20-byte payload must
        // fail on the count bound, before any per-point work.
        let mut out = Vec::new();
        out.push(WIRE_VERSION);
        out.push(0x03);
        put_str(&mut out, "gmti");
        put_u32(&mut out, u32::MAX);
        let mut bytes = ((out.len()) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&out);
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
    }
}
