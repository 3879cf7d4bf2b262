//! Deterministic transport fault injection (`test-util` feature only).
//!
//! [`FaultTransport`] is to the wire layer what `sgs-archive`'s
//! `FaultFs` is to the storage layer: a wrapper over any
//! `Read + Write` transport that injects one fault at an **exact,
//! enumerable byte offset**, so a chaos suite can sweep every fault
//! point through every client↔server exchange deterministically.
//!
//! Fault kinds (per direction, independently):
//!
//! * [`FaultKind::Cut`] — the transport dies at the offset: the bytes
//!   before it flow normally (so a write crossing the boundary is a
//!   **partial write**), then reads see EOF and writes fail with
//!   `BrokenPipe`. Placed mid-frame this is a torn frame; on a frame
//!   boundary it is an abrupt close.
//! * [`FaultKind::CorruptBit`] — one bit of the byte at the offset is
//!   flipped (which bit depends on the offset, so sweeps exercise
//!   different bit positions); traffic otherwise continues. Hits the
//!   length prefix, version, kind, and every body byte as the sweep
//!   advances.
//! * [`FaultKind::Stall`] — the transport goes silent at the offset for
//!   the given duration (long enough to trip the peer's deadline), then
//!   dies like `Cut`.
//!
//! Orthogonally, [`FaultTransport::with_write_chop`] limits every write
//! call to a few bytes, exercising the peer's and the io layer's
//! short-write handling on the success path.

use std::io::{self, Read, Write};
use std::time::Duration;

/// What happens when a direction's byte cursor reaches [`Fault::at`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Die: EOF on reads, `BrokenPipe` on writes, from the offset on.
    Cut,
    /// Flip bit `at % 8` of the byte at the offset, then continue.
    CorruptBit,
    /// Go silent for the duration, then die like [`FaultKind::Cut`].
    Stall(Duration),
}

/// One injected fault: a byte offset (counted per direction from
/// transport creation) and what happens there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Byte offset at which the fault fires.
    pub at: u64,
    /// The failure mode.
    pub kind: FaultKind,
}

/// A `Read + Write` transport with at most one injected fault per
/// direction. See the module docs for semantics.
pub struct FaultTransport<T> {
    inner: T,
    read_fault: Option<Fault>,
    write_fault: Option<Fault>,
    read_pos: u64,
    write_pos: u64,
    write_chop: Option<usize>,
    stalled_read: bool,
    stalled_write: bool,
}

impl<T> FaultTransport<T> {
    /// Wrap a transport with no faults (transparent passthrough).
    pub fn new(inner: T) -> Self {
        FaultTransport {
            inner,
            read_fault: None,
            write_fault: None,
            read_pos: 0,
            write_pos: 0,
            write_chop: None,
            stalled_read: false,
            stalled_write: false,
        }
    }

    /// Inject a fault on the **read** (inbound) direction.
    pub fn with_read_fault(mut self, fault: Fault) -> Self {
        self.read_fault = Some(fault);
        self
    }

    /// Inject a fault on the **write** (outbound) direction.
    pub fn with_write_fault(mut self, fault: Fault) -> Self {
        self.write_fault = Some(fault);
        self
    }

    /// Cap every write call at `n` bytes, forcing the caller's
    /// short-write loop to do real work.
    pub fn with_write_chop(mut self, n: usize) -> Self {
        self.write_chop = Some(n.max(1));
        self
    }

    /// Bytes written so far (outbound cursor).
    pub fn write_pos(&self) -> u64 {
        self.write_pos
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

/// Bit flipped by [`FaultKind::CorruptBit`] at offset `at`.
fn flip_mask(at: u64) -> u8 {
    1u8 << (at % 8)
}

impl<T: Read> Read for FaultTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let fault = match self.read_fault {
            None => {
                let n = self.inner.read(buf)?;
                self.read_pos += n as u64;
                return Ok(n);
            }
            Some(f) => f,
        };
        match fault.kind {
            FaultKind::CorruptBit => {
                let n = self.inner.read(buf)?;
                let (start, end) = (self.read_pos, self.read_pos + n as u64);
                if (start..end).contains(&fault.at) {
                    buf[(fault.at - start) as usize] ^= flip_mask(fault.at);
                }
                self.read_pos = end;
                Ok(n)
            }
            FaultKind::Cut | FaultKind::Stall(_) => {
                let left = fault.at.saturating_sub(self.read_pos);
                if left == 0 {
                    if let FaultKind::Stall(d) = fault.kind {
                        if !self.stalled_read {
                            self.stalled_read = true;
                            std::thread::sleep(d);
                        }
                    }
                    return Ok(0); // simulated EOF from the fault point on
                }
                let cap = (left.min(buf.len() as u64)) as usize;
                let n = self.inner.read(&mut buf[..cap])?;
                self.read_pos += n as u64;
                Ok(n)
            }
        }
    }
}

impl<T: Write> Write for FaultTransport<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let chop = self.write_chop.unwrap_or(usize::MAX);
        let buf = &buf[..buf.len().min(chop)];
        if buf.is_empty() {
            return Ok(0);
        }
        let fault = match self.write_fault {
            None => {
                let n = self.inner.write(buf)?;
                self.write_pos += n as u64;
                return Ok(n);
            }
            Some(f) => f,
        };
        match fault.kind {
            FaultKind::CorruptBit => {
                let (start, end) = (self.write_pos, self.write_pos + buf.len() as u64);
                let n = if (start..end).contains(&fault.at) {
                    let mut copy = buf.to_vec();
                    copy[(fault.at - start) as usize] ^= flip_mask(fault.at);
                    self.inner.write(&copy)?
                } else {
                    self.inner.write(buf)?
                };
                self.write_pos += n as u64;
                Ok(n)
            }
            FaultKind::Cut | FaultKind::Stall(_) => {
                let left = fault.at.saturating_sub(self.write_pos);
                if left == 0 {
                    if let FaultKind::Stall(d) = fault.kind {
                        if !self.stalled_write {
                            self.stalled_write = true;
                            std::thread::sleep(d);
                        }
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "injected transport cut",
                    ));
                }
                // A write crossing the boundary lands partially: the
                // bytes before the fault reach the peer.
                let cap = (left.min(buf.len() as u64)) as usize;
                let n = self.inner.write(&buf[..cap])?;
                self.write_pos += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::io::{read_frame, write_frame, RecvError};
    use crate::WireError;

    fn hello() -> Frame {
        Frame::Hello {
            client: "chaos".into(),
            token: None,
        }
    }

    #[test]
    fn passthrough_and_chopped_writes_roundtrip() {
        let mut t = FaultTransport::new(Vec::new()).with_write_chop(1);
        write_frame(&mut t, &hello()).unwrap();
        let bytes = t.into_inner();
        let mut rd = FaultTransport::new(io::Cursor::new(bytes));
        assert_eq!(read_frame(&mut rd).unwrap(), hello());
    }

    #[test]
    fn cut_mid_frame_reads_as_unexpected_eof() {
        let bytes = hello().encode();
        for at in 1..bytes.len() as u64 {
            let mut rd =
                FaultTransport::new(io::Cursor::new(bytes.clone())).with_read_fault(Fault {
                    at,
                    kind: FaultKind::Cut,
                });
            match read_frame(&mut rd) {
                Err(RecvError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("cut at {at}: expected UnexpectedEof, got {other:?}"),
            }
        }
    }

    #[test]
    fn cut_on_a_frame_boundary_is_a_clean_close() {
        let bytes = hello().encode();
        let mut rd = FaultTransport::new(io::Cursor::new(bytes.clone())).with_read_fault(Fault {
            at: bytes.len() as u64,
            kind: FaultKind::Cut,
        });
        assert_eq!(read_frame(&mut rd).unwrap(), hello());
        assert!(matches!(read_frame(&mut rd), Err(RecvError::Closed)));
    }

    #[test]
    fn corrupting_the_version_byte_is_a_typed_wire_error() {
        let bytes = hello().encode();
        // Offset 4 is the version byte; bit 4 % 8 = 0x10 flips 3 → 0x13.
        let mut rd = FaultTransport::new(io::Cursor::new(bytes)).with_read_fault(Fault {
            at: 4,
            kind: FaultKind::CorruptBit,
        });
        assert!(matches!(
            read_frame(&mut rd),
            Err(RecvError::Wire(WireError::Version(_)))
        ));
    }

    #[test]
    fn corrupting_the_length_prefix_cannot_balloon_memory() {
        let bytes = hello().encode();
        // Offset 3 is the length prefix's high byte: flipping bit 3 of
        // it announces a ~128 MiB payload, above MAX_FRAME_LEN.
        let mut rd = FaultTransport::new(io::Cursor::new(bytes)).with_read_fault(Fault {
            at: 3,
            kind: FaultKind::CorruptBit,
        });
        assert!(matches!(
            read_frame(&mut rd),
            Err(RecvError::Wire(WireError::Oversized { .. }))
        ));
    }

    #[test]
    fn write_cut_is_a_partial_write_then_broken_pipe() {
        let mut t = FaultTransport::new(Vec::new()).with_write_fault(Fault {
            at: 3,
            kind: FaultKind::Cut,
        });
        let err = write_frame(&mut t, &hello()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.write_pos(), 3);
        assert_eq!(t.into_inner().len(), 3);
    }
}
