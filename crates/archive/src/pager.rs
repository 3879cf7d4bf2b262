//! Page-structured store file and its sequential reader (`DESIGN.md` §10).
//!
//! The checkpointed pattern base lives in a page-structured store file:
//! page 0 is a checksummed header (magic, page size, the WAL sequence
//! number the snapshot has applied, payload length), pages 1… carry the
//! `persist` byte stream zero-padded to the page size. The only reader is
//! recovery, which scans the payload once front to back through a
//! [`StoreReader`] holding a single page; nothing re-reads a page, so
//! there is no cache to manage.

use std::io::{self, Read};

use crate::io::ArchiveIo;

/// Store page size. 4 KiB matches the common filesystem block, so a torn
/// physical write maps to at most one logical page.
pub const PAGE_SIZE: usize = 4096;

const MAGIC: &[u8; 8] = b"SGSPAGE1";
/// Bytes of the header page actually used (the rest is zero padding):
/// magic 8 + page_size 4 + applied_seq 8 + payload_len 8 + crc 4.
const HEADER_USED: usize = 32;

/// Decoded page-0 header of a store file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// WAL sequence number up to which (exclusive) this snapshot has
    /// applied records — replay skips anything older.
    pub applied_seq: u64,
    /// Exact byte length of the persist stream in the payload pages.
    pub payload_len: u64,
}

/// Build the full store-file image: header page then payload pages.
pub fn encode_store(applied_seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_USED);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    header.extend_from_slice(&applied_seq.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crate::wal::crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());

    let payload_pages = payload.len().div_ceil(PAGE_SIZE);
    let mut image = vec![0u8; (1 + payload_pages) * PAGE_SIZE];
    image[..HEADER_USED].copy_from_slice(&header);
    image[PAGE_SIZE..PAGE_SIZE + payload.len()].copy_from_slice(payload);
    image
}

/// Read and validate the header page of store file `name`. Returns
/// `Ok(None)` when the file does not exist; a present-but-invalid header
/// (bad magic, bad CRC, short page) is an error — the store is corrupt,
/// not absent.
pub fn read_header(io: &mut dyn ArchiveIo, name: &str) -> io::Result<Option<StoreHeader>> {
    if io.file_len(name)?.is_none() {
        return Ok(None);
    }
    let mut page = [0u8; HEADER_USED];
    let n = io.read_at(name, 0, &mut page)?;
    if n < HEADER_USED || &page[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "store header damaged",
        ));
    }
    let crc = u32::from_le_bytes(page[28..32].try_into().unwrap());
    if crate::wal::crc32(&page[..28]) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "store header checksum mismatch",
        ));
    }
    let page_size = u32::from_le_bytes(page[8..12].try_into().unwrap());
    if page_size as usize != PAGE_SIZE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("store page size {page_size} unsupported"),
        ));
    }
    Ok(Some(StoreHeader {
        applied_seq: u64::from_le_bytes(page[12..20].try_into().unwrap()),
        payload_len: u64::from_le_bytes(page[20..28].try_into().unwrap()),
    }))
}

/// Read counters of one [`StoreReader`] pass. The names predate the
/// reader (the frozen benchmark reads them as `pool_stats()`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `read` calls served from the page already in hand.
    pub hits: u64,
    /// Store pages fetched through [`ArchiveIo::read_at`].
    pub misses: u64,
}

/// Sequential [`Read`] over a store file's payload — `persist` decodes a
/// checkpoint on top of this, front to back, so recovery never buffers
/// more than one store page however large the archive is.
pub struct StoreReader<'a> {
    io: &'a mut dyn ArchiveIo,
    name: &'a str,
    payload_len: u64,
    pos: u64,
    /// The payload page `pos` lies in, once fetched.
    page: Box<[u8; PAGE_SIZE]>,
    /// Counters of this pass.
    pub stats: PoolStats,
}

impl<'a> StoreReader<'a> {
    /// Reader over the payload of store `name` described by `header`.
    pub fn new(io: &'a mut dyn ArchiveIo, name: &'a str, header: StoreHeader) -> StoreReader<'a> {
        StoreReader {
            io,
            name,
            payload_len: header.payload_len,
            pos: 0,
            page: Box::new([0u8; PAGE_SIZE]),
            stats: PoolStats::default(),
        }
    }
}

impl Read for StoreReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.payload_len || buf.is_empty() {
            return Ok(0);
        }
        let offset = (self.pos % PAGE_SIZE as u64) as usize;
        let page_start = self.pos - offset as u64;
        let in_page = (self.payload_len - page_start).min(PAGE_SIZE as u64) as usize;
        // The scan only moves forward and no read crosses a page, so
        // `pos` sits on a page boundary exactly when the page in hand is
        // used up.
        if offset == 0 {
            // The payload starts after the header page.
            let at = PAGE_SIZE as u64 + page_start;
            let n = self.io.read_at(self.name, at, &mut self.page[..in_page])?;
            if n < in_page {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "store shorter than header payload length",
                ));
            }
            self.stats.misses += 1;
        } else {
            self.stats.hits += 1;
        }
        let n = buf.len().min(in_page - offset);
        buf[..n].copy_from_slice(&self.page[offset..offset + n]);
        self.pos += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FaultFs;

    #[test]
    fn store_header_roundtrip() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let image = encode_store(42, &payload);
        assert_eq!(image.len() % PAGE_SIZE, 0);
        let mut fs = FaultFs::new();
        fs.write_file_atomic("base.store", &image).unwrap();
        let header = read_header(&mut fs, "base.store").unwrap().unwrap();
        assert_eq!(header.applied_seq, 42);
        assert_eq!(header.payload_len, payload.len() as u64);
        assert_eq!(read_header(&mut fs, "absent").unwrap(), None);
    }

    #[test]
    fn damaged_header_is_an_error_not_absence() {
        let mut fs = FaultFs::new();
        let mut image = encode_store(1, b"payload");
        image[3] ^= 0x40; // corrupt the magic
        fs.write_file_atomic("bad", &image).unwrap();
        assert!(read_header(&mut fs, "bad").is_err());
        let mut image = encode_store(1, b"payload");
        image[15] ^= 0x01; // corrupt applied_seq under the CRC
        fs.write_file_atomic("bad", &image).unwrap();
        assert!(read_header(&mut fs, "bad").is_err());
    }

    /// The reader streams: whatever the payload size, every store page
    /// is fetched exactly once, in order, into the one page buffer.
    #[test]
    fn store_reader_streams_payload_one_page_at_a_time() {
        for len in [3 * PAGE_SIZE + 123, 2 * PAGE_SIZE, 1, 0] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            let mut fs = FaultFs::new();
            fs.write_file_atomic("base.store", &encode_store(0, &payload))
                .unwrap();
            let header = read_header(&mut fs, "base.store").unwrap().unwrap();
            let mut reader = StoreReader::new(&mut fs, "base.store", header);
            // A read size that does not divide the page, so reads get cut
            // at page boundaries.
            let mut out = Vec::new();
            let mut chunk = [0u8; 1000];
            loop {
                let n = reader.read(&mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&chunk[..n]);
            }
            assert_eq!(out, payload);
            assert_eq!(reader.stats.misses, len.div_ceil(PAGE_SIZE) as u64);
        }
    }
}
