//! Page-based store file (`DESIGN.md` §10).
//!
//! The checkpointed pattern base lives in a page-structured store file:
//! page 0 is a checksummed header (magic, page size, the WAL sequence
//! number the snapshot has applied, payload length), pages 1… carry the
//! `persist` byte stream zero-padded to the page size. Recovery reads
//! the payload once, front to back, through `payload_reader`.

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

/// Sequential [`Read`] over the payload range
/// `[PAGE_SIZE, PAGE_SIZE + payload_len)` of a store file, one
/// [`ArchiveIo::read_at`] per call.
struct PayloadSource<'a> {
    io: &'a mut dyn ArchiveIo,
    name: &'a str,
    /// Absolute file offset of the next payload byte.
    pos: u64,
    /// Absolute file offset one past the last payload byte.
    end: u64,
}

impl Read for PayloadSource<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.end || buf.is_empty() {
            return Ok(0);
        }
        let left = usize::try_from(self.end - self.pos).unwrap_or(usize::MAX);
        let want = buf.len().min(left);
        let n = self.io.read_at(self.name, self.pos, &mut buf[..want])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "store shorter than header payload length",
            ));
        }
        self.pos += n as u64;
        Ok(n)
    }
}

/// Streaming reader over the payload of store `name` described by
/// `header` — `persist::load_from` runs on top of it. Checkpoints are
/// read once, front to back, so one page-sized buffer is all the
/// caching it does; a store cut short of `payload_len` fails with
/// [`io::ErrorKind::UnexpectedEof`].
pub(crate) fn payload_reader<'a>(
    io: &'a mut dyn ArchiveIo,
    name: &'a str,
    header: StoreHeader,
) -> impl Read + 'a {
    let start = PAGE_SIZE as u64;
    io::BufReader::with_capacity(
        PAGE_SIZE,
        PayloadSource {
            io,
            name,
            pos: start,
            end: start.saturating_add(header.payload_len),
        },
    )
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

    #[test]
    fn payload_reader_round_trips_pages_and_tail() {
        let payload: Vec<u8> = (0..3 * PAGE_SIZE + 123).map(|i| (i % 253) as u8).collect();
        let mut fs = FaultFs::new();
        fs.write_file_atomic("base.store", &encode_store(0, &payload))
            .unwrap();
        let header = read_header(&mut fs, "base.store").unwrap().unwrap();
        let mut out = Vec::new();
        payload_reader(&mut fs, "base.store", header)
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, payload);
    }
}
