//! Append-only, CRC-framed, fsync'd journal for crash-safe resume.
//!
//! Frame layout (little-endian): `[len: u32][crc32(payload): u32]
//! [payload; len]`. Every append is followed by `fdatasync`, so a frame
//! that made it past [`Journal::append`] survives SIGKILL and power
//! loss (to the extent the filesystem honors fsync). A crash *during*
//! an append leaves a torn tail — a short header, a short payload, or
//! a payload whose checksum disagrees — which [`Journal::open`]
//! detects, reports, and truncates away, recovering every complete
//! frame before it. Frames are opaque bytes; the campaign layer defines
//! its own record codec on top.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Sanity cap on one frame: a journal claiming a larger payload is
/// treated as torn (a wild length from a half-written header would
/// otherwise ask for a gigabyte read).
const MAX_FRAME: u32 = 1 << 30;

/// CRC-32 (IEEE 802.3, reflected) — the ubiquitous `crc32` seen in
/// zip/png/ethernet — over a const-built table.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// An open journal positioned at its (validated) end.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Validated length: everything below this offset is complete
    /// frames; appends go here.
    len: u64,
}

/// What [`Journal::open`] recovered.
pub struct Recovered {
    /// The journal, ready to append.
    pub journal: Journal,
    /// Payloads of every complete frame, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn/corrupt tail that were truncated away (0 for a
    /// clean journal).
    pub truncated_bytes: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays every complete
    /// frame, and truncates any torn tail so subsequent appends extend
    /// a consistent file.
    pub fn open(path: &Path) -> io::Result<Recovered> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.seek(SeekFrom::End(0))?;
        file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut pos = 0usize;
        // `get` rather than slicing: a short header means a clean EOF
        // or a torn final frame, and either way the scan stops there.
        while let Some(header) = bytes.get(pos..pos + 8) {
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4B")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4B"));
            if len as u64 > MAX_FRAME as u64 {
                break; // wild length: torn header
            }
            let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
                break; // torn payload
            };
            if crc32(payload) != crc {
                break; // corrupt payload (or torn header over old data)
            }
            records.push(payload.to_vec());
            pos += 8 + len;
        }

        let truncated = file_len - pos as u64;
        if truncated > 0 {
            file.set_len(pos as u64)?;
            file.sync_data()?;
        }
        Ok(Recovered {
            journal: Journal {
                file,
                path: path.to_path_buf(),
                len: pos as u64,
            },
            records,
            truncated_bytes: truncated,
        })
    }

    /// Appends one frame and syncs it to stable storage before
    /// returning: once this returns `Ok`, the record survives a crash.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        assert!(payload.len() as u64 <= MAX_FRAME as u64, "frame too large");
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// The journal's path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ctsim-journal-{}-{tag}.bin", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trips_and_recovers_after_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap().journal;
            j.append(b"alpha").unwrap();
            j.append(b"").unwrap();
            j.append(&[0xFFu8; 300]).unwrap();
        }
        let r = Journal::open(&path).unwrap();
        assert_eq!(r.truncated_bytes, 0);
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0], b"alpha");
        assert_eq!(r.records[1], b"");
        assert_eq!(r.records[2], vec![0xFFu8; 300]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap().journal;
            j.append(b"kept-1").unwrap();
            j.append(b"kept-2").unwrap();
        }
        // Simulate a crash mid-append: a full header promising 100
        // bytes but only 3 bytes of payload behind it.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
            f.write_all(b"abc").unwrap();
        }
        let r = Journal::open(&path).unwrap();
        assert_eq!(r.records.len(), 2, "complete frames recovered");
        assert_eq!(r.truncated_bytes, 11, "torn tail dropped");
        let mut j = r.journal;
        j.append(b"kept-3").unwrap();
        let r = Journal::open(&path).unwrap();
        assert_eq!(r.truncated_bytes, 0);
        assert_eq!(
            r.records,
            vec![b"kept-1".to_vec(), b"kept-2".to_vec(), b"kept-3".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_invalidates_the_tail() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap().journal;
            j.append(b"good").unwrap();
            j.append(b"flipped").unwrap();
        }
        // Flip one payload byte of the second frame.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let off = 8 + 4 + 8; // first frame + second header
            bytes[off] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
        }
        let r = Journal::open(&path).unwrap();
        assert_eq!(r.records, vec![b"good".to_vec()]);
        assert!(r.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
