//! The on-disk record format of the result store, and the recovery scanner
//! that rebuilds the in-memory index from a (possibly torn) log.
//!
//! A log is a flat sequence of records, each:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        0x464d5331 ("FMS1"), little-endian
//! 4       4     key length   bytes of the key, LE u32
//! 8       4     body length  bytes of the body, LE u32
//! 12      8     checksum     FNV-1a-64 over key bytes ++ body bytes, LE
//! 20      K     key          UTF-8, the canonical SimKey string
//! 20+K    B     body         UTF-8, the rendered result JSON
//! ```
//!
//! Crash-safety rests on two properties: records are **appended** (never
//! rewritten), and the scanner **truncates at the first invalid record** —
//! a kill mid-write leaves a torn tail (short header, short payload, or a
//! checksum mismatch) which recovery discards, restoring the log to the
//! last fully-durable record. Duplicate keys are legal; the last record
//! wins, so re-running an experiment simply supersedes the old entry.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read};

use fetchmech::isa::{fnv1a64_extend, FNV_OFFSET};

/// Per-record magic ("FMS1" — fetchmech store, format 1).
pub(crate) const MAGIC: u32 = 0x464d_5331;

/// Fixed bytes before each record's payload.
pub(crate) const HEADER_BYTES: usize = 20;

/// Sanity cap on key length; anything larger marks a corrupt record.
pub(crate) const MAX_KEY_BYTES: u32 = 4 * 1024;

/// Sanity cap on body length; anything larger marks a corrupt record.
pub(crate) const MAX_BODY_BYTES: u32 = 16 * 1024 * 1024;

/// FNV-1a 64 over the concatenation of `parts`.
#[must_use]
pub(crate) fn checksum(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .fold(FNV_OFFSET, |h, part| fnv1a64_extend(h, part))
}

/// Serializes one record (header + payload) into a contiguous buffer, so the
/// writer can append it with as few syscalls as the fault schedule allows.
#[must_use]
pub(crate) fn encode_record(key: &str, body: &str) -> Vec<u8> {
    let key = key.as_bytes();
    let body = body.as_bytes();
    let mut out = Vec::with_capacity(HEADER_BYTES + key.len() + body.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(key.len())
            .expect("key fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(
        &u32::try_from(body.len())
            .expect("body fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&checksum(&[key, body]).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(body);
    out
}

/// Where a body lives in the log: `(byte offset, byte length)`.
pub(crate) type BodySpan = (u64, u32);

/// What the recovery scan found.
#[derive(Debug)]
pub(crate) struct ScanOutcome {
    /// Key → span of the *latest* record for that key.
    pub index: HashMap<String, BodySpan>,
    /// Bytes of the log that form whole, checksummed records; everything
    /// past this offset is a torn tail to truncate.
    pub valid_len: u64,
    /// Whole records seen (including superseded duplicates).
    pub records: u64,
}

/// Scans the log from the start, accepting records until the first torn or
/// corrupt one. Never writes; the caller truncates to `valid_len`.
///
/// # Errors
///
/// Only genuine read errors propagate — torn tails, bad magic, oversized
/// lengths, and checksum mismatches all just end the scan.
pub(crate) fn scan(file: &mut File) -> std::io::Result<ScanOutcome> {
    let mut reader = BufReader::new(file);
    let mut index = HashMap::new();
    let mut offset: u64 = 0;
    let mut records: u64 = 0;
    loop {
        let mut header = [0u8; HEADER_BYTES];
        if !read_exact_or_eof(&mut reader, &mut header)? {
            break;
        }
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let key_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let body_len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let want = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        if magic != MAGIC || key_len > MAX_KEY_BYTES || body_len > MAX_BODY_BYTES {
            break;
        }
        let mut payload = vec![0u8; key_len as usize + body_len as usize];
        if !read_exact_or_eof(&mut reader, &mut payload)? {
            break;
        }
        let (key, body) = payload.split_at(key_len as usize);
        if checksum(&[key, body]) != want {
            break;
        }
        let Ok(key) = std::str::from_utf8(key) else {
            break;
        };
        let body_off = offset + HEADER_BYTES as u64 + u64::from(key_len);
        index.insert(key.to_string(), (body_off, body_len));
        offset += (HEADER_BYTES + payload.len()) as u64;
        records += 1;
    }
    Ok(ScanOutcome {
        index,
        valid_len: offset,
        records,
    })
}

/// Fills `buf` exactly, or reports `false` when EOF arrives first (a torn
/// tail). Transient `Interrupted` reads are retried.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Seek, SeekFrom, Write};

    fn temp_log(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "fetchmech-logtest-{}-{name}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn write_log(path: &std::path::Path, chunks: &[&[u8]]) -> File {
        let mut f = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .expect("create log");
        for chunk in chunks {
            f.write_all(chunk).expect("write chunk");
        }
        f.seek(SeekFrom::Start(0)).expect("rewind");
        f
    }

    #[test]
    fn checksum_is_pinned_fnv1a64() {
        // Logs written by earlier builds must keep opening.
        assert_eq!(
            checksum(&[b"sim:key", b"{\"body\":1}"]),
            0x4e22_2db3_8c3e_54a6
        );
    }

    #[test]
    fn roundtrip_and_last_write_wins() {
        let r1 = encode_record("k1", "body-one");
        let r2 = encode_record("k2", "body-two");
        let r3 = encode_record("k1", "body-one-v2");
        let path = temp_log("roundtrip");
        let mut f = write_log(&path, &[&r1, &r2, &r3]);
        let out = scan(&mut f).expect("scan");
        assert_eq!(out.records, 3);
        assert_eq!(out.valid_len, (r1.len() + r2.len() + r3.len()) as u64);
        assert_eq!(out.index.len(), 2);
        let (off, len) = out.index["k1"];
        let mut body = vec![0u8; len as usize];
        f.seek(SeekFrom::Start(off)).expect("seek");
        f.read_exact(&mut body).expect("read body");
        assert_eq!(body, b"body-one-v2", "duplicate key: last record wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_truncate_to_the_last_whole_record() {
        let r1 = encode_record("k1", "alpha");
        let r2 = encode_record("k2", "beta");
        // A kill can tear anywhere: inside the next header, inside the
        // payload, or right after the magic.
        for cut in [3, HEADER_BYTES - 1, HEADER_BYTES + 2, r2.len() - 1] {
            let path = temp_log(&format!("torn-{cut}"));
            let mut f = write_log(&path, &[&r1, &r2[..cut]]);
            let out = scan(&mut f).expect("scan");
            assert_eq!(out.records, 1, "cut at {cut}");
            assert_eq!(out.valid_len, r1.len() as u64, "cut at {cut}");
            assert!(out.index.contains_key("k1"));
            assert!(!out.index.contains_key("k2"));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn corruption_stops_the_scan_at_the_bad_record() {
        let r1 = encode_record("k1", "alpha");
        let mut r2 = encode_record("k2", "beta");
        let r3 = encode_record("k3", "gamma");
        // Flip one payload byte of the middle record: it and everything
        // after it are discarded (append-only logs cannot skip holes).
        let last = r2.len() - 1;
        r2[last] ^= 0x40;
        let path = temp_log("corrupt");
        let mut f = write_log(&path, &[&r1, &r2, &r3]);
        let out = scan(&mut f).expect("scan");
        assert_eq!(out.records, 1);
        assert_eq!(out.valid_len, r1.len() as u64);
        assert_eq!(out.index.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_and_absurd_lengths_are_corruption() {
        let r1 = encode_record("k1", "alpha");
        let mut bogus_magic = encode_record("k2", "beta");
        bogus_magic[0] ^= 0xff;
        let mut bogus_len = encode_record("k3", "gamma");
        bogus_len[4..8].copy_from_slice(&(MAX_KEY_BYTES + 1).to_le_bytes());
        for tail in [&bogus_magic, &bogus_len] {
            let path = temp_log("badhdr");
            let mut f = write_log(&path, &[&r1, tail]);
            let out = scan(&mut f).expect("scan");
            assert_eq!(out.valid_len, r1.len() as u64);
            assert_eq!(out.records, 1);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn empty_log_scans_clean() {
        let path = temp_log("empty");
        let mut f = write_log(&path, &[]);
        let out = scan(&mut f).expect("scan");
        assert_eq!(out.records, 0);
        assert_eq!(out.valid_len, 0);
        assert!(out.index.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
