//! Crash-safe result-cache snapshots: the binary format and the atomic
//! file protocol behind
//! [`LifetimeService::save_snapshot`](crate::service::LifetimeService::save_snapshot)
//! and
//! [`LifetimeService::load_snapshot`](crate::service::LifetimeService::load_snapshot).
//!
//! A snapshot is a *hint*, never an authority: every entry it carries is
//! re-keyed through
//! [`Scenario::canonical_bytes`](crate::scenario::Scenario::canonical_bytes)
//! and re-validated through
//! [`LifetimeDistribution::new`](crate::distribution::LifetimeDistribution::new)
//! on load, so a corrupted or
//! stale snapshot can cost a cold start but can never produce a wrong
//! answer. The file protocol is designed for the ugly failure modes of
//! a crashing process:
//!
//! * **Torn writes.** The snapshot is written to a temporary sibling,
//!   `fsync`ed, then `rename`d over the target (and the directory is
//!   synced best-effort). A crash mid-write leaves the previous
//!   snapshot — or nothing — in place, never a half-file under the
//!   real name.
//! * **Truncation and bit flips.** The header carries the payload
//!   length and an FNV-1a 64 checksum of the payload; any mismatch
//!   rejects the whole file with a typed [`SnapshotError`] and the
//!   service starts cold.
//! * **Version skew.** The header carries a format version; a snapshot
//!   from a different format is rejected (`VersionSkew`), not
//!   misparsed.
//! * **Hostile lengths.** Every length field is bounds-checked against
//!   both the remaining payload and a hard cap before any allocation,
//!   so a flipped length byte cannot make the loader allocate
//!   unboundedly.
//!
//! The wire layout (all integers little-endian, all floats IEEE-754
//! bit patterns — the round-trip is bit-exact):
//!
//! ```text
//! magic    8  b"KBRMSNAP"
//! version  4  u32 (currently 2)
//! length   8  u64: payload byte count
//! checksum 8  u64: FNV-1a 64 of the payload
//! payload:
//!   count  4  u32: entry count
//!   entry*:
//!     scenario  4 + n  canonical config text (the cache key itself —
//!                      a parseable `# kibamrm scenario v1` document)
//!     method    2 + n  backend name
//!     diag      1 + …  presence bitmask, then the present fields in
//!                      order: states u64, nonzeros u64, iterations
//!                      u64, delta f64 (coulombs), runs u64,
//!                      half_width f64
//!     points    4 + 16n  (t seconds f64, probability f64) samples
//! ```
//!
//! Entries are ordered least-recently-used first, so replaying them
//! into the cache in file order reproduces the recency order the
//! process died with. Solve timings are not part of the format (a
//! revived entry reports `wall_seconds = 0`), so equal cache contents
//! always encode to equal bytes.
//!
//! Version history: 2 dropped `wall_seconds` from the entry, and
//! coincides with the horizon-free window trim schedule, which changed
//! the bits of windowed answers — a version-1 file would revive curves
//! that no fresh solve reproduces.

use crate::distribution::SolveDiagnostics;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use units::Charge;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"KBRMSNAP";
/// The current format version.
pub const VERSION: u32 = 2;
/// Header size: magic + version + payload length + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Per-entry cap on the canonical scenario text (a real config is a few
/// hundred bytes; anything near this is garbage).
const MAX_SCENARIO_BYTES: usize = 1 << 20;
/// Cap on the backend-name length.
const MAX_METHOD_BYTES: usize = 64;
/// Cap on samples per entry.
const MAX_POINTS: usize = 1 << 20;
/// Cap on entries per snapshot.
const MAX_ENTRIES: usize = 1 << 20;

/// Why a snapshot file (or one of its entries) was rejected.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file failed structural validation: bad magic, length or
    /// checksum mismatch, truncated or over-long payload, or an entry
    /// that does not decode. The message says which check failed.
    Corrupt(String),
    /// The file is a snapshot, but of a different format version.
    VersionSkew {
        /// The version the file claims.
        found: u32,
    },
    /// The in-memory entries cannot be represented in the format (a
    /// length field overflows its wire width). The message says which
    /// field.
    Unencodable(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot rejected: {msg}"),
            SnapshotError::VersionSkew { found } => write!(
                f,
                "snapshot rejected: format version {found} (this build reads {VERSION})"
            ),
            SnapshotError::Unencodable(msg) => {
                write!(f, "snapshot unencodable: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// One cache entry in transit: the canonical scenario text (which is
/// the cache key), the backend that solved it, and the raw curve.
/// Everything a loader needs to re-derive — and therefore re-validate —
/// the resident [`crate::LifetimeDistribution`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The scenario's canonical config bytes (UTF-8, parseable).
    pub scenario: Vec<u8>,
    /// The backend name the curve came from.
    pub method: String,
    /// The solve diagnostics, verbatim.
    pub diagnostics: SolveDiagnostics,
    /// The sampled curve as `(t_seconds, probability)` pairs.
    pub points: Vec<(f64, f64)>,
}

/// What [`LifetimeService::save_snapshot`](crate::service::LifetimeService::save_snapshot)
/// did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotWriteReport {
    /// Cache entries written to the file.
    pub entries: usize,
    /// Bytes of the finished snapshot file.
    pub bytes: usize,
}

/// What [`LifetimeService::load_snapshot`](crate::service::LifetimeService::load_snapshot)
/// found. Loading never fails the caller: a missing or corrupt file is
/// a cold start, reported here and in the
/// [`ServiceStats`](crate::service::ServiceStats) snapshot counters.
#[derive(Debug, Default)]
pub struct SnapshotLoadReport {
    /// Entries revived into the result cache.
    pub loaded: usize,
    /// Entries (or, for file-level failures, files) rejected.
    pub rejected: usize,
    /// The file-level rejection, when the whole snapshot was refused.
    pub error: Option<SnapshotError>,
}

impl SnapshotLoadReport {
    /// `true` when nothing was revived (missing file, rejected file, or
    /// every entry rejected).
    pub fn is_cold(&self) -> bool {
        self.loaded == 0
    }
}

/// FNV-1a 64-bit over `bytes` — small, dependency-free, and plenty to
/// catch truncation and bit flips (this is corruption *detection*, not
/// an integrity MAC; the threat model is a crashing disk, not an
/// attacker with write access to the snapshot directory).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A bounds-checked cursor over the payload: every read is validated
/// against the remaining bytes, so no input can make decoding read out
/// of bounds or allocate more than the payload it arrived with.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(SnapshotError::Corrupt(format!(
                "truncated payload: {what} needs {n} bytes, {} remain",
                self.bytes.len() - self.at
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn widen(v: usize) -> u64 {
    // CAST-OK: usize is at most 64 bits on every supported target, so
    // widening to u64 never truncates.
    v as u64
}

fn small(v: u32) -> usize {
    // CAST-OK: u32 -> usize is lossless on the >=32-bit targets this
    // crate supports.
    v as usize
}

/// A u64 count read from the wire, bounded by what fits in memory on
/// this target. Hostile values larger than `usize::MAX` are a
/// corruption, not a truncation.
fn wire_count(v: u64, what: &str) -> Result<usize, SnapshotError> {
    usize::try_from(v)
        .map_err(|_| SnapshotError::Corrupt(format!("{what} {v} does not fit this target")))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

const DIAG_STATES: u8 = 1 << 0;
const DIAG_NONZEROS: u8 = 1 << 1;
const DIAG_ITERATIONS: u8 = 1 << 2;
const DIAG_DELTA: u8 = 1 << 3;
const DIAG_RUNS: u8 = 1 << 4;
const DIAG_HALF_WIDTH: u8 = 1 << 5;
const DIAG_KNOWN: u8 =
    DIAG_STATES | DIAG_NONZEROS | DIAG_ITERATIONS | DIAG_DELTA | DIAG_RUNS | DIAG_HALF_WIDTH;

/// Encodes `entries` into a complete snapshot file image (header
/// included). Fails with [`SnapshotError::Unencodable`] when a length
/// overflows its wire width — the same bound the reader enforces, so a
/// file this function writes always decodes.
pub fn encode(entries: &[SnapshotEntry]) -> Result<Vec<u8>, SnapshotError> {
    let too_big =
        |what: &str| SnapshotError::Unencodable(format!("{what} overflows its wire width"));
    let mut payload = Vec::new();
    let count = u32::try_from(entries.len()).map_err(|_| too_big("entry count"))?;
    put_u32(&mut payload, count);
    for e in entries {
        let scenario_len =
            u32::try_from(e.scenario.len()).map_err(|_| too_big("scenario length"))?;
        put_u32(&mut payload, scenario_len);
        payload.extend_from_slice(&e.scenario);
        let method_len = u16::try_from(e.method.len()).map_err(|_| too_big("method length"))?;
        payload.extend_from_slice(&method_len.to_le_bytes());
        payload.extend_from_slice(e.method.as_bytes());
        let d = &e.diagnostics;
        let mut mask = 0u8;
        for (bit, present) in [
            (DIAG_STATES, d.states.is_some()),
            (DIAG_NONZEROS, d.generator_nonzeros.is_some()),
            (DIAG_ITERATIONS, d.iterations.is_some()),
            (DIAG_DELTA, d.delta.is_some()),
            (DIAG_RUNS, d.runs.is_some()),
            (DIAG_HALF_WIDTH, d.half_width.is_some()),
        ] {
            if present {
                mask |= bit;
            }
        }
        payload.push(mask);
        if let Some(v) = d.states {
            put_u64(&mut payload, widen(v));
        }
        if let Some(v) = d.generator_nonzeros {
            put_u64(&mut payload, widen(v));
        }
        if let Some(v) = d.iterations {
            put_u64(&mut payload, widen(v));
        }
        if let Some(v) = d.delta {
            put_f64(&mut payload, v.as_coulombs());
        }
        if let Some(v) = d.runs {
            put_u64(&mut payload, widen(v));
        }
        if let Some(v) = d.half_width {
            put_f64(&mut payload, v);
        }
        let n_points = u32::try_from(e.points.len()).map_err(|_| too_big("point count"))?;
        put_u32(&mut payload, n_points);
        for &(t, p) in &e.points {
            put_f64(&mut payload, t);
            put_f64(&mut payload, p);
        }
    }
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(&MAGIC);
    put_u32(&mut file, VERSION);
    put_u64(&mut file, widen(payload.len()));
    put_u64(&mut file, fnv1a64(&payload));
    file.extend_from_slice(&payload);
    Ok(file)
}

/// Decodes a complete snapshot file image. Rejects (never panics on)
/// any malformed input: bad magic, version skew, length or checksum
/// mismatch, truncated entries, hostile length fields.
pub fn decode(bytes: &[u8]) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Corrupt(format!(
            "file too short for a header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::VersionSkew { found: version });
    }
    let length = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if length != widen(payload.len()) {
        return Err(SnapshotError::Corrupt(format!(
            "payload length mismatch: header says {length}, file carries {}",
            payload.len()
        )));
    }
    if fnv1a64(payload) != checksum {
        return Err(SnapshotError::Corrupt("checksum mismatch".into()));
    }
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
    };
    let count = small(cur.u32("entry count")?);
    if count > MAX_ENTRIES {
        return Err(SnapshotError::Corrupt(format!(
            "entry count {count} exceeds the cap {MAX_ENTRIES}"
        )));
    }
    let mut entries = Vec::new();
    for i in 0..count {
        let scenario_len = small(cur.u32("scenario length")?);
        if scenario_len > MAX_SCENARIO_BYTES {
            return Err(SnapshotError::Corrupt(format!(
                "entry {i}: scenario length {scenario_len} exceeds the cap"
            )));
        }
        let scenario = cur.take(scenario_len, "scenario text")?.to_vec();
        let method_len = usize::from(cur.u16("method length")?);
        if method_len > MAX_METHOD_BYTES {
            return Err(SnapshotError::Corrupt(format!(
                "entry {i}: method length {method_len} exceeds the cap"
            )));
        }
        let method = String::from_utf8(cur.take(method_len, "method name")?.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("entry {i}: method is not UTF-8")))?;
        let mask = cur.u8("diagnostics mask")?;
        if mask & !DIAG_KNOWN != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "entry {i}: unknown diagnostics bits {mask:#04x}"
            )));
        }
        let mut diagnostics = SolveDiagnostics::default();
        if mask & DIAG_STATES != 0 {
            diagnostics.states = Some(wire_count(cur.u64("states")?, "states")?);
        }
        if mask & DIAG_NONZEROS != 0 {
            diagnostics.generator_nonzeros = Some(wire_count(cur.u64("nonzeros")?, "nonzeros")?);
        }
        if mask & DIAG_ITERATIONS != 0 {
            diagnostics.iterations = Some(wire_count(cur.u64("iterations")?, "iterations")?);
        }
        if mask & DIAG_DELTA != 0 {
            diagnostics.delta = Some(Charge::from_coulombs(cur.f64("delta")?));
        }
        if mask & DIAG_RUNS != 0 {
            diagnostics.runs = Some(wire_count(cur.u64("runs")?, "runs")?);
        }
        if mask & DIAG_HALF_WIDTH != 0 {
            diagnostics.half_width = Some(cur.f64("half width")?);
        }
        let n_points = small(cur.u32("point count")?);
        if n_points > MAX_POINTS {
            return Err(SnapshotError::Corrupt(format!(
                "entry {i}: point count {n_points} exceeds the cap"
            )));
        }
        // 16 bytes per point must still fit in the remaining payload —
        // checked by `take` before the Vec is sized.
        let raw = cur.take(n_points * 16, "points")?;
        let mut points = Vec::with_capacity(n_points);
        for chunk in raw.chunks_exact(16) {
            let t = f64::from_bits(u64::from_le_bytes(chunk[..8].try_into().unwrap()));
            let p = f64::from_bits(u64::from_le_bytes(chunk[8..].try_into().unwrap()));
            points.push((t, p));
        }
        entries.push(SnapshotEntry {
            scenario,
            method,
            diagnostics,
            points,
        });
    }
    if !cur.done() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last entry",
            payload.len() - cur.at
        )));
    }
    Ok(entries)
}

/// Writes `bytes` to `path` atomically: a temporary sibling is written
/// and `fsync`ed, then renamed over the target, then the directory is
/// synced (best-effort — not every filesystem supports opening a
/// directory). A crash at any point leaves either the old file or the
/// complete new one, never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<SnapshotEntry> {
        vec![
            SnapshotEntry {
                scenario: b"# kibamrm scenario v1\nname -\n".to_vec(),
                method: "discretisation".into(),
                diagnostics: SolveDiagnostics {
                    states: Some(1200),
                    generator_nonzeros: Some(4800),
                    iterations: Some(333),
                    delta: Some(Charge::from_coulombs(300.0)),
                    runs: None,
                    half_width: None,
                    wall_seconds: 0.0,
                },
                points: vec![(20.0, 0.1), (40.0, 0.625), (60.0, 1.0)],
            },
            SnapshotEntry {
                scenario: b"another".to_vec(),
                method: "simulation".into(),
                diagnostics: SolveDiagnostics {
                    runs: Some(512),
                    half_width: Some(0.043),
                    ..Default::default()
                },
                points: vec![(1.5, 0.25)],
            },
        ]
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let entries = sample_entries();
        let file = encode(&entries).unwrap();
        let back = decode(&file).unwrap();
        assert_eq!(back, entries);
        // Empty snapshots round-trip too.
        assert_eq!(decode(&encode(&[]).unwrap()).unwrap(), vec![]);
    }

    #[test]
    fn solve_timings_never_reach_the_bytes() {
        let entries = sample_entries();
        let mut timed = entries.clone();
        timed[0].diagnostics.wall_seconds = 0.125;
        timed[1].diagnostics.wall_seconds = 7.5;
        assert_eq!(encode(&timed).unwrap(), encode(&entries).unwrap());
        let back = decode(&encode(&timed).unwrap()).unwrap();
        assert!(back.iter().all(|e| e.diagnostics.wall_seconds == 0.0));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let file = encode(&sample_entries()).unwrap();
        for len in 0..file.len() {
            let err = decode(&file[..len]).expect_err("truncation must reject");
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "truncation to {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let file = encode(&sample_entries()).unwrap();
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut flipped = file.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    decode(&flipped).is_err(),
                    "flipping bit {bit} of byte {byte} was not caught"
                );
            }
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut file = encode(&sample_entries()).unwrap();
        // A version-1 file carries per-entry timings and windowed curves
        // of the old trim schedule: it must be refused, not misparsed.
        file[8..12].copy_from_slice(&1u32.to_le_bytes());
        // The checksum does not cover the header, so skew is reported
        // as skew (not as corruption).
        match decode(&file) {
            Err(SnapshotError::VersionSkew { found: 1 }) => {}
            other => panic!("expected version skew, got {other:?}"),
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A payload claiming u32::MAX entries with 4 bytes of content.
        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX);
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        put_u32(&mut file, VERSION);
        put_u64(&mut file, payload.len() as u64);
        put_u64(&mut file, fnv1a64(&payload));
        file.extend_from_slice(&payload);
        assert!(matches!(decode(&file), Err(SnapshotError::Corrupt(_))));

        // An entry whose point count is huge but whose payload is tiny.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 1); // scenario len
        payload.push(b'x');
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.push(b'm');
        payload.push(0); // empty diagnostics
        put_f64(&mut payload, 0.0); // wall seconds
        put_u32(&mut payload, 1 << 19); // 512k points… in 0 bytes
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        put_u32(&mut file, VERSION);
        put_u64(&mut file, payload.len() as u64);
        put_u64(&mut file, fnv1a64(&payload));
        file.extend_from_slice(&payload);
        assert!(matches!(decode(&file), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 0);
        payload.push(0xAA); // junk after the last entry
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        put_u32(&mut file, VERSION);
        put_u64(&mut file, payload.len() as u64);
        put_u64(&mut file, fnv1a64(&payload));
        file.extend_from_slice(&payload);
        let err = decode(&file).expect_err("trailing bytes");
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // A cheap deterministic fuzz sweep; the proptest suite in the
        // net crate goes deeper.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for len in [0usize, 1, 7, 27, 28, 64, 300, 4096] {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bytes.push((x >> 33) as u8);
            }
            let _ = decode(&bytes);
            // And with a valid magic/version prefix grafted on.
            if bytes.len() >= 12 {
                bytes[..8].copy_from_slice(&MAGIC);
                bytes[8..12].copy_from_slice(&VERSION.to_le_bytes());
                let _ = decode(&bytes);
            }
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("kibamrm-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp file left behind.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "leftover files: {names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_and_source() {
        let io_err: SnapshotError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(io_err.to_string().contains("i/o"));
        assert!(std::error::Error::source(&io_err).is_some());
        let corrupt = SnapshotError::Corrupt("bad magic".into());
        assert!(corrupt.to_string().contains("bad magic"));
        assert!(std::error::Error::source(&corrupt).is_none());
        let skew = SnapshotError::VersionSkew { found: 9 };
        assert!(skew.to_string().contains('9'));
    }
}
