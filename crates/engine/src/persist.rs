//! The warm-start snapshot format: cache entries serialized to a hand-rolled
//! versioned binary layout, so a restarted engine starts warm instead of
//! recompiling the world.
//!
//! No serde in-tree — like the bench layer's JSON parser, this is an explicit
//! reader/writer pair that fails loudly: every read is bounds-checked, every
//! structural invariant is validated, and anything unexpected is a typed
//! [`SnapshotError`] (never a panic, never a silently garbled entry). The
//! cache layers treat a rejected snapshot as a cold start.
//!
//! # Layout (version 2)
//!
//! ```text
//! magic      8 bytes   b"BZHSNAP\0"
//! version    u32 LE    2
//! count      u64 LE    number of entries
//! entries    ...       see below
//! checksum   u64 LE    FNV-1a over every byte after the magic, before this
//! ```
//!
//! Each entry carries the fingerprint pre-key (4 raw fields), the dense
//! shape (clauses of `u32` variables), the optional canonical witness
//! (variable order + canonical key clauses), and the dense attribution
//! (algorithm name, per-variable scores, model count, optional Shapley
//! values, compile-time stats). Naturals are little-endian `u64` limb
//! vectors; all lengths are `u32` LE. Integrity is layered: the checksum
//! catches accidental corruption (truncation, bit flips, garbage tails), and
//! the reader additionally recomputes each entry's fingerprint from its
//! shape and validates each witness is a permutation — a snapshot that
//! parses but lies about its keys is rejected rather than served.

use crate::attribution::{Attribution, EngineStats, Score};
use crate::cache::{CanonInfo, CanonicalKey, Shape, SnapshotEntry};
use crate::canon::{fingerprint, Fingerprint};
use crate::registry::REGISTRY;
use banzhaf::{ApproxInterval, ShapleyValue};
use banzhaf_arith::{Int, Natural, Rational, Sign};
use banzhaf_boolean::Var;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The 8-byte file magic ("BanZHaf SNAPshot", NUL-terminated).
const MAGIC: &[u8; 8] = b"BZHSNAP\0";
/// The current format version. Readers reject every other version — the
/// format is versioned precisely so a future layout change degrades old
/// engines to a cold start instead of feeding them garbage. Version 2 has
/// version 1's layout but stores the decomposed canonical keys of
/// [`crate::canon`]: a decomposable shape's version-1 key is not what any
/// renamed copy keys to now, so its entry could only miss and be duplicated.
const VERSION: u32 = 2;

/// Why a snapshot file was rejected. Every variant degrades the loading
/// cache to a cold start; none of them panics or admits a partial load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The file is a snapshot of an unsupported format version.
    UnsupportedVersion(u32),
    /// The trailing FNV-1a checksum does not match the content — the file
    /// was truncated, bit-flipped, or had bytes appended.
    ChecksumMismatch,
    /// A structural invariant failed at byte offset `at`.
    Corrupt {
        /// Byte offset of the failed read or validation.
        at: usize,
        /// What the reader expected there.
        what: &'static str,
    },
    /// The entry names an attribution algorithm this engine does not know.
    UnknownAlgorithm(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt { at, what } => {
                write!(f, "corrupt snapshot at byte {at}: expected {what}")
            }
            SnapshotError::UnknownAlgorithm(name) => {
                write!(f, "snapshot names unknown algorithm {name:?}")
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

/// FNV-1a over `bytes` — the same constants as the fingerprint hasher, kept
/// process-independent on purpose (snapshots move between machines).
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Maps a persisted algorithm name back to the engine's `&'static str` for
/// it. Attributions store `&'static str` names, so a loaded entry must
/// resolve to one of the engine's own statics — an unknown name rejects the
/// snapshot (a newer engine's backend, or garbage).
fn static_algorithm_name(name: &str) -> Option<&'static str> {
    REGISTRY.iter().map(|b| b.name).find(|n| *n == name)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn natural(&mut self, n: &Natural) {
        let limbs = n.limbs();
        self.u32(limbs.len() as u32);
        for &limb in limbs {
            self.u64(limb);
        }
    }
    fn clauses(&mut self, clauses: &[Vec<u32>]) {
        self.u32(clauses.len() as u32);
        for clause in clauses {
            self.u32(clause.len() as u32);
            for &var in clause {
                self.u32(var);
            }
        }
    }
    fn score(&mut self, score: &Score) {
        match score {
            Score::Exact(n) => {
                self.u8(0);
                self.natural(n);
            }
            Score::Interval(i) => {
                self.u8(1);
                self.natural(&i.lower);
                self.natural(&i.upper);
            }
            Score::Estimate(e) => {
                self.u8(2);
                self.u64(e.to_bits());
            }
            Score::Rational(r) => {
                self.u8(3);
                self.u8(u8::from(r.is_negative()));
                self.natural(r.numer().magnitude());
                self.natural(r.denom());
            }
        }
    }
    fn entry(&mut self, entry: &SnapshotEntry) {
        let (num_vars, num_clauses, widths, degrees, payload) = entry.fingerprint.raw_parts();
        // Weighted aggregate entries are filtered out before export; the
        // version-1 layout persists Boolean shapes, whose payload is zero.
        debug_assert!(
            payload == 0 && entry.shape.payload.is_none(),
            "snapshots persist Boolean entries only"
        );
        self.u32(num_vars);
        self.u32(num_clauses);
        self.u64(widths);
        self.u64(degrees);
        self.u32(entry.shape.num_vars as u32);
        self.clauses(&entry.shape.clauses);
        match &entry.canon {
            None => self.u8(0),
            Some(canon) => {
                self.u8(1);
                self.u32(canon.order.len() as u32);
                for &v in &canon.order {
                    self.u32(v);
                }
                self.clauses(&canon.key.clauses);
            }
        }
        let att = &entry.attribution;
        let name = att.algorithm.as_bytes();
        self.u32(name.len() as u32);
        self.buf.extend_from_slice(name);
        // Values in sorted variable order: the in-memory map iterates in
        // arbitrary order, and a deterministic file (same cache state ⇒ same
        // bytes) is what makes snapshot diffs and the checksum meaningful.
        let mut values: Vec<(&Var, &Score)> = att.values.iter().collect();
        values.sort_by_key(|(v, _)| v.0);
        self.u32(values.len() as u32);
        for (v, score) in values {
            self.u32(v.0);
            self.score(score);
        }
        match &att.model_count {
            None => self.u8(0),
            Some(n) => {
                self.u8(1);
                self.natural(n);
            }
        }
        match &att.shapley {
            None => self.u8(0),
            Some(shapley) => {
                self.u8(1);
                let mut values: Vec<(&Var, &ShapleyValue)> = shapley.iter().collect();
                values.sort_by_key(|(v, _)| v.0);
                self.u32(values.len() as u32);
                for (v, s) in values {
                    self.u32(v.0);
                    self.natural(&s.numer);
                    self.natural(&s.denom);
                }
            }
        }
        self.u64(att.stats.compile_steps);
        self.u64(att.stats.dtree_nodes as u64);
        self.u64(att.stats.wall.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.u8(u8::from(att.stats.cache_hit));
        self.u64(att.stats.canon_steps);
        self.u64(att.stats.canon_searches);
        self.u64(att.stats.prekey_skips);
    }
}

/// Serializes `entries` into a complete snapshot file image.
fn encode(entries: &[SnapshotEntry]) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u32(VERSION);
    w.u64(entries.len() as u64);
    for entry in entries {
        w.entry(entry);
    }
    let checksum = fnv1a_bytes(&w.buf[MAGIC.len()..]);
    w.u64(checksum);
    w.buf
}

/// Writes `entries` to `path` (via a sibling temp file renamed into place, so
/// a crash mid-write never leaves a truncated snapshot behind). Returns the
/// number of entries written.
pub(crate) fn save_entries(path: &Path, entries: &[SnapshotEntry]) -> Result<usize, SnapshotError> {
    let bytes = encode(entries);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, &bytes).map_err(SnapshotError::Io)?;
    std::fs::rename(&tmp, path).map_err(SnapshotError::Io)?;
    Ok(entries.len())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn corrupt<T>(&self, what: &'static str) -> Result<T, SnapshotError> {
        Err(SnapshotError::Corrupt { at: self.at, what })
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        match self.bytes.get(self.at..self.at + n) {
            Some(slice) => {
                self.at += n;
                Ok(slice)
            }
            None => self.corrupt(what),
        }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn flag(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => self.corrupt(what),
        }
    }

    fn natural(&mut self) -> Result<Natural, SnapshotError> {
        let count = self.u32("limb count")?;
        let mut limbs = Vec::new();
        for _ in 0..count {
            limbs.push(self.u64("limb")?);
        }
        if limbs.last() == Some(&0) {
            // The writer always emits normalized limbs; a denormalized
            // vector means the file was not written by us.
            return self.corrupt("normalized limbs");
        }
        Ok(Natural::from_limbs(limbs))
    }

    /// Reads a clause list over variables `0..num_vars`, validating bounds
    /// and the sorted dense presentation (vars ascending within a clause,
    /// clauses ascending) the cache's exact-match comparisons rely on.
    fn clauses(&mut self, num_vars: u32) -> Result<Vec<Vec<u32>>, SnapshotError> {
        let count = self.u32("clause count")?;
        let mut clauses: Vec<Vec<u32>> = Vec::new();
        for _ in 0..count {
            let len = self.u32("clause length")?;
            let mut clause = Vec::new();
            for _ in 0..len {
                let var = self.u32("clause variable")?;
                if var >= num_vars {
                    return self.corrupt("variable within the shape's universe");
                }
                if clause.last().is_some_and(|&prev| prev > var) {
                    return self.corrupt("sorted clause variables");
                }
                clause.push(var);
            }
            if clauses.last().is_some_and(|prev| prev > &clause) {
                return self.corrupt("sorted clauses");
            }
            clauses.push(clause);
        }
        Ok(clauses)
    }

    fn score(&mut self) -> Result<Score, SnapshotError> {
        match self.u8("score tag")? {
            0 => Ok(Score::Exact(self.natural()?)),
            1 => {
                let lower = self.natural()?;
                let upper = self.natural()?;
                if lower > upper {
                    // `ApproxInterval::new` debug-asserts the order; reject
                    // instead of panicking on a hostile file.
                    return self.corrupt("interval lower <= upper");
                }
                Ok(Score::Interval(Box::new(ApproxInterval::new(lower, upper))))
            }
            2 => Ok(Score::Estimate(f64::from_bits(self.u64("estimate bits")?))),
            3 => {
                let negative = self.flag("rational sign")?;
                let numer = self.natural()?;
                let denom = self.natural()?;
                if denom.is_zero() {
                    return self.corrupt("non-zero rational denominator");
                }
                let sign = if negative { Sign::Negative } else { Sign::Positive };
                Ok(Score::Rational(Box::new(Rational::new(Int::from_sign_mag(sign, numer), denom))))
            }
            _ => self.corrupt("score tag in 0..=3"),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn entry(&mut self) -> Result<SnapshotEntry, SnapshotError> {
        let fp = Fingerprint::from_raw_parts((
            self.u32("fingerprint num_vars")?,
            self.u32("fingerprint num_clauses")?,
            self.u64("fingerprint widths")?,
            self.u64("fingerprint degrees")?,
            // Version-1 snapshots hold Boolean entries only; their aggregate
            // payload field is always zero.
            0,
        ));
        let num_vars = self.u32("shape num_vars")?;
        let clauses = self.clauses(num_vars)?;
        // The fingerprint is re-derived, not trusted: a checksum-valid file
        // whose pre-key disagrees with its shape would route lookups (and
        // shards) wrong forever after.
        if fingerprint(num_vars as usize, &clauses) != fp {
            return self.corrupt("fingerprint matching the shape");
        }
        let shape = Arc::new(Shape { num_vars: num_vars as usize, clauses, payload: None });
        let canon = if self.flag("canon flag")? {
            let len = self.u32("witness length")?;
            if len != num_vars {
                return self.corrupt("witness covering every variable");
            }
            let mut order = Vec::new();
            let mut seen = vec![false; num_vars as usize];
            for _ in 0..len {
                let v = self.u32("witness variable")?;
                if v >= num_vars || std::mem::replace(&mut seen[v as usize], true) {
                    return self.corrupt("witness permutation");
                }
                order.push(v);
            }
            let key_clauses = self.clauses(num_vars)?;
            if key_clauses.len() != shape.clauses.len() {
                return self.corrupt("canonical key with the shape's clause count");
            }
            Some(Arc::new(CanonInfo {
                key: CanonicalKey {
                    num_vars: num_vars as usize,
                    clauses: key_clauses,
                    payload: None,
                },
                order,
            }))
        } else {
            None
        };
        let name_len = self.u32("algorithm name length")? as usize;
        let at = self.at;
        let name_bytes = self.take(name_len, "algorithm name")?;
        let Ok(name) = std::str::from_utf8(name_bytes) else {
            return Err(SnapshotError::Corrupt { at, what: "utf-8 algorithm name" });
        };
        let Some(algorithm) = static_algorithm_name(name) else {
            return Err(SnapshotError::UnknownAlgorithm(name.to_owned()));
        };
        let value_count = self.u32("value count")?;
        let mut values: HashMap<Var, Score> = HashMap::new();
        for _ in 0..value_count {
            let v = self.u32("value variable")?;
            if v >= num_vars {
                return self.corrupt("value variable within the universe");
            }
            let score = self.score()?;
            if values.insert(Var(v), score).is_some() {
                return self.corrupt("distinct value variables");
            }
        }
        let model_count = if self.flag("model count flag")? { Some(self.natural()?) } else { None };
        let shapley = if self.flag("shapley flag")? {
            let count = self.u32("shapley count")?;
            let mut map: HashMap<Var, ShapleyValue> = HashMap::new();
            for _ in 0..count {
                let v = self.u32("shapley variable")?;
                if v >= num_vars {
                    return self.corrupt("shapley variable within the universe");
                }
                let numer = self.natural()?;
                let denom = self.natural()?;
                if map.insert(Var(v), ShapleyValue { numer, denom }).is_some() {
                    return self.corrupt("distinct shapley variables");
                }
            }
            Some(map)
        } else {
            None
        };
        let stats = EngineStats {
            compile_steps: self.u64("compile steps")?,
            dtree_nodes: self.u64("dtree nodes")? as usize,
            wall: Duration::from_nanos(self.u64("wall nanos")?),
            cache_hit: self.flag("cache-hit flag")?,
            canon_steps: self.u64("canon steps")?,
            canon_searches: self.u64("canon searches")?,
            prekey_skips: self.u64("prekey skips")?,
            degraded: false,
            fallback_steps: 0,
        };
        let attribution = Arc::new(Attribution {
            algorithm,
            values,
            model_count,
            shapley,
            aggregate: None,
            aggregate_total: None,
            stats,
            degradation: None,
        });
        Ok(SnapshotEntry { fingerprint: fp, shape, canon, attribution })
    }
}

/// Parses a complete snapshot file image.
fn decode(bytes: &[u8]) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 {
        return Err(SnapshotError::Corrupt { at: bytes.len(), what: "a complete header" });
    }
    // The checksum is verified before anything is parsed: truncations, bit
    // flips and garbage tails all fail here, loudly and in O(n).
    let body = &bytes[MAGIC.len()..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a_bytes(body) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader { bytes: body, at: 0 };
    let version = r.u32("format version")?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let count = r.u64("entry count")?;
    let mut entries = Vec::new();
    for _ in 0..count {
        entries.push(r.entry()?);
    }
    if r.at != body.len() {
        // Checksummed trailing garbage would mean a writer bug; reject it
        // rather than silently ignoring bytes.
        return r.corrupt("end of file after the last entry");
    }
    Ok(entries)
}

/// Reads and validates the snapshot at `path`.
pub(crate) fn load_entries(path: &Path) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Prekeyed;
    use banzhaf_boolean::Dnf;

    fn sample_entries() -> Vec<SnapshotEntry> {
        let p = Prekeyed::of(&Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(1), Var(2)]]));
        let (canon, _) = p.shape.canonicalize(None).unwrap();
        let attribution = Arc::new(Attribution {
            algorithm: "ExaBan",
            values: [
                (Var(0), Score::Exact(Natural::from(1u64))),
                (
                    Var(1),
                    Score::Rational(Box::new(Rational::new(Int::from(-3i64), Natural::from(4u64)))),
                ),
                (
                    Var(2),
                    Score::Interval(Box::new(ApproxInterval::new(
                        Natural::from(1u64),
                        Natural::from(2u64),
                    ))),
                ),
            ]
            .into_iter()
            .collect(),
            model_count: Some(Natural::from(5u64)),
            shapley: Some(
                [(Var(0), ShapleyValue { numer: Natural::from(1u64), denom: Natural::from(3u64) })]
                    .into_iter()
                    .collect(),
            ),
            aggregate: None,
            aggregate_total: None,
            stats: EngineStats { compile_steps: 42, dtree_nodes: 7, ..EngineStats::default() },
            degradation: None,
        });
        vec![
            SnapshotEntry {
                fingerprint: p.fingerprint,
                shape: Arc::clone(&p.shape),
                canon: Some(Arc::new(canon)),
                attribution: Arc::clone(&attribution),
            },
            SnapshotEntry {
                fingerprint: p.fingerprint,
                shape: Arc::clone(&p.shape),
                canon: None,
                attribution,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let entries = sample_entries();
        let decoded = decode(&encode(&entries)).expect("round trip");
        assert_eq!(decoded.len(), entries.len());
        for (want, have) in entries.iter().zip(&decoded) {
            assert_eq!(want.fingerprint, have.fingerprint);
            assert_eq!(*want.shape, *have.shape);
            assert_eq!(want.canon.is_some(), have.canon.is_some());
            if let (Some(w), Some(h)) = (&want.canon, &have.canon) {
                assert_eq!(w.key, h.key);
                assert_eq!(w.order, h.order);
            }
            assert_eq!(want.attribution.algorithm, have.attribution.algorithm);
            assert_eq!(want.attribution.values.len(), have.attribution.values.len());
            for (v, score) in &want.attribution.values {
                match (score, &have.attribution.values[v]) {
                    (Score::Exact(a), Score::Exact(b)) => assert_eq!(a, b),
                    (Score::Interval(a), Score::Interval(b)) => {
                        assert_eq!((&a.lower, &a.upper), (&b.lower, &b.upper));
                    }
                    (Score::Estimate(a), Score::Estimate(b)) => assert_eq!(a, b),
                    (Score::Rational(a), Score::Rational(b)) => assert_eq!(a, b),
                    _ => panic!("score variant changed through the round trip"),
                }
            }
            assert_eq!(want.attribution.model_count, have.attribution.model_count);
            assert_eq!(
                want.attribution.shapley.as_ref().map(std::collections::HashMap::len),
                have.attribution.shapley.as_ref().map(std::collections::HashMap::len)
            );
            assert_eq!(want.attribution.stats.compile_steps, have.attribution.stats.compile_steps);
            assert_eq!(want.attribution.stats.dtree_nodes, have.attribution.stats.dtree_nodes);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let entries = sample_entries();
        assert_eq!(encode(&entries), encode(&entries), "same state must give identical bytes");
    }

    #[test]
    fn corruption_is_rejected_with_typed_errors() {
        let good = encode(&sample_entries());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode(&bad), Err(SnapshotError::BadMagic)));
        // Unsupported version (the checksum is recomputed so only the
        // version check can fire).
        let mut bad = good.clone();
        bad[8] = 99;
        let checksum = fnv1a_bytes(&bad[8..bad.len() - 8]);
        let at = bad.len() - 8;
        bad[at..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(decode(&bad), Err(SnapshotError::UnsupportedVersion(99))));
        // Truncation, at every prefix length: never a panic, never an Ok.
        for len in 0..good.len() {
            let err = decode(&good[..len]).expect_err("truncated snapshot must be rejected");
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Corrupt { .. }
                        | SnapshotError::ChecksumMismatch
                ),
                "unexpected error for truncation at {len}: {err}"
            );
        }
        // Garbage tail.
        let mut bad = good.clone();
        bad.extend_from_slice(b"trailing garbage");
        assert!(matches!(decode(&bad), Err(SnapshotError::ChecksumMismatch)));
        // A flipped byte in the middle.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x20;
        assert!(matches!(decode(&bad), Err(SnapshotError::ChecksumMismatch)));
    }

    #[test]
    fn unknown_algorithms_are_rejected() {
        let mut entries = sample_entries();
        let mut att = (*entries[0].attribution).clone();
        att.algorithm = "NotARealBackend";
        entries[0].attribution = Arc::new(att);
        let bytes = encode(&entries);
        assert!(
            matches!(decode(&bytes), Err(SnapshotError::UnknownAlgorithm(name)) if name == "NotARealBackend")
        );
    }

    #[test]
    fn lying_fingerprints_are_rejected() {
        // A checksum-valid file whose fingerprint disagrees with its shape
        // must still be rejected: the pre-key is re-derived, not trusted.
        let mut entries = sample_entries();
        entries[0].fingerprint = Fingerprint::from_raw_parts((3, 2, 0xDEAD, 0xBEEF, 0));
        let bytes = encode(&entries);
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::Corrupt { what: "fingerprint matching the shape", .. })
        ));
    }
}
