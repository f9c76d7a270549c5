//! Hash indexes of a relation's tuples by the values at a set of positions.

use crate::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of [`key_hash`]'s multiply-rotate mixing step (the
/// FxHash constant: odd, with well-spread bits).
const MULTIPLIER: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds one 64-bit word into a running hash.
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER)
}

/// Hashes a key (the values at an index's positions, in position order)
/// with a small multiply-rotate hasher.
///
/// [`TupleIndex::bucket`] takes this hash. Distinct keys may collide, so a
/// bucket is a superset of the tuples carrying the key and a prober checks
/// each bucket tuple's values again.
pub fn key_hash<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut hash = 0;
    for value in values {
        hash = match value {
            Value::Int(i) => mix(hash, *i as u64),
            Value::Str(s) => {
                let mut hash = mix(hash, !(s.len() as u64));
                for chunk in s.as_bytes().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    hash = mix(hash, u64::from_le_bytes(word));
                }
                hash
            }
        };
    }
    // The last multiply leaves its best-mixed bits high; the map indexes
    // its table with the low ones.
    hash.rotate_left(26)
}

/// A [`Hasher`] for keys that are already [`key_hash`]es: it passes the
/// hash through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, u64::from(b));
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The end of a bucket's chain.
const END: u32 = u32::MAX;

/// A hash index of one relation's tuples by the values at a fixed, ascending
/// set of positions: [`key_hash`] of those values → the tuples' positions in
/// the relation, ascending.
///
/// A bucket is a chain through one flat array, so that no bucket allocates
/// and a delete shifts the later positions in two linear passes. The owning
/// [`Relation`](crate::Relation) builds the index on first request and keeps
/// it current through every insert and delete.
#[derive(Clone, Debug)]
pub struct TupleIndex {
    positions: Box<[usize]>,
    /// Key hash → the first and last position of its bucket.
    chains: HashMap<u64, (u32, u32), BuildHasherDefault<Prehashed>>,
    /// Position → the next position of its bucket, or [`END`].
    next: Vec<u32>,
}

impl TupleIndex {
    /// Indexes `tuples` by the values at `positions`.
    pub(crate) fn build<'a>(
        positions: &[usize],
        tuples: impl ExactSizeIterator<Item = &'a [Value]>,
    ) -> Self {
        let mut index = TupleIndex {
            positions: positions.into(),
            chains: HashMap::default(),
            next: Vec::with_capacity(tuples.len()),
        };
        for (at, values) in tuples.enumerate() {
            index.insert(at as u32, values);
        }
        index
    }

    /// The indexed positions, ascending.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The positions, ascending, of the tuples whose key hashes to `hash`
    /// (see [`key_hash`]): every tuple carrying a key of that hash, and
    /// possibly tuples whose keys collide with it.
    pub fn bucket(&self, hash: u64) -> Bucket<'_> {
        let at = self.chains.get(&hash).map_or(END, |&(first, _)| first);
        Bucket { next: &self.next, at }
    }

    fn hash_of(&self, values: &[Value]) -> u64 {
        key_hash(self.positions.iter().map(|&p| &values[p]))
    }

    /// Records `values` as stored at `at`, the relation's new last position.
    pub(crate) fn insert(&mut self, at: u32, values: &[Value]) {
        debug_assert_eq!(at as usize, self.next.len(), "inserts append");
        self.next.push(END);
        let chain = self.chains.entry(self.hash_of(values)).or_insert((at, at));
        if chain.1 != at {
            self.next[chain.1 as usize] = at;
            chain.1 = at;
        }
    }

    /// Forgets the tuple `values` stored at `at` and shifts every later
    /// position down by one, as removing it from the relation does.
    pub(crate) fn remove(&mut self, at: u32, values: &[Value]) {
        let hash = self.hash_of(values);
        let chain = self.chains.get_mut(&hash).expect("an indexed tuple has a bucket");
        let after = self.next[at as usize];
        if chain.0 == at {
            chain.0 = after;
        } else {
            let mut before = chain.0;
            while self.next[before as usize] != at {
                before = self.next[before as usize];
            }
            self.next[before as usize] = after;
            if chain.1 == at {
                chain.1 = before;
            }
        }
        if chain.0 == END {
            self.chains.remove(&hash);
        }
        self.next.remove(at as usize);
        let shift = |p: &mut u32| *p -= u32::from(*p > at && *p != END);
        self.next.iter_mut().for_each(shift);
        for (first, last) in self.chains.values_mut() {
            shift(first);
            shift(last);
        }
    }
}

/// The positions of one [`TupleIndex`] bucket, ascending.
pub struct Bucket<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for Bucket<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let at = self.at;
        (at != END).then(|| {
            self.at = self.next[at as usize];
            at
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equally_and_kinds_differ() {
        let (a, b) = (Value::from(7), Value::from("seven"));
        assert_eq!(key_hash([&a, &b]), key_hash([&a.clone(), &b.clone()]));
        assert_ne!(key_hash([&a, &b]), key_hash([&b, &a]));
        assert_ne!(key_hash([&Value::from("")]), key_hash([&Value::from(0)]));
        assert_ne!(key_hash([&Value::from("ab")]), key_hash([&Value::from("ab\0")]));
    }

    #[test]
    fn buckets_track_inserts_and_shifting_removals() {
        let rows: Vec<Vec<Value>> = [(1, 10), (2, 20), (1, 30), (1, 40), (1, 50)]
            .map(|(a, b)| vec![a.into(), b.into()])
            .into();
        let mut index = TupleIndex::build(&[0], rows.iter().map(Vec::as_slice));
        let bucket = |index: &TupleIndex, key: i64| -> Vec<u32> {
            index.bucket(key_hash([&Value::from(key)])).collect()
        };
        assert_eq!(bucket(&index, 1), [0, 2, 3, 4]);
        // Removing position 1 (key 2) empties its bucket and shifts 2..=4.
        index.remove(1, &rows[1]);
        assert_eq!(bucket(&index, 2), []);
        assert_eq!(bucket(&index, 1), [0, 1, 2, 3]);
        // A bucket's first, middle and last positions.
        index.remove(0, &rows[0]);
        assert_eq!(bucket(&index, 1), [0, 1, 2]);
        index.remove(1, &rows[3]);
        assert_eq!(bucket(&index, 1), [0, 1]);
        index.remove(1, &rows[4]);
        assert_eq!(bucket(&index, 1), [0]);
        index.insert(1, &rows[1]);
        index.insert(2, &rows[0]);
        assert_eq!(bucket(&index, 2), [1]);
        assert_eq!(bucket(&index, 1), [0, 2]);
        index.remove(0, &rows[2]);
        index.remove(1, &rows[0]);
        assert_eq!(bucket(&index, 1), []);
        assert_eq!(bucket(&index, 2), [0]);
    }
}
