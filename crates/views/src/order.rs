//! A counted ordered sequence: one collation's `key -> row` order.
//!
//! A view page is addressed by *position* (`Start=3001`), and a client
//! scrolling to a document needs the position of a key, so the order has
//! to answer both "the k-th entry" and "how many entries sort before this
//! key" without walking there. [`Order`] keeps its entries in sorted
//! chunks of at most `CHUNK` (256) and, beside them, how many entries precede
//! each chunk: [`Order::iter_from`] is a binary search over those counts and
//! [`Order::rank`] one over the chunks' last keys and one inside a chunk —
//! the per-subtree element counts ForkBase keeps for its positional types,
//! flattened to two levels.
//!
//! Writes keep the counts exact: an insert or remove shifts one chunk's
//! tail and adjusts the counts of the chunks after it. That is more bytes
//! touched than a B-tree node (remove + insert measured alone: 0.85 µs
//! against `BTreeMap`'s 0.40 µs at 6 000 rows, 4.8 µs against 1.7 µs at
//! 100 000, where both miss cache), which is why the index replaces a row
//! in place when its key did not change — [`Order::insert`] under an equal
//! key is one search and no shift.

/// Most entries one chunk holds; a fuller chunk splits in two halves.
const CHUNK: usize = 256;

// Probes `iter_from` and `rank` made on this thread — the flatness tests read
// it, so a positional read that walks its way there fails a count, not a
// stopwatch.
#[cfg(test)]
thread_local! {
    pub(crate) static STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
fn step() {
    #[cfg(test)]
    STEPS.with(|s| s.set(s.get() + 1));
}

/// One sorted run of `(key, value)` entries.
type Chunk<V> = Vec<(Vec<u8>, V)>;

/// Entries ordered by byte-string key, addressable by key and by position.
#[derive(Debug, Clone)]
pub struct Order<V> {
    /// Non-empty sorted runs; every key of one chunk sorts before every
    /// key of the next.
    chunks: Vec<Chunk<V>>,
    /// `starts[i]` = entries in `chunks[..i]`.
    starts: Vec<usize>,
    len: usize,
}

impl<V> Default for Order<V> {
    fn default() -> Order<V> {
        Order {
            chunks: Vec::new(),
            starts: Vec::new(),
            len: 0,
        }
    }
}

impl<V> Order<V> {
    pub fn new() -> Order<V> {
        Order::default()
    }

    /// Bulk-load from pairs already in strictly ascending key order.
    /// Chunks are left half full, so the inserts that follow a rebuild do
    /// not split at once.
    pub fn from_sorted(pairs: Chunk<V>) -> Order<V> {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let mut order = Order {
            len: pairs.len(),
            ..Order::default()
        };
        let mut pairs = pairs.into_iter();
        loop {
            let chunk: Chunk<V> = pairs.by_ref().take(CHUNK / 2).collect();
            if chunk.is_empty() {
                break;
            }
            order.chunks.push(chunk);
        }
        order.starts = vec![0; order.chunks.len()];
        order.recount_from(0);
        order
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first chunk whose last key is `>= key` (`chunks.len()` when
    /// `key` sorts after everything).
    fn chunk_for(&self, key: &[u8]) -> usize {
        self.chunks.partition_point(|c| {
            step();
            c.last().expect("chunks are non-empty").0.as_slice() < key
        })
    }

    fn recount_from(&mut self, from: usize) {
        let mut seen = match from.checked_sub(1) {
            Some(prev) => self.starts[prev] + self.chunks[prev].len(),
            None => 0,
        };
        for (start, chunk) in self.starts[from..].iter_mut().zip(&self.chunks[from..]) {
            *start = seen;
            seen += chunk.len();
        }
    }

    /// Insert, or replace the value under an equal key (returned).
    pub fn insert(&mut self, key: Vec<u8>, value: V) -> Option<V> {
        if self.chunks.is_empty() {
            self.chunks.push(vec![(key, value)]);
            self.starts.push(0);
            self.len = 1;
            return None;
        }
        // A key past the end extends the last chunk.
        let ci = self.chunk_for(&key).min(self.chunks.len() - 1);
        let chunk = &mut self.chunks[ci];
        let at = match chunk.binary_search_by(|e| e.0.as_slice().cmp(&key)) {
            Ok(i) => return Some(std::mem::replace(&mut chunk[i].1, value)),
            Err(i) => i,
        };
        chunk.insert(at, (key, value));
        self.len += 1;
        if chunk.len() > CHUNK {
            let tail = chunk.split_off(CHUNK / 2);
            self.chunks.insert(ci + 1, tail);
            self.starts.insert(ci + 1, 0);
            self.recount_from(ci + 1);
        } else {
            for s in &mut self.starts[ci + 1..] {
                *s += 1;
            }
        }
        None
    }

    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let ci = self.chunk_for(key);
        let chunk = self.chunks.get_mut(ci)?;
        let at = chunk.binary_search_by(|e| e.0.as_slice().cmp(key)).ok()?;
        let (_, value) = chunk.remove(at);
        self.len -= 1;
        // Mass deletion must not leave a trail of near-empty chunks: one
        // that, with a neighbour, fills no more than a fresh chunk folds
        // into it.
        let left = chunk.len();
        let fold =
            |other: Option<&Vec<(Vec<u8>, V)>>| other.is_some_and(|o| left + o.len() <= CHUNK / 2);
        let into = if fold(self.chunks.get(ci + 1)) {
            Some(ci)
        } else if ci > 0 && fold(self.chunks.get(ci - 1)) {
            Some(ci - 1)
        } else {
            None
        };
        match into {
            Some(at) => {
                let next = self.chunks.remove(at + 1);
                self.starts.remove(at + 1);
                self.chunks[at].extend(next);
                self.recount_from(at);
            }
            None if left == 0 => {
                self.chunks.remove(ci);
                self.starts.remove(ci);
                self.recount_from(ci);
            }
            None => {
                for s in &mut self.starts[ci + 1..] {
                    *s -= 1;
                }
            }
        }
        Some(value)
    }

    /// How many keys sort strictly before `key` — the position of `key`
    /// itself when present.
    pub fn rank(&self, key: &[u8]) -> usize {
        let ci = self.chunk_for(key);
        match self.chunks.get(ci) {
            Some(chunk) => {
                self.starts[ci]
                    + chunk.partition_point(|e| {
                        step();
                        e.0.as_slice() < key
                    })
            }
            None => self.len,
        }
    }

    /// Entries from position `k` (zero-based) to the end, in key order.
    pub fn iter_from(&self, k: usize) -> impl Iterator<Item = (&[u8], &V)> {
        // Past the end: no chunk, nothing to skip.
        let (ci, skip) = if k < self.len {
            let ci = self.starts.partition_point(|&s| {
                step();
                s <= k
            }) - 1;
            (ci, k - self.starts[ci])
        } else {
            (self.chunks.len(), 0)
        };
        let mut chunks = self.chunks[ci..].iter();
        let head = chunks.next().map_or(&[][..], |c| &c[skip..]);
        head.iter()
            .chain(chunks.flatten())
            .map(|(k, v)| (k.as_slice(), v))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        self.iter_from(0)
    }

    /// The entry at position `k`.
    #[cfg(test)]
    fn nth(&self, k: usize) -> Option<(&[u8], &V)> {
        self.iter_from(k).next()
    }

    /// Entries with `lo <= key`, and `key < hi` when there is an upper
    /// bound.
    pub fn range(&self, lo: &[u8], hi: Option<Vec<u8>>) -> impl Iterator<Item = (&[u8], &V)> {
        self.iter_from(self.rank(lo))
            .take_while(move |(k, _)| hi.as_deref().is_none_or(|hi| *k < hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The chunk invariants every operation must leave behind.
    fn check<V>(o: &Order<V>) {
        assert_eq!(o.chunks.len(), o.starts.len());
        let mut seen = 0;
        for (c, s) in o.chunks.iter().zip(&o.starts) {
            assert!(!c.is_empty() && c.len() <= CHUNK);
            assert_eq!(*s, seen);
            seen += c.len();
        }
        assert_eq!(seen, o.len);
        let keys: Vec<&[u8]> = o.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    fn same(o: &Order<u32>, model: &BTreeMap<Vec<u8>, u32>) {
        check(o);
        assert_eq!(o.len(), model.len());
        assert_eq!(o.is_empty(), model.is_empty());
        let got: Vec<(Vec<u8>, u32)> = o.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
        let want: Vec<(Vec<u8>, u32)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(got, want);
    }

    fn key(k: u16) -> Vec<u8> {
        k.to_be_bytes().to_vec()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        /// Remove every key in `from..from + len`: long enough to empty
        /// whole chunks, the first and the last included.
        RemoveRun(u16, u16),
    }

    fn ops() -> impl Strategy<Value = Op> {
        prop_oneof![
            // A narrow key space: re-inserts of a removed key and
            // replacements under a live one are common.
            (0..700u16, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0..700u16).prop_map(Op::Remove),
            (0..700u16, 0..400u16).prop_map(|(from, len)| Op::RemoveRun(from, len)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// Any interleaving of inserts and removes — from empty or from a
        /// bulk load spanning several chunks — reads like a `BTreeMap`.
        #[test]
        fn reads_like_a_btreemap(
            seed in prop::collection::vec((0..700u16, any::<u32>()), 0..700),
            schedule in prop::collection::vec(ops(), 0..400),
            probes in prop::collection::vec((0..720u16, 0..720u16), 1..12),
        ) {
            let mut model: BTreeMap<Vec<u8>, u32> =
                seed.iter().map(|(k, v)| (key(*k), *v)).collect();
            let mut o = Order::from_sorted(model.clone().into_iter().collect());
            same(&o, &model);
            for op in &schedule {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(o.insert(key(*k), *v), model.insert(key(*k), *v)),
                    Op::Remove(k) => prop_assert_eq!(o.remove(&key(*k)), model.remove(&key(*k))),
                    Op::RemoveRun(from, len) => {
                        for k in *from..from + len {
                            prop_assert_eq!(o.remove(&key(k)), model.remove(&key(k)));
                        }
                        check(&o);
                    }
                }
            }
            same(&o, &model);
            for (a, b) in &probes {
                let (lo, hi) = (key(*a.min(b)), key(*a.max(b)));
                prop_assert_eq!(o.rank(&lo), model.range(..lo.clone()).count());
                let k = *a as usize;
                prop_assert_eq!(
                    o.nth(k).map(|(k, v)| (k.to_vec(), *v)),
                    model.iter().nth(k).map(|(k, v)| (k.clone(), *v))
                );
                prop_assert_eq!(o.iter_from(k).count(), model.len().saturating_sub(k));
                let got: Vec<u32> = o.range(&lo, Some(hi.clone())).map(|(_, v)| *v).collect();
                let want: Vec<u32> = model.range(lo.clone()..hi).map(|(_, v)| *v).collect();
                prop_assert_eq!(got, want);
                let got: Vec<u32> = o.range(&lo, None).map(|(_, v)| *v).collect();
                let want: Vec<u32> = model.range(lo..).map(|(_, v)| *v).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn empty_and_single_chunk_edges() {
        let mut o: Order<u32> = Order::new();
        assert!(o.is_empty());
        assert_eq!(o.rank(b"a"), 0);
        assert!(o.nth(0).is_none());
        assert_eq!(o.range(b"", None).count(), 0);
        assert_eq!(o.remove(b"a"), None);
        check(&o);

        assert_eq!(o.insert(b"m".to_vec(), 1), None);
        assert_eq!(o.insert(b"m".to_vec(), 2), Some(1), "an equal key replaces");
        assert_eq!(o.insert(b"z".to_vec(), 3), None, "past the end extends");
        assert_eq!(o.insert(b"a".to_vec(), 4), None);
        check(&o);
        assert_eq!((o.rank(b"a"), o.rank(b"b"), o.rank(b"zz")), (0, 1, 3));
        assert_eq!(o.nth(1), Some((&b"m"[..], &2)));
        assert!(o.nth(3).is_none());

        // A removed key comes back as a fresh entry, not a duplicate.
        assert_eq!(o.remove(b"m"), Some(2));
        assert_eq!(o.remove(b"m"), None);
        assert_eq!(o.insert(b"m".to_vec(), 5), None);
        assert_eq!(o.len(), 3);
        for k in [&b"a"[..], b"m", b"z"] {
            assert!(o.remove(k).is_some());
        }
        assert!(o.is_empty() && o.chunks.is_empty());

        assert!(Order::<u32>::from_sorted(Vec::new()).is_empty());
    }

    #[test]
    fn splits_and_merges_keep_chunks_bounded() {
        let mut o = Order::new();
        let n = 10 * CHUNK as u32;
        for k in 0..n {
            o.insert(k.to_be_bytes().to_vec(), k);
        }
        check(&o);
        assert!(o.chunks.len() >= 10);
        // Thin every chunk out: what is left folds back together.
        for k in (0..n).filter(|k| k % 16 != 0) {
            assert_eq!(o.remove(&k.to_be_bytes()), Some(k));
        }
        check(&o);
        assert_eq!(o.len(), n as usize / 16);
        assert!(
            o.chunks.len() <= 2 * o.len().div_ceil(CHUNK / 2),
            "{} chunks for {} entries",
            o.chunks.len(),
            o.len()
        );
    }
}
