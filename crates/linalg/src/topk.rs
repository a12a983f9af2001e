//! Bounded top-k heaps and the parallel heap merge.
//!
//! Algorithm 2 of the paper keeps, per worker thread, "its own heap of
//! its current top-k vectors, and an efficient parallel heap merge is
//! performed once all threads finish processing their partitions".
//! [`TopK`] is that per-thread bounded max-heap (worst candidate on
//! top, evicted when something closer arrives); [`merge_all`] is the
//! final merge.

use std::collections::BinaryHeap;

/// Most heap slots [`TopK::with_payload`] reserves before the first
/// candidate: enough for every `k` a query asks for in practice.
const RESERVED: usize = 1024;

/// One search result: a vector id and its distance to the query, plus
/// an optional caller payload that rides along without taking part in
/// the order (a quantized scan carries each candidate's storage
/// location this way; plain heaps carry `()`, which costs nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor<P = ()> {
    pub id: u64,
    pub distance: f32,
    pub payload: P,
}

impl<P: PartialEq> Eq for Neighbor<P> {}

impl<P: PartialEq> Ord for Neighbor<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: distance first (NaN sorts greatest), then id for
        // determinism across runs and thread counts. The payload is
        // not compared.
        self.distance
            .total_cmp(&other.distance)
            .then(self.id.cmp(&other.id))
    }
}

impl<P: PartialEq> PartialOrd for Neighbor<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded max-heap retaining the `k` smallest-distance candidates,
/// each with its payload `P`.
#[derive(Debug, Clone)]
pub struct TopK<P = ()> {
    k: usize,
    heap: BinaryHeap<Neighbor<P>>,
}

impl TopK {
    /// A heap retaining at most `k` neighbours.
    pub fn new(k: usize) -> TopK {
        TopK::with_payload(k)
    }

    /// Offers a candidate (Algorithm 2 lines 7–10). Returns `true` if
    /// it was retained.
    #[inline]
    pub fn push(&mut self, id: u64, distance: f32) -> bool {
        self.push_with(id, distance, ())
    }
}

impl<P: PartialEq> TopK<P> {
    /// A heap retaining at most `k` neighbours and their payloads. At
    /// most 1 024 slots are reserved up front; a larger heap grows as
    /// candidates arrive, so any `k` — `usize::MAX` included — is a
    /// valid request for "every candidate".
    pub fn with_payload(k: usize) -> TopK<P> {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(RESERVED)),
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of retained candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no candidates are retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether a push of this candidate would retain it right now: the
    /// heap has room, or the candidate beats the worst retained one
    /// under the total `(distance, id)` order. Lets a scan run an
    /// expensive per-row check only for rows that can still matter.
    #[inline]
    pub fn accepts(&self, id: u64, distance: f32) -> bool {
        if self.heap.len() < self.k {
            return true;
        }
        self.heap.peek().is_some_and(|worst| {
            distance
                .total_cmp(&worst.distance)
                .then(id.cmp(&worst.id))
                .is_lt()
        })
    }

    /// Offers a candidate with its payload. Returns `true` if it was
    /// retained. Once the heap is full, the candidate replaces the
    /// worst retained one in place — one sift down from the root —
    /// instead of a pop and a push.
    #[inline]
    pub fn push_with(&mut self, id: u64, distance: f32, payload: P) -> bool {
        if !self.accepts(id, distance) {
            return false;
        }
        let candidate = Neighbor {
            id,
            distance,
            payload,
        };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            *worst = candidate;
        }
        true
    }

    /// Absorbs another heap (the pairwise step of the parallel merge).
    pub fn merge(&mut self, other: TopK<P>) {
        for n in other.heap {
            self.push_with(n.id, n.distance, n.payload);
        }
    }

    /// Extracts the retained candidates sorted by ascending distance.
    pub fn into_sorted(self) -> Vec<Neighbor<P>> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Merges per-thread heaps into one, then sorts: the "parallel heap
/// merge" + "parallel sort" tail of the query pipeline (Figure 3).
/// Merging is pairwise-tree shaped so work is `O(t·k·log k)`.
pub fn merge_all<P: PartialEq>(mut heaps: Vec<TopK<P>>, k: usize) -> Vec<Neighbor<P>> {
    if heaps.is_empty() {
        return Vec::new();
    }
    // Tree reduction: repeatedly merge pairs.
    while heaps.len() > 1 {
        let mut next = Vec::with_capacity(heaps.len().div_ceil(2));
        let mut it = heaps.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.merge(b);
            }
            next.push(a);
        }
        heaps = next;
    }
    let mut out = heaps.pop().expect("non-empty").into_sorted();
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_k_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(1, 5.0), (2, 1.0), (3, 4.0), (4, 2.0), (5, 9.0), (6, 0.5)] {
            t.push(id, d);
        }
        let got = t.into_sorted();
        assert_eq!(
            got.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![6, 2, 4],
            "ids of the 3 smallest distances, ascending"
        );
        assert_eq!(got[0].distance, 0.5);
    }

    #[test]
    fn accepts_predicts_push() {
        let mut t = TopK::new(2);
        for (id, d) in [
            (5, 2.0),
            (9, 1.0),
            (7, 2.0),
            (3, 2.0),
            (4, 3.0),
            (1, f32::NAN),
        ] {
            let would = t.accepts(id, d);
            assert_eq!(t.push(id, d), would, "id {id}");
        }
        // A tie on distance is broken by id: 3 displaced 5.
        assert!(t.accepts(2, 2.0) && !t.accepts(3, 2.0) && !t.accepts(4, 2.0));
        assert!(!TopK::new(0).accepts(1, 0.0));
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32) / (1u32 << 31) as f32
        };
        for k in [1, 7, 100] {
            let items: Vec<(u64, f32)> = (0..500).map(|i| (i, next())).collect();
            let mut t = TopK::new(k);
            for &(id, d) in &items {
                t.push(id, d);
            }
            let got = t.into_sorted();
            let mut want: Vec<Neighbor> = items
                .iter()
                .map(|&(id, distance)| Neighbor {
                    id,
                    distance,
                    payload: (),
                })
                .collect();
            want.sort_unstable();
            want.truncate(k);
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn merge_equals_single_heap() {
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32) / (1u32 << 31) as f32
        };
        let items: Vec<(u64, f32)> = (0..1000).map(|i| (i, next())).collect();
        let k = 25;
        // One big heap.
        let mut single = TopK::new(k);
        for &(id, d) in &items {
            single.push(id, d);
        }
        // Eight per-thread heaps merged.
        let mut shards: Vec<TopK> = (0..8).map(|_| TopK::new(k)).collect();
        for (i, &(id, d)) in items.iter().enumerate() {
            shards[i % 8].push(id, d);
        }
        let merged = merge_all(shards, k);
        assert_eq!(merged, single.into_sorted());
    }

    #[test]
    fn merge_all_edge_cases() {
        assert!(merge_all(Vec::<TopK>::new(), 5).is_empty());
        let empty = TopK::new(5);
        assert!(merge_all(vec![empty], 5).is_empty());
        let mut one = TopK::new(5);
        one.push(1, 1.0);
        assert_eq!(merge_all(vec![one], 5).len(), 1);
        // k = 0 retains nothing.
        let mut z = TopK::new(0);
        assert!(!z.push(1, 1.0));
        assert!(z.into_sorted().is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut t = TopK::new(2);
        t.push(9, 1.0);
        t.push(3, 1.0);
        t.push(5, 1.0);
        let got: Vec<u64> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(got, vec![3, 5], "equal distances keep smallest ids");
    }

    #[test]
    fn nan_distances_sort_last_and_get_evicted() {
        let mut t = TopK::new(2);
        t.push(1, f32::NAN);
        t.push(2, 1.0);
        t.push(3, 2.0);
        let got: Vec<u64> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(got, vec![2, 3]);
    }
}
