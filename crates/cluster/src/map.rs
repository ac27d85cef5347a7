//! Deterministic chunk placement.

use std::ops::Deref;

/// The largest replication factor a [`ChunkMap`] accepts; it bounds the
/// inline [`Replicas`] set so placement never allocates.
pub const MAX_REPLICATION: usize = 8;

/// Stripes a virtual byte range into chunks and places each chunk's
/// replicas on distinct nodes.
///
/// Placement is a pure function of `(chunk, seed)`: no state is stored, so
/// maps are cheap for arbitrarily large virtual disks and reproducible
/// across runs. The placement hash spreads consecutive chunks across
/// unrelated node sets, which is what gives *random* writes their backend
/// parallelism advantage over a chunk-bound sequential stream
/// (Observation 3 of the paper).
///
/// # Example
///
/// ```
/// use uc_cluster::ChunkMap;
///
/// let map = ChunkMap::new(1 << 20, 12, 3, 42);
/// let replicas = map.replicas(7);
/// assert_eq!(replicas.len(), 3); // a `Replicas` derefs to `[usize]`
/// // Replicas are distinct nodes.
/// assert!(replicas[0] != replicas[1] && replicas[1] != replicas[2]);
/// // Placement is deterministic.
/// assert_eq!(replicas, map.replicas(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMap {
    chunk_bytes: u64,
    nodes: usize,
    replication: usize,
    seed: u64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChunkMap {
    /// A map with the given striping granularity and placement parameters.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0`, `nodes == 0`, or `replication` is not
    /// in `[1, nodes]` or exceeds [`MAX_REPLICATION`].
    pub fn new(chunk_bytes: u64, nodes: usize, replication: usize, seed: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        assert!(nodes > 0, "node count must be positive");
        assert!(
            (1..=nodes).contains(&replication),
            "replication must be in [1, nodes]"
        );
        assert!(
            replication <= MAX_REPLICATION,
            "replication must not exceed MAX_REPLICATION ({MAX_REPLICATION})"
        );
        ChunkMap {
            chunk_bytes,
            nodes,
            replication,
            seed,
        }
    }

    /// Striping granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// The chunk containing byte `offset`.
    pub fn chunk_of(&self, offset: u64) -> u64 {
        offset / self.chunk_bytes
    }

    /// The distinct nodes holding `chunk`, primary first.
    pub fn replicas(&self, chunk: u64) -> Replicas {
        let mut picked = Replicas {
            nodes: [0; MAX_REPLICATION],
            len: 0,
        };
        let mut state = splitmix64(chunk ^ self.seed);
        while picked.len < self.replication {
            state = splitmix64(state);
            let node = (state % self.nodes as u64) as usize;
            if !picked.contains(&node) {
                picked.nodes[picked.len] = node;
                picked.len += 1;
            }
        }
        picked
    }

    /// Splits the byte range `[offset, offset + len)` at chunk boundaries,
    /// yielding `(chunk, fragment_len)` pairs in address order.
    pub fn fragments(&self, offset: u64, len: u32) -> Fragments {
        Fragments {
            chunk_bytes: self.chunk_bytes,
            cur: offset,
            end: offset + len as u64,
        }
    }
}

/// The distinct nodes holding one chunk, primary first: an inline,
/// `Copy` set of at most [`MAX_REPLICATION`] nodes that derefs to
/// `[usize]`. Returned by [`ChunkMap::replicas`].
#[derive(Clone, Copy)]
pub struct Replicas {
    nodes: [usize; MAX_REPLICATION],
    len: usize,
}

impl Deref for Replicas {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.nodes[..self.len]
    }
}

impl PartialEq for Replicas {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Replicas {}

impl std::fmt::Debug for Replicas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The `(chunk, fragment_len)` pieces of a byte range, in address order.
/// Returned by [`ChunkMap::fragments`]; its exact length is known up
/// front.
#[derive(Debug, Clone)]
pub struct Fragments {
    chunk_bytes: u64,
    cur: u64,
    end: u64,
}

impl Iterator for Fragments {
    type Item = (u64, u32);

    fn next(&mut self) -> Option<(u64, u32)> {
        if self.cur >= self.end {
            return None;
        }
        let chunk = self.cur / self.chunk_bytes;
        let chunk_end = (chunk + 1) * self.chunk_bytes;
        let frag = chunk_end.min(self.end) - self.cur;
        self.cur += frag;
        Some((chunk, frag as u32))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = if self.cur >= self.end {
            0
        } else {
            ((self.end - 1) / self.chunk_bytes - self.cur / self.chunk_bytes + 1) as usize
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for Fragments {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn replicas_are_distinct_and_stable() {
        let map = ChunkMap::new(1 << 20, 10, 3, 9);
        for chunk in 0..100 {
            let r = map.replicas(chunk);
            assert_eq!(r.len(), 3);
            let mut sorted = r.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "chunk {chunk}: duplicate replica");
            assert_eq!(r, map.replicas(chunk));
        }
    }

    #[test]
    fn placement_is_balanced() {
        let map = ChunkMap::new(1 << 20, 8, 3, 1);
        let mut load: HashMap<usize, usize> = HashMap::new();
        let chunks = 4000;
        for c in 0..chunks {
            for &n in map.replicas(c).iter() {
                *load.entry(n).or_default() += 1;
            }
        }
        let expected = chunks as usize * 3 / 8;
        for n in 0..8 {
            let l = load.get(&n).copied().unwrap_or(0);
            assert!(
                (l as i64 - expected as i64).unsigned_abs() < (expected / 5) as u64,
                "node {n} holds {l} of ~{expected}"
            );
        }
    }

    #[test]
    fn consecutive_chunks_get_different_primaries() {
        let map = ChunkMap::new(1 << 20, 16, 3, 5);
        let primaries: Vec<usize> = (0..32).map(|c| map.replicas(c)[0]).collect();
        let distinct: std::collections::HashSet<_> = primaries.iter().collect();
        assert!(
            distinct.len() > 8,
            "placement should spread consecutive chunks, got {distinct:?}"
        );
    }

    #[test]
    fn fragments_cover_range_exactly() {
        let map = ChunkMap::new(64 << 10, 4, 2, 0);
        let frags: Vec<(u64, u32)> = map.fragments(32 << 10, 160 << 10).collect();
        let total: u64 = frags.iter().map(|&(_, l)| l as u64).sum();
        assert_eq!(total, 160 << 10);
        assert_eq!(frags[0], (0, 32 << 10));
        assert_eq!(frags[1], (1, 64 << 10));
        assert_eq!(frags[2], (2, 64 << 10));
        assert_eq!(frags.len(), 3);
    }

    #[test]
    fn aligned_request_is_single_fragment() {
        let map = ChunkMap::new(1 << 20, 4, 2, 0);
        let frags = map.fragments(5 << 20, 4096);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags.collect::<Vec<_>>(), vec![(5, 4096)]);
    }

    #[test]
    fn full_replication_uses_every_node() {
        let map = ChunkMap::new(1 << 20, 3, 3, 7);
        let mut r = map.replicas(11).to_vec();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    fn fragments_len_matches_items_yielded() {
        let map = ChunkMap::new(64 << 10, 4, 2, 0);
        let cases: [(u64, u32); 6] = [
            (0, 4096),                // inside one chunk, aligned start
            (60 << 10, 8 << 10),      // mid-chunk start and end, one boundary
            (1000, 64 << 10),         // exactly one chunk's worth, unaligned
            (64 << 10, 64 << 10),     // exactly one chunk, aligned
            (12_345, 10 << 20),       // spans ~160 chunks, ragged both ends
            ((3 << 20) + 1, 1 << 20), // many chunks, off-by-one start
        ];
        for (offset, len) in cases {
            let mut frags = map.fragments(offset, len);
            let claimed = frags.len();
            let mut yielded = 0;
            while let Some(_) = frags.next() {
                yielded += 1;
                assert_eq!(frags.len(), claimed - yielded, "len shrinks per item");
            }
            assert_eq!(yielded, claimed, "({offset}, {len})");
            assert_eq!(frags.len(), 0);
            assert_eq!(frags.next(), None);
        }
    }

    #[test]
    fn replicas_are_a_copy_set_up_to_the_cap() {
        let map = ChunkMap::new(1 << 20, 16, MAX_REPLICATION, 3);
        let r = map.replicas(9);
        let copy = r;
        assert_eq!(copy, r);
        assert_eq!(r.len(), MAX_REPLICATION);
        let mut sorted = r.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), MAX_REPLICATION);
        assert_eq!(
            format!("{:?}", map.replicas(9)),
            format!("{:?}", r.to_vec())
        );
    }

    #[test]
    #[should_panic(expected = "MAX_REPLICATION")]
    fn replication_above_the_cap_panics() {
        let _ = ChunkMap::new(1 << 20, 16, MAX_REPLICATION + 1, 0);
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn bad_replication_panics() {
        let _ = ChunkMap::new(1 << 20, 2, 3, 0);
    }
}
