//! Storage node service model.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use uc_flash::{DiePool, DiePoolSnapshot, FlashTiming};
use uc_sim::{LatencyDist, Resource, ResourceSnapshot, SimDuration, SimRng, SimTime};

/// Parameters of a [`StorageNode`].
///
/// The two cost knobs that shape the paper's observations:
///
/// * `stream_bytes_per_sec` — each *chunk* is served by one lane at this
///   bandwidth, so a single sequential stream cannot exceed it no matter
///   the tenant's budget (Observation 3),
/// * `staged_ack` — writes acknowledge from NVRAM/DRAM staging; flash
///   programs (and any backend GC they imply) happen off the critical
///   path, which is why device-side GC never surfaces to the tenant
///   (Observation 2).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Serialized per-fragment cost on the chunk lane (request framing);
    /// together with the lane transfer time this sets the per-chunk
    /// operation rate.
    pub lane_header: LatencyDist,
    /// Per-fragment processing latency off the serial path (index lookup,
    /// checksums) — adds latency but not chunk-lane occupancy.
    pub per_io: LatencyDist,
    /// Per-chunk service bandwidth in bytes/second.
    pub stream_bytes_per_sec: f64,
    /// Extra latency of the staging/NVRAM acknowledgement for writes.
    pub staged_ack: LatencyDist,
    /// One backend-fabric hop, paid by non-primary replicas.
    pub replica_hop: LatencyDist,
    /// Flash dies in the node's read pool.
    pub flash_dies: usize,
    /// NAND timing of the node's drives.
    pub flash_timing: FlashTiming,
    /// Flash page size in bytes.
    pub flash_page: u32,
}

impl Default for NodeConfig {
    /// A mid-range storage server: 25 µs per-fragment cost, 1 GB/s chunk
    /// lanes, 15 µs staged acks, 64-die flash pool with MLC timing.
    fn default() -> Self {
        NodeConfig {
            lane_header: LatencyDist::normal(
                SimDuration::from_micros(5),
                SimDuration::from_nanos(500),
            ),
            per_io: LatencyDist::normal(SimDuration::from_micros(25), SimDuration::from_micros(3)),
            stream_bytes_per_sec: 1.0e9,
            staged_ack: LatencyDist::normal(
                SimDuration::from_micros(15),
                SimDuration::from_micros(2),
            ),
            replica_hop: LatencyDist::normal(
                SimDuration::from_micros(20),
                SimDuration::from_micros(3),
            ),
            flash_dies: 64,
            flash_timing: FlashTiming::mlc(),
            flash_page: 4096,
        }
    }
}

impl NodeConfig {
    /// Replaces the per-chunk stream bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive and finite.
    pub fn with_stream_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "stream bandwidth must be positive"
        );
        self.stream_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Replaces the off-lane per-fragment processing latency.
    pub fn with_per_io(mut self, dist: LatencyDist) -> Self {
        self.per_io = dist;
        self
    }

    /// Replaces the serialized lane header cost.
    pub fn with_lane_header(mut self, dist: LatencyDist) -> Self {
        self.lane_header = dist;
        self
    }

    /// Replaces the flash pool (die count and timing).
    pub fn with_flash(mut self, dies: usize, timing: FlashTiming, page: u32) -> Self {
        self.flash_dies = dies.max(1);
        self.flash_timing = timing;
        self.flash_page = page.max(512);
        self
    }
}

/// Cumulative counters for one [`StorageNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Write fragments staged.
    pub writes: u64,
    /// Read fragments served.
    pub reads: u64,
    /// Bytes staged for write.
    pub bytes_written: u64,
    /// Bytes read from flash.
    pub bytes_read: u64,
}

/// Hashes the chunk-id keys of [`StorageNode`]'s lane map: one multiply
/// and a rotate per key instead of SipHash. The rotate brings the
/// product's high bits, which depend on every bit of the key, down to
/// the low bits the table indexes by, so strided chunk ids do not pile
/// into one bucket. Unkeyed, which is safe here: chunk ids are bounded by
/// the device's capacity, and snapshots sort lanes by chunk, so the
/// map's iteration order is never observed.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkHasher(u64);

impl Hasher for ChunkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type LaneMap = HashMap<u64, Resource, BuildHasherDefault<ChunkHasher>>;

/// One storage server in the cluster.
///
/// Serving model:
///
/// * every fragment *occupies* the lane of its chunk for
///   `lane_header + bytes/stream` — this per-chunk FIFO occupancy is what
///   caps a single sequential stream (Observation 3),
/// * the fragment's own completion *overlaps* the stream: a write
///   acknowledges after `lane_header + per_io + staged_ack` once its lane
///   slot starts (data is staged as it arrives); a read is ready after
///   `lane_header + per_io + flash`, with the outbound transfer charged by
///   the network layer,
/// * flash programs happen off the critical path on the node's die pool
///   and only contend with reads (Observation 2's provider-side GC
///   absorption).
#[derive(Debug, Clone)]
pub struct StorageNode {
    config: NodeConfig,
    lanes: LaneMap,
    flash: DiePool,
    stats: NodeStats,
}

impl StorageNode {
    /// An idle node.
    pub fn new(config: NodeConfig) -> Self {
        StorageNode {
            flash: DiePool::new(config.flash_dies, config.flash_timing, config.flash_page),
            lanes: LaneMap::default(),
            stats: NodeStats::default(),
            config,
        }
    }

    /// This node's counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Stages a write fragment of `len` bytes belonging to `chunk`;
    /// returns the acknowledgement instant.
    pub fn write(&mut self, now: SimTime, chunk: u64, len: u32, rng: &mut SimRng) -> SimTime {
        let header = self.config.lane_header.sample(rng);
        let occupancy = header + self.transfer_time(len);
        let lane = self.lanes.entry(chunk).or_default();
        let (start, _) = lane.acquire(now, occupancy);
        // The ack pipelines with the inbound stream: it leaves once the
        // lane slot starts and the header + lookup are done.
        let staged = start + header + self.config.per_io.sample(rng);
        // Flash program happens asynchronously after staging; it only
        // contends with reads on the die pool, never delays the ack.
        self.flash.program(staged, len);
        self.stats.writes += 1;
        self.stats.bytes_written += len as u64;
        staged + self.config.staged_ack.sample(rng)
    }

    /// Serves a read fragment of `len` bytes belonging to `chunk`; returns
    /// when the data is ready to start streaming back (the outbound
    /// transfer itself is the network layer's job and overlaps this).
    pub fn read(&mut self, now: SimTime, chunk: u64, len: u32, rng: &mut SimRng) -> SimTime {
        let header = self.config.lane_header.sample(rng);
        let occupancy = header + self.transfer_time(len);
        let (start, _) = self.lanes.entry(chunk).or_default().acquire(now, occupancy);
        let parsed = start + header + self.config.per_io.sample(rng);
        let fetched = self.flash.read(parsed, len);
        self.stats.reads += 1;
        self.stats.bytes_read += len as u64;
        fetched
    }

    fn transfer_time(&self, len: u32) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.config.stream_bytes_per_sec)
    }

    /// Captures the node's complete state.
    pub fn snapshot(&self) -> StorageNodeSnapshot {
        let mut lanes: Vec<(u64, ResourceSnapshot)> = self
            .lanes
            .iter()
            .map(|(&chunk, lane)| (chunk, lane.snapshot()))
            .collect();
        lanes.sort_unstable_by_key(|&(chunk, _)| chunk);
        StorageNodeSnapshot {
            config: self.config.clone(),
            lanes,
            flash: self.flash.snapshot(),
            stats: self.stats,
        }
    }

    /// Rebuilds a node that continues exactly where `snapshot` was taken.
    pub fn restore(snapshot: StorageNodeSnapshot) -> Self {
        #[cfg(feature = "strict-invariants")]
        let expected = snapshot.clone();
        let restored = StorageNode {
            config: snapshot.config,
            lanes: snapshot
                .lanes
                .into_iter()
                .map(|(chunk, lane)| (chunk, Resource::restore(lane)))
                .collect(),
            flash: DiePool::restore(snapshot.flash),
            stats: snapshot.stats,
        };
        // Contract hook (deep): thaw(freeze(n)) is observationally exact.
        #[cfg(feature = "strict-invariants")]
        uc_invariant::deep_enforce(|| {
            if restored.snapshot() != expected {
                return Err(uc_invariant::Violation::new(
                    "uc-cluster/StorageNode",
                    "thaw-freeze-exact",
                    "re-freezing the restored node does not reproduce its snapshot",
                ));
            }
            Ok(())
        });
        restored
    }
}

/// The complete serializable state of a [`StorageNode`].
///
/// Chunk lanes (a hash map inside the live node) are stored sorted by
/// chunk id — the canonical form — so two snapshots of behaviourally
/// identical nodes compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageNodeSnapshot {
    /// The node's service parameters.
    pub config: NodeConfig,
    /// Per-chunk lane timelines as `(chunk, lane)`, sorted by chunk id.
    pub lanes: Vec<(u64, ResourceSnapshot)>,
    /// The flash read/program pool.
    pub flash: DiePoolSnapshot,
    /// Cumulative counters.
    pub stats: NodeStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> StorageNode {
        StorageNode::new(NodeConfig::default())
    }

    #[test]
    fn write_ack_is_staging_fast() {
        let mut n = node();
        let mut rng = SimRng::new(1);
        let ack = n.write(SimTime::ZERO, 0, 4096, &mut rng);
        let us = (ack - SimTime::ZERO).as_micros_f64();
        // per_io ~25 + transfer ~4 + ack ~15: well under one NAND program.
        assert!(us < 100.0, "staged ack took {us} us");
    }

    #[test]
    fn read_pays_flash_sense() {
        let mut n = node();
        let mut rng = SimRng::new(2);
        let done = n.read(SimTime::ZERO, 0, 4096, &mut rng);
        let us = (done - SimTime::ZERO).as_micros_f64();
        assert!(us > 50.0, "flash read should cost a sense, got {us} us");
    }

    #[test]
    fn same_chunk_serializes_different_chunks_do_not() {
        let mut n = node();
        let mut rng = SimRng::new(3);
        let big = 1 << 20;
        let a = n.write(SimTime::ZERO, 0, big, &mut rng);
        let b = n.write(SimTime::ZERO, 0, big, &mut rng);
        assert!(
            (b - SimTime::ZERO).as_secs_f64() > 1.8 * (a - SimTime::ZERO).as_secs_f64(),
            "same-chunk writes must queue"
        );
        let mut n2 = node();
        let c = n2.write(SimTime::ZERO, 0, big, &mut rng);
        let d = n2.write(SimTime::ZERO, 1, big, &mut rng);
        let spread = (d - SimTime::ZERO)
            .as_secs_f64()
            .max((c - SimTime::ZERO).as_secs_f64());
        assert!(
            spread < 1.5 * (c - SimTime::ZERO).as_secs_f64(),
            "different chunks should be parallel"
        );
    }

    #[test]
    fn background_programs_contend_with_reads() {
        // Saturate the die pool with staged writes, then read: the read
        // queues behind the programs.
        let cfg = NodeConfig::default().with_flash(1, FlashTiming::mlc(), 4096);
        let mut n = StorageNode::new(cfg);
        let mut rng = SimRng::new(4);
        let baseline = {
            let mut fresh =
                StorageNode::new(NodeConfig::default().with_flash(1, FlashTiming::mlc(), 4096));
            fresh.read(SimTime::ZERO, 9, 4096, &mut rng) - SimTime::ZERO
        };
        for i in 0..8 {
            n.write(SimTime::ZERO, i, 64 << 10, &mut rng);
        }
        let slowed = n.read(SimTime::ZERO, 9, 4096, &mut rng) - SimTime::ZERO;
        assert!(
            slowed > baseline,
            "read behind programs ({slowed}) should exceed clean read ({baseline})"
        );
    }

    #[test]
    fn stats_track_bytes() {
        let mut n = node();
        let mut rng = SimRng::new(5);
        n.write(SimTime::ZERO, 0, 4096, &mut rng);
        n.read(SimTime::ZERO, 0, 8192, &mut rng);
        assert_eq!(n.stats().writes, 1);
        assert_eq!(n.stats().reads, 1);
        assert_eq!(n.stats().bytes_written, 4096);
        assert_eq!(n.stats().bytes_read, 8192);
    }
}
