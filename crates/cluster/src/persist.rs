//! [`Persist`] codecs for the storage-cluster snapshot types.
//!
//! The chunk map is not serialized: placement is a pure function of the
//! configuration (including its placement seed), so
//! [`Cluster::restore`](crate::Cluster::restore) rebuilds it
//! deterministically — the on-disk form only carries what cannot be
//! recomputed.

use crate::{
    ClusterConfig, ClusterSnapshot, ClusterStats, NodeConfig, NodeStats, StorageNodeSnapshot,
    MAX_REPLICATION,
};
use uc_flash::{DiePoolSnapshot, FlashTiming};
use uc_persist::{DecodeError, Decoder, Encoder, Persist};
use uc_sim::{LatencyDist, ResourceSnapshot};

impl Persist for NodeConfig {
    fn encode(&self, w: &mut Encoder) {
        self.lane_header.encode(w);
        self.per_io.encode(w);
        w.put_f64(self.stream_bytes_per_sec);
        self.staged_ack.encode(w);
        self.replica_hop.encode(w);
        self.flash_dies.encode(w);
        self.flash_timing.encode(w);
        w.put_u32(self.flash_page);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = NodeConfig {
            lane_header: LatencyDist::decode(r)?,
            per_io: LatencyDist::decode(r)?,
            stream_bytes_per_sec: r.get_f64()?,
            staged_ack: LatencyDist::decode(r)?,
            replica_hop: LatencyDist::decode(r)?,
            flash_dies: usize::decode(r)?,
            flash_timing: FlashTiming::decode(r)?,
            flash_page: r.get_u32()?,
        };
        if !(config.stream_bytes_per_sec > 0.0 && config.stream_bytes_per_sec.is_finite()) {
            return Err(DecodeError::InvalidValue {
                what: "NodeConfig.stream_bytes_per_sec",
            });
        }
        if config.flash_dies == 0 {
            return Err(DecodeError::InvalidValue {
                what: "NodeConfig.flash_dies",
            });
        }
        Ok(config)
    }
}

impl Persist for NodeStats {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.writes);
        w.put_u64(self.reads);
        w.put_u64(self.bytes_written);
        w.put_u64(self.bytes_read);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(NodeStats {
            writes: r.get_u64()?,
            reads: r.get_u64()?,
            bytes_written: r.get_u64()?,
            bytes_read: r.get_u64()?,
        })
    }
}

impl Persist for StorageNodeSnapshot {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        self.lanes.encode(w);
        self.flash.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(StorageNodeSnapshot {
            config: NodeConfig::decode(r)?,
            lanes: Vec::<(u64, ResourceSnapshot)>::decode(r)?,
            flash: DiePoolSnapshot::decode(r)?,
            stats: NodeStats::decode(r)?,
        })
    }
}

impl Persist for ClusterConfig {
    fn encode(&self, w: &mut Encoder) {
        self.nodes.encode(w);
        self.replication.encode(w);
        w.put_u64(self.chunk_bytes);
        w.put_u64(self.capacity);
        self.node.encode(w);
        w.put_u64(self.placement_seed);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = ClusterConfig {
            nodes: usize::decode(r)?,
            replication: usize::decode(r)?,
            chunk_bytes: r.get_u64()?,
            capacity: r.get_u64()?,
            node: NodeConfig::decode(r)?,
            placement_seed: r.get_u64()?,
        };
        // `Cluster::new`/`restore` assert these; reject here instead.
        if config.nodes == 0
            || !(1..=config.nodes.min(MAX_REPLICATION)).contains(&config.replication)
        {
            return Err(DecodeError::InvalidValue {
                what: "ClusterConfig.replication",
            });
        }
        if config.chunk_bytes == 0 {
            return Err(DecodeError::InvalidValue {
                what: "ClusterConfig.chunk_bytes",
            });
        }
        Ok(config)
    }
}

impl Persist for ClusterStats {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.write_fragments);
        w.put_u64(self.read_fragments);
        w.put_u64(self.bytes_written);
        w.put_u64(self.bytes_read);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ClusterStats {
            write_fragments: r.get_u64()?,
            read_fragments: r.get_u64()?,
            bytes_written: r.get_u64()?,
            bytes_read: r.get_u64()?,
        })
    }
}

impl Persist for ClusterSnapshot {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        self.nodes.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let snapshot = ClusterSnapshot {
            config: ClusterConfig::decode(r)?,
            nodes: Vec::<StorageNodeSnapshot>::decode(r)?,
            stats: ClusterStats::decode(r)?,
        };
        // `Cluster::restore` panics on this mismatch; fail typed instead.
        if snapshot.nodes.len() != snapshot.config.nodes {
            return Err(DecodeError::InvalidValue {
                what: "ClusterSnapshot.nodes",
            });
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use uc_sim::{SimRng, SimTime};

    fn busy_cluster() -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig::small(1 << 30));
        let mut rng = SimRng::new(11);
        for i in 0..24u64 {
            cluster.write(SimTime::ZERO, i * (8 << 20), 64 << 10, &mut rng);
            cluster.read(SimTime::ZERO, i * (4 << 20), 4096, &mut rng);
        }
        cluster
    }

    #[test]
    fn busy_cluster_round_trips_and_restores() {
        let cluster = busy_cluster();
        let snapshot = cluster.snapshot();
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = ClusterSnapshot::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, snapshot);
        let restored = Cluster::restore(back);
        assert_eq!(restored.stats(), cluster.stats());
        assert_eq!(restored.node_stats(), cluster.node_stats());
    }

    #[test]
    fn node_count_mismatch_is_typed() {
        let mut snapshot = busy_cluster().snapshot();
        snapshot.nodes.pop();
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ClusterSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ClusterSnapshot.nodes"
            })
        );
    }

    #[test]
    fn invalid_replication_is_typed() {
        let mut snapshot = busy_cluster().snapshot();
        snapshot.config.replication = 0;
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ClusterSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ClusterConfig.replication"
            })
        );
    }

    #[test]
    fn replication_above_the_cap_is_typed() {
        // Enough nodes that only the MAX_REPLICATION cap is violated.
        let mut snapshot = busy_cluster().snapshot();
        snapshot.config.replication = MAX_REPLICATION + 1;
        assert!(snapshot.config.nodes > MAX_REPLICATION);
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ClusterSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ClusterConfig.replication"
            })
        );
    }
}
