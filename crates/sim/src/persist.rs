//! [`Persist`] codecs for the simulation kernel's snapshot types.
//!
//! These are the leaves of every device checkpoint: virtual-time values,
//! RNG state, resource timelines, token buckets and latency
//! distributions. Each codec round-trips losslessly
//! (`decode(encode(x)) == x`) and rejects malformed bytes with a typed
//! [`DecodeError`] — the foundation the on-disk checkpoint format
//! (`uc-persist` records) is built on.

use crate::{
    LatencyDist, ParallelResourceSnapshot, ResourceSnapshot, RngSnapshot, SimDuration, SimRng,
    SimTime, TokenBucketSnapshot,
};
use uc_persist::{DecodeError, Decoder, Encoder, Persist};

impl Persist for SimTime {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SimTime::from_nanos(r.get_u64()?))
    }
}

impl Persist for SimDuration {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SimDuration::from_nanos(r.get_u64()?))
    }
}

impl Persist for RngSnapshot {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.seed);
        self.state.encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(RngSnapshot {
            seed: r.get_u64()?,
            state: <[u64; 4]>::decode(r)?,
        })
    }
}

impl Persist for SimRng {
    fn encode(&self, w: &mut Encoder) {
        self.snapshot().encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SimRng::restore(RngSnapshot::decode(r)?))
    }
}

impl Persist for ResourceSnapshot {
    fn encode(&self, w: &mut Encoder) {
        self.busy_until.encode(w);
        self.busy_time.encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ResourceSnapshot {
            busy_until: SimTime::decode(r)?,
            busy_time: SimDuration::decode(r)?,
        })
    }
}

impl Persist for ParallelResourceSnapshot {
    fn encode(&self, w: &mut Encoder) {
        self.servers.encode(w);
        self.busy_time.encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let servers = Vec::<SimTime>::decode(r)?;
        if servers.is_empty() {
            // `ParallelResource::restore` requires at least one server;
            // reject here so decoding never yields a panic-on-use value.
            return Err(DecodeError::InvalidValue {
                what: "ParallelResourceSnapshot.servers",
            });
        }
        if servers.windows(2).any(|w| w[0] > w[1]) {
            // The encoder only ever writes the canonical ascending form.
            return Err(DecodeError::InvalidValue {
                what: "ParallelResourceSnapshot.servers order",
            });
        }
        Ok(ParallelResourceSnapshot {
            servers,
            busy_time: SimDuration::decode(r)?,
        })
    }
}

impl Persist for TokenBucketSnapshot {
    fn encode(&self, w: &mut Encoder) {
        w.put_f64(self.burst);
        w.put_f64(self.rate_per_sec);
        w.put_f64(self.available);
        self.last.encode(w);
        w.put_u64(self.granted_total);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let snapshot = TokenBucketSnapshot {
            burst: r.get_f64()?,
            rate_per_sec: r.get_f64()?,
            available: r.get_f64()?,
            last: SimTime::decode(r)?,
            granted_total: r.get_u64()?,
        };
        if !(snapshot.burst > 0.0 && snapshot.burst.is_finite()) {
            return Err(DecodeError::InvalidValue {
                what: "TokenBucketSnapshot.burst",
            });
        }
        if !(snapshot.rate_per_sec > 0.0 && snapshot.rate_per_sec.is_finite()) {
            return Err(DecodeError::InvalidValue {
                what: "TokenBucketSnapshot.rate_per_sec",
            });
        }
        Ok(snapshot)
    }
}

/// Variant tags of the [`LatencyDist`] wire form.
mod dist_tag {
    pub const CONSTANT: u8 = 0;
    pub const UNIFORM: u8 = 1;
    pub const NORMAL: u8 = 2;
    pub const LOG_NORMAL: u8 = 3;
    pub const BOUNDED_PARETO: u8 = 4;
    pub const MIXTURE: u8 = 5;
}

impl Persist for LatencyDist {
    fn encode(&self, w: &mut Encoder) {
        match self {
            LatencyDist::Constant(v) => {
                w.put_u8(dist_tag::CONSTANT);
                v.encode(w);
            }
            LatencyDist::Uniform { low, high } => {
                w.put_u8(dist_tag::UNIFORM);
                low.encode(w);
                high.encode(w);
            }
            LatencyDist::Normal { mean, std_dev } => {
                w.put_u8(dist_tag::NORMAL);
                mean.encode(w);
                std_dev.encode(w);
            }
            LatencyDist::LogNormal { median, sigma } => {
                w.put_u8(dist_tag::LOG_NORMAL);
                median.encode(w);
                w.put_f64(*sigma);
            }
            LatencyDist::BoundedPareto { scale, shape, cap } => {
                w.put_u8(dist_tag::BOUNDED_PARETO);
                scale.encode(w);
                w.put_f64(*shape);
                cap.encode(w);
            }
            LatencyDist::Mixture {
                base,
                tail,
                tail_prob,
            } => {
                w.put_u8(dist_tag::MIXTURE);
                base.encode(w);
                tail.encode(w);
                w.put_f64(*tail_prob);
            }
        }
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            dist_tag::CONSTANT => Ok(LatencyDist::Constant(SimDuration::decode(r)?)),
            dist_tag::UNIFORM => Ok(LatencyDist::Uniform {
                low: SimDuration::decode(r)?,
                high: SimDuration::decode(r)?,
            }),
            dist_tag::NORMAL => Ok(LatencyDist::Normal {
                mean: SimDuration::decode(r)?,
                std_dev: SimDuration::decode(r)?,
            }),
            dist_tag::LOG_NORMAL => Ok(LatencyDist::LogNormal {
                median: SimDuration::decode(r)?,
                sigma: r.get_f64()?,
            }),
            dist_tag::BOUNDED_PARETO => Ok(LatencyDist::BoundedPareto {
                scale: SimDuration::decode(r)?,
                shape: r.get_f64()?,
                cap: SimDuration::decode(r)?,
            }),
            dist_tag::MIXTURE => Ok(LatencyDist::Mixture {
                base: Box::new(LatencyDist::decode(r)?),
                tail: Box::new(LatencyDist::decode(r)?),
                tail_prob: r.get_f64()?,
            }),
            _ => Err(DecodeError::InvalidValue {
                what: "LatencyDist tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) -> T {
        let mut w = Encoder::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back, value);
        back
    }

    #[test]
    fn time_types_round_trip() {
        round_trip(SimTime::from_nanos(123_456_789));
        round_trip(SimTime::MAX);
        round_trip(SimDuration::from_micros(42));
    }

    #[test]
    fn rng_round_trip_continues_the_stream() {
        let mut rng = SimRng::new(77);
        for _ in 0..13 {
            rng.next_u64();
        }
        round_trip(rng.snapshot());
        let mut w = Encoder::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = SimRng::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.next_u64(), rng.next_u64());
    }

    #[test]
    fn resource_snapshots_round_trip() {
        let mut res = crate::Resource::new();
        res.acquire(SimTime::ZERO, SimDuration::from_micros(9));
        round_trip(res.snapshot());

        let mut pool = crate::ParallelResource::new(3);
        pool.acquire(SimTime::ZERO, SimDuration::from_micros(5));
        round_trip(pool.snapshot());
    }

    #[test]
    fn empty_server_pool_rejected() {
        let mut w = Encoder::new();
        Vec::<SimTime>::new().encode(&mut w);
        SimDuration::ZERO.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ParallelResourceSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ParallelResourceSnapshot.servers"
            })
        );
    }

    #[test]
    fn unsorted_servers_rejected() {
        let mut w = Encoder::new();
        vec![SimTime::from_nanos(20), SimTime::from_nanos(10)].encode(&mut w);
        SimDuration::ZERO.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ParallelResourceSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ParallelResourceSnapshot.servers order"
            })
        );
    }

    #[test]
    fn token_bucket_round_trips_and_validates() {
        let mut bucket = crate::TokenBucket::new(1000.0, 5e6);
        bucket.reserve(SimTime::ZERO, 300);
        round_trip(bucket.snapshot());

        let mut bad = bucket.snapshot();
        bad.rate_per_sec = f64::NAN;
        let mut w = Encoder::new();
        bad.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            TokenBucketSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "TokenBucketSnapshot.rate_per_sec"
            })
        );
    }

    #[test]
    fn every_dist_variant_round_trips() {
        let us = SimDuration::from_micros;
        for dist in [
            LatencyDist::constant(us(5)),
            LatencyDist::uniform(us(1), us(9)),
            LatencyDist::normal(us(50), us(5)),
            LatencyDist::lognormal(us(100), 0.4),
            LatencyDist::bounded_pareto(us(10), 1.5, us(10_000)),
            LatencyDist::lognormal(us(50), 0.25)
                .with_tail(LatencyDist::bounded_pareto(us(500), 1.2, us(5000)), 0.001),
        ] {
            round_trip(dist);
        }
    }

    #[test]
    fn unknown_dist_tag_is_typed() {
        assert_eq!(
            LatencyDist::decode(&mut Decoder::new(&[99])),
            Err(DecodeError::InvalidValue {
                what: "LatencyDist tag"
            })
        );
    }
}
