//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use unwritten_contract::cluster::ChunkMap;
use unwritten_contract::flash::{FlashGeometry, FlashTiming};
use unwritten_contract::ftl::{Ftl, FtlConfig, GcPolicy};
use unwritten_contract::metrics::LatencyHistogram;
use unwritten_contract::prelude::*;
use unwritten_contract::sim::TokenBucket;

/// Drives one op sequence against a fresh FTL and checks the mapping
/// invariants after every operation. Shared by the fast default proptest
/// and the `#[ignore]`-gated heavy configuration.
fn ftl_coherence_case(geometry: FlashGeometry, ops: &[(u8, u64)], policy: GcPolicy) {
    let mut ftl = Ftl::new(
        FtlConfig::new(geometry, FlashTiming::slc())
            .with_over_provisioning(0.12)
            .with_gc_policy(policy),
    );
    let pages = ftl.logical_pages();
    let mut now = SimTime::ZERO;
    let mut mapped = std::collections::HashSet::new();
    for &(op, lpn) in ops {
        let lpn = lpn % pages;
        match op {
            0 => {
                now = ftl.write_page(now, lpn);
                mapped.insert(lpn);
            }
            1 => {
                now = ftl.read_page(now, lpn);
            }
            _ => {
                ftl.trim(lpn);
                mapped.remove(&lpn);
            }
        }
        // Core invariants after every operation.
        assert_eq!(ftl.mapped_pages(), mapped.len() as u64);
        assert_eq!(ftl.total_valid_pages(), mapped.len() as u64);
    }
    for &lpn in &mapped {
        assert!(ftl.is_mapped(lpn));
    }
    assert!(ftl.free_blocks() > 0);
    assert!(ftl.stats().write_amplification() >= 1.0 || mapped.is_empty());
}

/// The original heavy FTL coherence sweep: 64 cases × up to 600 ops on
/// the full 2×2-die geometry, for all three GC policies. ~6 s, so it is
/// `#[ignore]`-gated; run it with `cargo test -- --ignored` before
/// touching the FTL or GC code.
#[test]
#[ignore = "heavy FTL sweep (~6 s); run with --ignored when changing uc-ftl"]
fn ftl_mapping_stays_coherent_heavy() {
    let mut rng = unwritten_contract::sim::SimRng::new(0xF71);
    for case in 0..64u64 {
        let len = rng.range_u64(1, 600) as usize;
        let ops: Vec<(u8, u64)> = (0..len)
            .map(|_| (rng.range_u64(0, 3) as u8, rng.range_u64(0, 2048)))
            .collect();
        let policy = match case % 3 {
            0 => GcPolicy::Greedy,
            1 => GcPolicy::CostBenefit,
            _ => GcPolicy::Fifo,
        };
        ftl_coherence_case(
            FlashGeometry::new(2, 2, 1, 32, 32, 4096).unwrap(),
            &ops,
            policy,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- histogram ----------------------------------------------------

    #[test]
    fn histogram_percentiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0u64..10_000_000_000, 1..400)
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        let mut last = SimDuration::ZERO;
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let q = h.percentile(p);
            prop_assert!(q >= last);
            prop_assert!(q >= h.min());
            prop_assert!(q <= h.max());
            last = q;
        }
        // Quantization never distorts more than ~1/64 relative error on
        // the max.
        let true_max = *values.iter().max().unwrap();
        prop_assert_eq!(h.max().as_nanos(), true_max);
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    #[test]
    fn histogram_merge_equals_bulk_recording(
        a in proptest::collection::vec(1u64..1_000_000_000, 0..100),
        b in proptest::collection::vec(1u64..1_000_000_000, 0..100),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hall = LatencyHistogram::new();
        for &v in &a {
            ha.record(SimDuration::from_nanos(v));
            hall.record(SimDuration::from_nanos(v));
        }
        for &v in &b {
            hb.record(SimDuration::from_nanos(v));
            hall.record(SimDuration::from_nanos(v));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.mean(), hall.mean());
        prop_assert_eq!(ha.percentile(99.0), hall.percentile(99.0));
    }

    // ---- token bucket ---------------------------------------------------

    #[test]
    fn token_bucket_never_exceeds_rate_plus_burst(
        requests in proptest::collection::vec(1u64..200_000, 1..200),
        rate in 1_000.0f64..1e9,
        burst in 1.0f64..1e6,
    ) {
        let mut tb = TokenBucket::new(burst, rate);
        let mut grant = SimTime::ZERO;
        let mut total = 0u64;
        for &r in &requests {
            grant = tb.reserve(grant, r);
            total += r;
        }
        // Everything granted by `grant` must fit in burst + rate*elapsed,
        // up to one nanosecond of grant-time rounding per reserve call.
        let elapsed = grant.as_secs_f64();
        let rounding_slack = requests.len() as f64 * rate * 1e-9 + 1.0;
        prop_assert!(
            total as f64 <= burst + rate * elapsed + rounding_slack,
            "granted {} tokens in {}s at rate {} burst {}",
            total, elapsed, rate, burst
        );
    }

    #[test]
    fn token_bucket_grants_are_monotone(
        requests in proptest::collection::vec(1u64..100_000, 1..100),
    ) {
        let mut tb = TokenBucket::new(1e4, 1e6);
        let mut last = SimTime::ZERO;
        for &r in &requests {
            let g = tb.reserve(last, r);
            prop_assert!(g >= last);
            last = g;
        }
    }

    // ---- chunk map -------------------------------------------------------

    #[test]
    fn chunk_map_fragments_partition_any_range(
        chunk_kib in 1u64..4096,
        offset in 0u64..(1 << 40),
        len in 1u32..(64 << 20),
    ) {
        let map = ChunkMap::new(chunk_kib * 1024, 8, 3, 42);
        let iter = map.fragments(offset, len);
        let claimed = iter.len();
        let frags: Vec<(u64, u32)> = iter.collect();
        // The iterator's exact size is the number of fragments it yields.
        prop_assert_eq!(claimed, frags.len());
        let total: u64 = frags.iter().map(|&(_, l)| l as u64).sum();
        prop_assert_eq!(total, len as u64);
        // Fragments are contiguous and chunk-monotone.
        let mut cursor = offset;
        for &(chunk, l) in &frags {
            prop_assert_eq!(map.chunk_of(cursor), chunk);
            // No fragment crosses a chunk boundary.
            prop_assert_eq!(map.chunk_of(cursor + l as u64 - 1), chunk);
            cursor += l as u64;
        }
    }

    #[test]
    fn chunk_map_replicas_always_distinct(
        nodes in 3usize..50,
        replication in 1usize..3,
        chunk in 0u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let map = ChunkMap::new(1 << 20, nodes, replication.min(nodes), seed);
        let replicas = map.replicas(chunk);
        prop_assert_eq!(replicas.len(), replication.min(nodes));
        let mut sorted = replicas.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), replicas.len());
        prop_assert!(replicas.iter().all(|&n| n < nodes));
    }

    // ---- FTL --------------------------------------------------------------

    // The fast default: a geometry a quarter the heavy one's size and
    // shorter op sequences still walk every GC policy through allocation,
    // overwrite, trim and collection. The original 64-case × 600-op
    // configuration (~6 s of the test wall clock) lives on in the
    // `#[ignore]`-gated `ftl_mapping_stays_coherent_heavy` below.
    #[test]
    fn ftl_mapping_stays_coherent_under_arbitrary_ops(
        ops in proptest::collection::vec((0u8..3, 0u64..1024), 1..150),
        policy in prop_oneof![
            Just(GcPolicy::Greedy),
            Just(GcPolicy::CostBenefit),
            Just(GcPolicy::Fifo)
        ],
    ) {
        ftl_coherence_case(FlashGeometry::new(2, 1, 1, 16, 32, 4096).unwrap(), &ops, policy);
    }

    // ---- drivers ----------------------------------------------------------

    #[test]
    fn driver_conserves_io_accounting(
        qd in 1usize..16,
        ios in 1u64..300,
        io_size_kib in 1u32..64,
    ) {
        let mut dev = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
        let spec = JobSpec::new(AccessPattern::RandWrite, io_size_kib * 4096, qd)
            .with_io_limit(ios);
        let report = run_job(&mut dev, &spec).unwrap();
        prop_assert_eq!(report.ios, ios);
        prop_assert_eq!(report.bytes, ios * (io_size_kib as u64 * 4096));
        prop_assert_eq!(report.latency.count(), ios);
        prop_assert_eq!(
            report.read_latency.count() + report.write_latency.count(),
            ios
        );
        prop_assert_eq!(report.throughput.total_bytes(), report.bytes);
    }
}
