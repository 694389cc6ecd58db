//! Property tests for the HDR log-linear histogram (`obs::hdr`): the
//! bucket-layout invariants every percentile read depends on and
//! percentile monotonicity.

use proptest::prelude::*;
use socrates_common::obs::hdr::{
    bucket_floor, bucket_index, num_buckets, HdrHistogram, HdrSnapshot,
};
use socrates_common::rng::Rng;

fn snapshot_of(sub_bits: u32, vals: &[u64]) -> HdrSnapshot {
    let h = HdrHistogram::new(sub_bits);
    for &v in vals {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// value → bucket → floor round-trip: the floor never exceeds the
    /// value and is within the documented relative-error bound of it.
    #[test]
    fn round_trip_floor_bounds_value(v in any::<u64>(), sub_bits in 1u32..=8) {
        let i = bucket_index(sub_bits, v);
        prop_assert!(i < num_buckets(sub_bits), "index {i} out of table");
        let floor = bucket_floor(sub_bits, i);
        prop_assert!(floor <= v, "floor {floor} above value {v}");
        // Relative error bound: v - floor < 2^-sub_bits * 2^(pow+1), i.e.
        // floor >= v - (v >> sub_bits) up to one sub-bucket of rounding.
        let max_err = (v >> sub_bits).max(1);
        prop_assert!(
            v - floor <= max_err,
            "v={v} floor={floor} err={} bound={max_err}",
            v - floor
        );
    }

    /// The floor of every reachable bucket maps back to the same bucket
    /// (the fixed point that makes repeated quantisation stable).
    #[test]
    fn floor_is_fixed_point(v in any::<u64>(), sub_bits in 1u32..=8) {
        let i = bucket_index(sub_bits, v);
        let floor = bucket_floor(sub_bits, i);
        prop_assert_eq!(bucket_index(sub_bits, floor), i);
    }

    /// Bucket index is monotone in the value.
    #[test]
    fn index_monotone(a in any::<u64>(), b in any::<u64>(), sub_bits in 1u32..=8) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(sub_bits, lo) <= bucket_index(sub_bits, hi));
    }

    /// Percentiles are monotone in the quantile and bracketed by min/max.
    #[test]
    fn percentiles_monotone_and_bracketed(
        vals in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        seed in any::<u64>(),
    ) {
        let snap = snapshot_of(5, &vals);
        let mut rng = Rng::new(seed);
        let mut qs: Vec<f64> = (0..16).map(|_| rng.gen_f64()).collect();
        qs.extend([0.0, 1.0]);
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = snap.percentile(qs[0]);
        prop_assert!(last >= snap.min() || qs[0] > 0.0);
        for &q in &qs[1..] {
            let p = snap.percentile(q);
            prop_assert!(p >= last, "p({q}) = {p} < previous {last}");
            prop_assert!(p <= snap.max());
            last = p;
        }
    }
}
