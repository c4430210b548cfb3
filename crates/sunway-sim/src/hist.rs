//! Log-bucketed histograms (HDR-style) for the [`Metrics`](crate::Metrics)
//! registry.
//!
//! Counters answer "how much in total"; the tracer answers "when". Neither
//! answers the question that localizes a serving or scaling pathology: *what
//! does the distribution look like* — the p99 an SLO gates on, the long tail
//! a mean hides. A [`Histogram`] records `u64` values (nanoseconds, batch
//! sizes, …) into a fixed array of buckets. It is a plain `&mut self` value:
//! the registry keeps one per name in each thread's lane, under the lane's
//! lock, and merges lanes by name when it snapshots.
//!
//! # Bucket layout (`log16-v1`, pinned)
//!
//! Values `0..16` get exact unit buckets; every larger value lands in one of
//! 16 sub-buckets per power of two (4 bits of mantissa kept), giving a
//! relative quantization error below 1/16 = 6.25% across the whole `u64`
//! range with [`HIST_BUCKETS`] = 976 buckets total:
//!
//! ```text
//! index(v) = v                                          v < 16
//!          = (top - 3)·16 + ((v >> (top - 4)) & 15)     otherwise,
//!            where top = 63 - clz(v)  (bit index of the leading one)
//! ```
//!
//! Bucket indices serialize into JSON, and every percentile a report prints
//! is recomputable *bitwise* from those counts alone (see
//! [`Histogram::percentile`], which is a pure function of the counts).
//!
//! # Percentile convention
//!
//! [`Histogram::percentile`] uses the sort-and-index rank convention:
//! `rank = round(p · (n − 1))` (0-based), returning the **lower bound** of
//! the bucket containing the rank-th smallest recorded value. On a sample
//! quantized to bucket lower bounds the two methods agree exactly; on raw
//! samples they differ by at most one bucket width (< 6.25% relative).

use crate::json::Json;

/// Mantissa bits kept per value (sub-buckets per octave = 2^4 = 16).
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count for the full `u64` domain under the `log16-v1` layout.
pub const HIST_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;
/// The layout tag serialized with every histogram.
pub const HIST_LAYOUT: &str = "log16-v1";

/// Bucket index of a value under the pinned `log16-v1` layout.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let sub = ((v >> (top - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (top - SUB_BITS + 1) as usize * SUB + sub
    }
}

/// Inclusive lower bound of bucket `i` (the percentile representative).
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    debug_assert!(i < HIST_BUCKETS);
    if i < SUB {
        i as u64
    } else {
        let group = (i / SUB) as u32; // >= 1
        let sub = (i % SUB) as u64;
        let top = group + SUB_BITS - 1;
        (SUB as u64 + sub) << (top - SUB_BITS)
    }
}

/// Inclusive upper bound of bucket `i`.
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    if i + 1 < HIST_BUCKETS {
        bucket_lo(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// Bucket counts plus exact count/sum/max/min of the recorded values.
/// Mergeable ([`Self::merge`]) and JSON round-trippable
/// ([`Self::to_json`]/[`Self::from_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// One count per `log16-v1` bucket (length [`HIST_BUCKETS`]).
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    /// Largest value recorded, tracked exactly (0 when empty).
    pub max: u64,
    /// Smallest value recorded, tracked exactly (`u64::MAX` when empty).
    pub min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (0 when empty). Exact: the sum is
    /// accumulated from raw values, not bucket representatives.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The p-th percentile (p in `[0, 1]`) as the lower bound of the bucket
    /// holding the rank-th smallest value, `rank = round(p·(n−1))`.
    ///
    /// A **pure function of the bucket counts**: re-reading the counts from
    /// a serialized histogram reproduces every reported percentile bitwise.
    /// Quantization error is below 6.25% of the true sample percentile.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return bucket_lo(i);
            }
        }
        // Unreachable when count equals the bucket total (a histogram read
        // back from a document whose `count` disagrees with its buckets).
        bucket_lo(
            self.counts
                .iter()
                .rposition(|&c| c > 0)
                .unwrap_or(HIST_BUCKETS - 1),
        )
    }

    /// [`Self::percentile`] converted from nanoseconds to milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1e6
    }

    /// Add `other`'s population to this one: afterwards `self` is the
    /// histogram of the union of the two recorded populations, exactly,
    /// bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Serialize with sparse bucket encoding: only non-zero buckets appear,
    /// keyed by decimal index. `min` is omitted when empty (it is the
    /// sentinel `u64::MAX`, which a JSON number cannot hold exactly).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<(String, Json)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i.to_string(), Json::Num(c as f64)))
            .collect();
        let mut fields = vec![
            ("layout".into(), Json::Str(HIST_LAYOUT.into())),
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            ("max".into(), Json::Num(self.max as f64)),
        ];
        if self.count > 0 {
            fields.push(("min".into(), Json::Num(self.min as f64)));
        }
        fields.push(("buckets".into(), Json::Obj(buckets)));
        Json::Obj(fields)
    }

    /// Rebuild from [`Self::to_json`] output. Rejects unknown layouts,
    /// out-of-range and duplicate bucket indices.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let layout = v
            .get("layout")
            .and_then(Json::as_str)
            .ok_or("histogram: missing layout")?;
        if layout != HIST_LAYOUT {
            return Err(format!(
                "histogram: layout {layout:?} is not {HIST_LAYOUT:?}"
            ));
        }
        let num = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram: bad or missing field {k:?}"))
        };
        let mut h = Histogram {
            count: num("count")?,
            sum: num("sum")?,
            max: num("max")?,
            ..Histogram::default()
        };
        if h.count > 0 {
            h.min = num("min")?;
        }
        let buckets = v
            .get("buckets")
            .and_then(Json::as_obj)
            .ok_or("histogram: missing buckets object")?;
        for (key, val) in buckets {
            let i: usize = key
                .parse()
                .map_err(|_| format!("histogram: bad bucket index {key:?}"))?;
            if i >= HIST_BUCKETS {
                return Err(format!("histogram: bucket index {i} out of range"));
            }
            let c = val
                .as_u64()
                .ok_or_else(|| format!("histogram: bucket {i}: not a count"))?;
            if h.counts[i] != 0 {
                return Err(format!("histogram: bucket {i}: duplicate key"));
            }
            h.counts[i] = c;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn bucket_layout_is_pinned() {
        // The log16-v1 contract: these mappings may never change without a
        // new layout tag (serialized histograms would silently re-bucket).
        assert_eq!(HIST_BUCKETS, 976);
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize, "unit bucket {v}");
        }
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32, "sub-bucket width 2 at 32..64");
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(1_000), bucket_index(1_023));
        assert_ne!(bucket_index(1_023), bucket_index(1_024));
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_domain() {
        // Lower bounds are strictly increasing, every value lands in the
        // bucket whose [lo, hi] range contains it, and ranges tile.
        for i in 1..HIST_BUCKETS {
            assert!(bucket_lo(i) > bucket_lo(i - 1), "bucket {i} not monotone");
            assert_eq!(bucket_hi(i - 1), bucket_lo(i) - 1, "gap before bucket {i}");
        }
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(HIST_BUCKETS - 1), u64::MAX);
        for v in [0, 1, 15, 16, 17, 100, 999, 65_535, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(
                bucket_lo(i) <= v && v <= bucket_hi(i),
                "value {v} bucket {i}"
            );
        }
    }

    #[test]
    fn quantization_error_stays_below_one_sixteenth() {
        let mut v = 17u64;
        while v < u64::MAX / 3 {
            let lo = bucket_lo(bucket_index(v));
            assert!(lo <= v);
            let err = (v - lo) as f64 / v as f64;
            assert!(err < 1.0 / 16.0, "value {v}: error {err}");
            v = v * 3 + 1;
        }
    }

    #[test]
    fn percentiles_and_stats_from_a_known_population() {
        let s = of(1..=100u64);
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.mean(), 50.5);
        // rank(0.5) = round(0.5·99) = 50 (0-based) → value 51, bucket lo 48.
        assert_eq!(s.percentile(0.50), bucket_lo(bucket_index(51)));
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(1.0), bucket_lo(bucket_index(100)));
        // Small exact-bucket population: percentiles are exact.
        assert_eq!(of([2u64, 4, 6, 8, 10]).percentile(0.5), 6);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let s = Histogram::default();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max, 0);
        let back = Histogram::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let values = (0..500u64).map(|i| i * i % 7919);
        let mut merged = of(values.clone().step_by(2));
        merged.merge(&of(values.clone().skip(1).step_by(2)));
        assert_eq!(merged, of(values), "merge must equal combined recording");
    }

    #[test]
    fn json_round_trip_is_exact_and_percentiles_reproduce_bitwise() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let s = of((0..10_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 50_000_000 // ns-scale values up to 50 ms
        }));
        let back = Histogram::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        for p in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(back.percentile(p), s.percentile(p));
            assert_eq!(
                back.percentile_ms(p).to_bits(),
                s.percentile_ms(p).to_bits(),
                "p{p} must reproduce bitwise from serialized bucket counts"
            );
        }
    }

    #[test]
    fn from_json_rejects_foreign_layouts_and_bad_buckets() {
        let mut doc = Histogram::default().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Str("log8-v0".into());
        }
        assert!(Histogram::from_json(&doc).unwrap_err().contains("layout"));
        let with_buckets = |buckets: Vec<(String, Json)>| {
            Json::Obj(vec![
                ("layout".into(), Json::Str(HIST_LAYOUT.into())),
                ("count".into(), Json::Num(1.0)),
                ("sum".into(), Json::Num(1.0)),
                ("max".into(), Json::Num(1.0)),
                ("min".into(), Json::Num(1.0)),
                ("buckets".into(), Json::Obj(buckets)),
            ])
        };
        let out_of_range = with_buckets(vec![("99999".into(), Json::Num(1.0))]);
        assert!(Histogram::from_json(&out_of_range)
            .unwrap_err()
            .contains("out of range"));
        let duplicate = with_buckets(vec![
            ("1".into(), Json::Num(1.0)),
            ("1".into(), Json::Num(2.0)),
        ]);
        assert!(Histogram::from_json(&duplicate)
            .unwrap_err()
            .contains("duplicate"));
    }
}
