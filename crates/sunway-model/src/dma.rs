//! DMA engine model: each CPE issues asynchronous get/put descriptors
//! against the CG's shared DDR; the engine serves them with per-transfer
//! startup latency and a shared-bandwidth budget.
//!
//! The paper's DMA-aware copy (§3.3.2) wraps this engine; the model answers
//! the quantitative questions behind it: how large must a transfer be to
//! amortize the descriptor cost, and how much does 64-way contention stretch
//! a batch of column loads?

use crate::arch::SunwaySpec;

/// One queued DMA request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaRequest {
    /// Issuing CPE (0..64).
    pub cpe: usize,
    /// Transfer size \[bytes\].
    pub bytes: usize,
    /// Issue time \[s\] relative to the batch start.
    pub issue_t: f64,
}

/// Completion record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaCompletion {
    pub cpe: usize,
    pub finish_t: f64,
}

/// Simple fluid model of the CG DMA engine: requests are served in issue
/// order; each pays `dma_latency` startup, then streams at the DDR bandwidth
/// shared equally among all in-flight transfers. Served with an event sweep.
/// With a registry, the batch's transaction and payload-byte totals land in
/// its `dma.transactions` / `dma.bytes` counters before the sweep runs.
pub fn simulate_dma_batch(
    spec: &SunwaySpec,
    requests: &[DmaRequest],
    metrics: Option<&sunway_sim::Metrics>,
) -> Vec<DmaCompletion> {
    if let Some(m) = metrics {
        m.counter_add("dma.transactions", requests.len() as u64);
        m.counter_add(
            "dma.bytes",
            requests.iter().map(|r| r.bytes as u64).sum::<u64>(),
        );
    }
    // Descriptor processing is serialized on the CG's DMA engine: each
    // request becomes active only after the engine has chewed through the
    // descriptors ahead of it (this is what makes many small transfers
    // latency-bound and batching profitable).
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[a]
            .issue_t
            .partial_cmp(&requests[b].issue_t)
            .unwrap()
    });
    let mut engine_free = 0.0f64;
    let mut reqs: Vec<(usize, f64, f64)> = Vec::with_capacity(requests.len());
    for &i in &order {
        let r = requests[i];
        let ready = r.issue_t.max(engine_free) + spec.dma_latency;
        engine_free = ready;
        reqs.push((r.cpe, ready, r.bytes as f64));
    }

    // Fluid sharing: advance time between events, draining remaining bytes
    // of active transfers at bw / n_active.
    let mut remaining: Vec<f64> = reqs.iter().map(|r| r.2).collect();
    let mut finish = vec![f64::NAN; reqs.len()];
    let mut t = reqs.first().map(|r| r.1).unwrap_or(0.0);
    let mut done = 0;
    while done < reqs.len() {
        let active: Vec<usize> = (0..reqs.len())
            .filter(|&i| finish[i].is_nan() && reqs[i].1 <= t)
            .collect();
        if active.is_empty() {
            // Jump to the next arrival.
            t = reqs
                .iter()
                .enumerate()
                .filter(|(i, _)| finish[*i].is_nan())
                .map(|(_, r)| r.1)
                .fold(f64::INFINITY, f64::min);
            continue;
        }
        let share = spec.ddr_bandwidth / active.len() as f64;
        // Time to the next event: a completion or a new arrival.
        let t_complete = active
            .iter()
            .map(|&i| remaining[i] / share)
            .fold(f64::INFINITY, f64::min);
        let t_arrival = reqs
            .iter()
            .enumerate()
            .filter(|(i, r)| finish[*i].is_nan() && r.1 > t)
            .map(|(_, r)| r.1 - t)
            .fold(f64::INFINITY, f64::min);
        let dt = t_complete.min(t_arrival);
        for &i in &active {
            remaining[i] -= share * dt;
            if remaining[i] <= 1e-9 {
                finish[i] = t + dt;
                done += 1;
            }
        }
        t += dt;
    }
    reqs.iter()
        .zip(&finish)
        .map(|(&(cpe, _, _), &finish_t)| DmaCompletion { cpe, finish_t })
        .collect()
}

/// Effective bandwidth of one isolated transfer of `bytes` (amortization
/// curve: small transfers are latency-bound).
pub fn effective_bandwidth(spec: &SunwaySpec, bytes: usize) -> f64 {
    let t = spec.dma_latency + bytes as f64 / spec.ddr_bandwidth;
    bytes as f64 / t
}

/// Bytes needed to reach `frac` of the peak DDR bandwidth for one transfer.
pub fn amortization_threshold(spec: &SunwaySpec, frac: f64) -> usize {
    assert!((0.0..1.0).contains(&frac));
    // frac = B/(lat·bw + B)  ⇒  B = lat·bw·frac/(1−frac)
    (spec.dma_latency * spec.ddr_bandwidth * frac / (1.0 - frac)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SunwaySpec {
        SunwaySpec::next_gen()
    }

    #[test]
    fn single_transfer_time_is_latency_plus_stream() {
        let s = spec();
        let reqs = [DmaRequest {
            cpe: 0,
            bytes: 1_000_000,
            issue_t: 0.0,
        }];
        let done = simulate_dma_batch(&s, &reqs, None);
        let expected = s.dma_latency + 1_000_000.0 / s.ddr_bandwidth;
        assert!((done[0].finish_t - expected).abs() < 1e-12);
    }

    #[test]
    fn concurrent_transfers_share_bandwidth() {
        let s = spec();
        let reqs: Vec<DmaRequest> = (0..4)
            .map(|cpe| DmaRequest {
                cpe,
                bytes: 1_000_000,
                issue_t: 0.0,
            })
            .collect();
        let done = simulate_dma_batch(&s, &reqs, None);
        // All four finish at ~4x the solo streaming time (plus a few
        // serialized descriptor latencies).
        let solo = 1_000_000.0 / s.ddr_bandwidth;
        let t_last = done.iter().map(|d| d.finish_t).fold(0.0, f64::max);
        assert!(
            (t_last - 4.0 * solo).abs() < 6.0 * s.dma_latency,
            "t_last {} vs 4×solo {}",
            t_last,
            4.0 * solo
        );
        // And nobody finishes before one solo streaming time.
        assert!(done.iter().all(|d| d.finish_t >= solo));
    }

    #[test]
    fn staggered_small_transfer_finishes_first() {
        let s = spec();
        let reqs = [
            DmaRequest {
                cpe: 0,
                bytes: 10_000_000,
                issue_t: 0.0,
            },
            DmaRequest {
                cpe: 1,
                bytes: 1_000,
                issue_t: 0.0,
            },
        ];
        let done = simulate_dma_batch(&s, &reqs, None);
        let t_small = done.iter().find(|d| d.cpe == 1).unwrap().finish_t;
        let t_big = done.iter().find(|d| d.cpe == 0).unwrap().finish_t;
        assert!(t_small < t_big);
    }

    #[test]
    fn metered_batch_counts_transactions_and_bytes() {
        let s = spec();
        let reqs: Vec<DmaRequest> = (0..8)
            .map(|cpe| DmaRequest {
                cpe,
                bytes: 1024,
                issue_t: 0.0,
            })
            .collect();
        let m = sunway_sim::Metrics::default();
        let done = simulate_dma_batch(&s, &reqs, Some(&m));
        assert_eq!(done.len(), 8);
        assert_eq!(m.counter("dma.transactions"), 8);
        assert_eq!(m.counter("dma.bytes"), 8 * 1024);
    }

    #[test]
    fn tiny_transfers_are_latency_bound() {
        let s = spec();
        // A 64-byte transfer reaches only a tiny fraction of peak.
        let eff = effective_bandwidth(&s, 64);
        assert!(eff < 0.01 * s.ddr_bandwidth, "eff = {eff}");
        // A multi-MB transfer approaches peak.
        let eff = effective_bandwidth(&s, 8 << 20);
        assert!(eff > 0.9 * s.ddr_bandwidth);
    }

    #[test]
    fn amortization_threshold_matches_effective_bandwidth() {
        let s = spec();
        for frac in [0.5, 0.9, 0.99] {
            let b = amortization_threshold(&s, frac);
            let eff = effective_bandwidth(&s, b);
            assert!(
                (eff / s.ddr_bandwidth - frac).abs() < 0.01,
                "frac {frac}: eff ratio {}",
                eff / s.ddr_bandwidth
            );
        }
        // The 90% point is ~hundreds of KB — why the DMA-aware copy batches whole
        // column blocks rather than single levels.
        let b90 = amortization_threshold(&s, 0.9);
        assert!(
            (100_000..2_000_000).contains(&b90),
            "90% threshold {b90} bytes"
        );
    }

    #[test]
    fn batch_of_64_column_loads_is_bandwidth_not_latency_dominated() {
        let s = spec();
        // 64 CPEs each pull a 30-level × 10-var f32 column block (1.2 KB)…
        let small: Vec<DmaRequest> = (0..64)
            .map(|cpe| DmaRequest {
                cpe,
                bytes: 1200,
                issue_t: 0.0,
            })
            .collect();
        let t_small = simulate_dma_batch(&s, &small, None)
            .iter()
            .map(|d| d.finish_t)
            .fold(0.0, f64::max);
        // …vs each pulling a 192 KB chunk (the DMA-aware copy's batching).
        let big: Vec<DmaRequest> = (0..64)
            .map(|cpe| DmaRequest {
                cpe,
                bytes: 192 * 1024,
                issue_t: 0.0,
            })
            .collect();
        let t_big = simulate_dma_batch(&s, &big, None)
            .iter()
            .map(|d| d.finish_t)
            .fold(0.0, f64::max);
        let bytes_small = 64.0 * 1200.0;
        let bytes_big = 64.0 * 192.0 * 1024.0;
        let eff_small = bytes_small / t_small;
        let eff_big = bytes_big / t_big;
        assert!(
            eff_big > 10.0 * eff_small,
            "batching must pay: {eff_small:.2e} vs {eff_big:.2e} B/s"
        );
    }
}
