//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root states the same lists for the driver; a self-test keeps the two in
//! step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [&str; 5] = [
    "aqua_conv_dp",
    "aqua_ml_mix",
    "swe_halo_2rank",
    "serve_steady",
    "serve_churn",
];

/// Reported by every workload with `--trace 0`. What the op is, and how
/// each value is estimated, differs per workload (README, "End-to-end
/// metrics").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "rate_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by every workload with `--trace 1`; a layer a workload never
/// calls reports 0 there.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("mesh.build_ms", "ms", Lower),
    layer("mesh.partition_ms", "ms", Lower),
    layer("dycore.step_dyn_ms_p50", "ms", Lower),
    layer("dycore.swe_step_ms_p50", "ms", Lower),
    layer("dycore.share", "ratio", Lower),
    layer("dycore.cell_lev_updates_per_s", "1/s", Higher),
    layer("physics.step_ms_p50", "ms", Lower),
    layer("physics.share", "ratio", Lower),
    layer("physics.columns_per_s", "1/s", Higher),
    layer("ml.step_ms_p50", "ms", Lower),
    layer("ml.infer_ms_p50", "ms", Lower),
    layer("ml.gflops", "GFLOP/s", Higher),
    layer("ml.share", "ratio", Lower),
    layer("core.extract_columns_ms_p50", "ms", Lower),
    layer("core.ckpt_capture_ms_p50", "ms", Lower),
    layer("core.ckpt_share", "ratio", Lower),
    layer("core.ckpt_bytes", "B", Lower),
    layer("core.ckpt_captures_per_op", "count", Lower),
    layer("core.health_scan_ms_p50", "ms", Lower),
    layer("core.health_share", "ratio", Lower),
    layer("core.health_scans_per_op", "count", Lower),
    layer("core.ckpt_restore_ms_p50", "ms", Lower),
    layer("core.state_hash_ms_p50", "ms", Lower),
    layer("core.ckpt_clone_ms_p50", "ms", Lower),
    layer("runtime.step_ms_p50", "ms", Lower),
    layer("runtime.sync_step_ms_p50", "ms", Lower),
    layer("runtime.rank_overhead_ms", "ms", Lower),
    layer("runtime.exchange_us_p50", "us", Lower),
    layer("runtime.barrier_us_p50", "us", Lower),
    layer("runtime.rank_skew_us_p50", "us", Lower),
    layer("runtime.halo_msgs_per_step", "count", Lower),
    layer("runtime.halo_bytes_per_step", "B", Lower),
    layer("serve.publish_us_p50", "us", Lower),
    layer("serve.publish_probe_us_p50", "us", Lower),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.engine_hit_batch_us_p50", "us", Lower),
    layer("serve.engine_miss_batch_us_p50", "us", Lower),
    layer("serve.epoch_sync_ms_p50", "ms", Lower),
    layer("serve.server_overhead_us_p50", "us", Lower),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.batch_size_mean_sat", "count", Higher),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.cache_hit_ratio_sat", "ratio", Higher),
    layer("serve.view_restores_per_publish", "count", Lower),
    layer("serve.ml_cells_per_query", "count", Lower),
    layer("serve.lat_p50_ms", "ms", Lower),
    layer("serve.lat_p99_ms", "ms", Lower),
    layer("serve.lat_p99_ms.r8000", "ms", Lower),
    layer("serve.lat_p99_ms.r32000", "ms", Lower),
    layer("serve.rate_ok_qps", "1/s", Higher),
    layer("serve.qps_sat", "1/s", Higher),
    layer("serve.gen_late_us_p99", "us", Lower),
    layer("substrate.dispatch_calls_per_op", "count", Lower),
    layer("trace.other_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
