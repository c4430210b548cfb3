//! The CI kernel-equivalence matrix: one test binary run in both
//! {sync-dma, double-buffered} cells (selected through the `GRIST_DMA` env
//! var), asserting that the pipelined path is **bitwise identical** to the
//! synchronous oracle.
//!
//! Two layers of coverage:
//!
//! * env-driven — fresh substrates pick up the ambient matrix cell, so
//!   `ambient_mode_matches_the_sync_oracle` proves whatever cell CI
//!   selected against an explicitly-pinned oracle;
//! * explicit — both modes are swept in-process regardless of env, so a
//!   local `cargo test` covers both cells too.
//!
//! Plus the DMA staging edge cases from the issue: empty input, one chunk,
//! odd chunk counts, non-divisible tails, byte-counter parity between the
//! synchronous and double-buffered pipelines, and a mid-pipeline fault that
//! must drain the in-flight chunk and degrade to the serial path cleanly.

use grist_core::MlSuite;
use grist_physics::Column;
use sunway_sim::{
    stage_chunks, CopyStats, DmaMode, FaultPlan, FaultSite, LdmArena, Substrate, SunwaySpec,
};

const NLEV: usize = 19;
const NCOLS: usize = 40;

fn columns(n: usize) -> Vec<Column> {
    (0..n)
        .map(|i| {
            let mut c = Column::reference(NLEV);
            c.t[NLEV / 2] += (i % 13) as f64 * 0.4;
            c.qv[NLEV - 1] *= 1.0 + 0.02 * (i % 7) as f64;
            c
        })
        .collect()
}

/// Flatten an ML inference result to bit patterns (no PartialEq on the
/// physics structs; bitwise is the contract anyway).
fn ml_bits(suite: &MlSuite, cols: &[Column]) -> Vec<u64> {
    let mut bits = Vec::new();
    for out in suite.step_columns(cols) {
        for v in out
            .tend
            .dt_dt
            .iter()
            .chain(&out.tend.dqv_dt)
            .chain(&out.tend.dqc_dt)
            .chain(&out.tend.dqr_dt)
        {
            bits.push(v.to_bits());
        }
        for v in [
            out.diag.gsw,
            out.diag.glw,
            out.diag.precip,
            out.diag.shflx,
            out.diag.lhflx,
        ] {
            bits.push(v.to_bits());
        }
    }
    bits
}

fn oracle_sub() -> Substrate {
    let sub = Substrate::serial();
    sub.set_dma_mode(DmaMode::Synchronous);
    sub
}

/// Whatever cell `GRIST_DMA` selected for this process must agree
/// bit-for-bit with the pinned sync oracle — this is the assertion each CI
/// matrix job runs.
#[test]
fn ambient_mode_matches_the_sync_oracle() {
    let cols = columns(NCOLS);

    let mut ambient = MlSuite::untrained(NLEV, 16, 9);
    ambient.sub = Substrate::cpe_teams(4); // fresh substrate: env-selected mode
    let mut oracle = MlSuite::untrained(NLEV, 16, 9);
    oracle.sub = oracle_sub();
    assert_eq!(
        ml_bits(&ambient, &cols),
        ml_bits(&oracle, &cols),
        "ML inference in mode {:?} diverges from the sync oracle",
        ambient.sub.dma_mode(),
    );
}

/// Both DMA modes, swept explicitly so local runs don't depend on env.
#[test]
fn explicit_dma_modes_are_bitwise_closed() {
    let cols = columns(NCOLS);
    let mut oracle = MlSuite::untrained(NLEV, 16, 9);
    oracle.sub = oracle_sub();
    let want = ml_bits(&oracle, &cols);

    for dma in [DmaMode::Synchronous, DmaMode::DoubleBuffered] {
        let mut suite = MlSuite::untrained(NLEV, 16, 9);
        suite.sub = Substrate::cpe_teams(4);
        suite.sub.set_dma_mode(dma);
        assert_eq!(
            ml_bits(&suite, &cols),
            want,
            "ML cell {dma:?} diverges from the oracle"
        );
    }
}

/// Reference computation for the staging tests: a chunk- and
/// index-dependent update, applied without any DMA machinery.
fn staged_reference(data: &mut [f32], chunk: usize) {
    for (k, block) in data.chunks_mut(chunk).enumerate() {
        for (i, v) in block.iter_mut().enumerate() {
            *v = *v * 1.25 + (k * 100 + i) as f32;
        }
    }
}

fn run_staged(mode: DmaMode, len: usize, chunk: usize) -> (Vec<f32>, CopyStats) {
    let mut arena = LdmArena::new(&SunwaySpec::next_gen());
    let stats = CopyStats::default();
    let mut data: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
    stage_chunks(
        mode,
        &mut arena,
        chunk,
        &mut data,
        &stats,
        None,
        |k, buf| {
            for (i, v) in buf.iter_mut().enumerate() {
                *v = *v * 1.25 + (k * 100 + i) as f32;
            }
        },
    )
    .expect("chunks fit the LDM arena");
    (data, stats)
}

/// Empty input, a single chunk, odd chunk counts, and non-divisible tails
/// all produce identical data AND identical DMA byte/transaction counters
/// in both pipeline modes.
#[test]
fn staging_edge_cases_match_with_byte_counter_parity() {
    for (len, chunk) in [
        (0, 8),   // empty: no transfers at all
        (8, 8),   // exactly one chunk
        (24, 8),  // odd chunk count (3)
        (30, 8),  // non-divisible tail (3 full + 6-element tail)
        (7, 8),   // single short chunk
        (65, 16), // longer pipeline with a 1-element tail
    ] {
        let mut want: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
        staged_reference(&mut want, chunk);

        let (sync_data, sync_stats) = run_staged(DmaMode::Synchronous, len, chunk);
        let (db_data, db_stats) = run_staged(DmaMode::DoubleBuffered, len, chunk);

        let key = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(key(&sync_data), key(&want), "sync len={len} chunk={chunk}");
        assert_eq!(key(&db_data), key(&want), "double len={len} chunk={chunk}");
        assert_eq!(
            sync_stats.counts(),
            db_stats.counts(),
            "DMA transaction/byte counters diverge at len={len} chunk={chunk}"
        );
        let n_chunks = len.div_ceil(chunk);
        let (transfers, bytes) = sync_stats.counts();
        assert_eq!(
            transfers,
            2 * n_chunks as u64,
            "one get + one put per chunk"
        );
        assert_eq!(bytes, 2 * len as u64 * 4, "every element moves twice");
    }
}

/// A persistent DMA fault in the middle of the pipeline: the in-flight
/// prefetched chunk is drained (computed and written back), the remainder
/// degrades to main-memory compute, and the result stays bitwise correct in
/// both modes with identical fault accounting.
#[test]
fn mid_pipeline_fault_drains_and_degrades_cleanly() {
    let (len, chunk) = (48, 8); // 6 chunks; chunk 3's get is pinned to fail

    let mut want: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
    staged_reference(&mut want, chunk);

    for mode in [DmaMode::Synchronous, DmaMode::DoubleBuffered] {
        // Fresh plan per mode: the per-site key counter advances with every
        // consultation, so a shared plan would pin a different chunk in the
        // second mode.
        let plan = FaultPlan::new(11)
            .pin(FaultSite::Dma, 3)
            .with_max_retries(2);
        let mut arena = LdmArena::new(&SunwaySpec::next_gen());
        let stats = CopyStats::default();
        let mut data: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
        let report = stage_chunks(
            mode,
            &mut arena,
            chunk,
            &mut data,
            &stats,
            Some(&plan),
            |k, buf| {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = *v * 1.25 + (k * 100 + i) as f32;
                }
            },
        )
        .expect("chunks fit the LDM arena");

        let key = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(key(&data), key(&want), "{mode:?}: degraded result differs");
        assert_eq!(report.degraded_at, Some(3), "{mode:?}");
        assert_eq!(report.staged, 3, "{mode:?}: chunks 0..3 went through LDM");
        assert_eq!(report.chunks, 6, "{mode:?}");
        // Chunks 0..3 staged normally: a get and a put each. The failed get
        // and everything after it bypass the DMA engine entirely.
        let (transfers, bytes) = stats.counts();
        assert_eq!(transfers, 2 * 3, "{mode:?}");
        assert_eq!(bytes, 2 * 3 * chunk as u64 * 4, "{mode:?}");
    }
}

/// Double-buffered ML staging meters its DMA traffic through the substrate
/// metrics registry, and still matches the oracle bit-for-bit even while a
/// transient fault plan is armed (retries succeed; nothing degrades).
#[test]
fn ml_staging_under_transient_faults_stays_bitwise_and_metered() {
    let cols = columns(NCOLS);
    let mut oracle = MlSuite::untrained(NLEV, 16, 9);
    oracle.sub = oracle_sub();
    let want = ml_bits(&oracle, &cols);

    let mut suite = MlSuite::untrained(NLEV, 16, 9);
    suite.sub = Substrate::cpe_teams(4);
    suite.sub.set_dma_mode(DmaMode::DoubleBuffered);
    suite.sub.arm_faults(
        FaultPlan::new(5)
            .with_rate(FaultSite::Dma, 0.3)
            .with_max_retries(10),
    );

    assert_eq!(
        ml_bits(&suite, &cols),
        want,
        "transient faults changed bits"
    );

    let snap = suite.sub.metrics().snapshot();
    let dma = snap.counters.get("dma.transactions").copied().unwrap_or(0);
    assert!(
        dma > 0,
        "double-buffered staging must meter DMA transactions"
    );
    assert_eq!(
        snap.counters
            .get("fault.degradations")
            .copied()
            .unwrap_or(0),
        0,
        "transient faults with generous retries must not degrade"
    );
    assert!(
        snap.counters.get("fault.injected").copied().unwrap_or(0) > 0,
        "a 30% fault rate over many gets should inject at least once"
    );
}
