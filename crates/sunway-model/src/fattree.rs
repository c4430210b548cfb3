//! Analytic model of the next-generation Sunway interconnect (§4.1): 256-node
//! supernodes on common leaf switches, joined by a 16:3 (256:48)
//! oversubscribed multilayer fat tree.
//!
//! The model prices one halo-exchange round for a locality-aware placement
//! of a 2-D (spherical) domain decomposition: most neighbours of a rank are
//! on the same supernode; the patch-boundary fraction crosses the
//! oversubscribed uplinks, with additional contention as traffic climbs
//! levels of the tree. This is the mechanism behind the weak-scaling drop
//! the paper observes at 32,768 CGs.

use crate::arch::SunwaySpec;

/// Placement-derived communication profile of one exchange round.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeProfile {
    /// Ranks (CGs) participating.
    pub procs: usize,
    /// Bytes sent per rank per neighbour per round.
    pub msg_bytes: f64,
    /// Neighbours per rank (≈6 on a hexagonal decomposition).
    pub n_neighbors: f64,
}

/// Breakdown of one exchange round's modeled time.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeTime {
    pub latency_s: f64,
    pub intra_s: f64,
    pub inter_s: f64,
}

impl ExchangeTime {
    pub fn total(&self) -> f64 {
        self.latency_s + self.intra_s + self.inter_s
    }
}

/// Fraction of a compact √N×√N rank patch that sits on the patch boundary —
/// the ranks whose halo partners live on other supernodes.
pub fn boundary_fraction(ranks_in_patch: usize) -> f64 {
    if ranks_in_patch <= 1 {
        return 1.0;
    }
    (3.5 / (ranks_in_patch as f64).sqrt()).min(1.0)
}

/// Second-level contention: once the supernode count exceeds the radix of
/// one top switch, traffic crosses an extra oversubscribed stage.
fn tree_level_factor(supernodes: f64, spec: &SunwaySpec) -> f64 {
    let radix = 48.0; // uplink ports per leaf = ports into the next level
    if supernodes <= 1.0 {
        0.0
    } else if supernodes <= radix {
        1.0
    } else {
        1.0 + (supernodes.ln() / radix.ln() - 1.0).max(0.0) * spec.oversubscription
    }
}

/// Time of one gathered halo-exchange round.
pub fn exchange_time(profile: &ExchangeProfile, spec: &SunwaySpec) -> ExchangeTime {
    let ranks_per_node = spec.cgs_per_node as f64;
    let nodes = (profile.procs as f64 / ranks_per_node).ceil();
    let ranks_per_sn = (spec.supernode_size as f64 * ranks_per_node).min(profile.procs as f64);
    let supernodes = (nodes / spec.supernode_size as f64).ceil();

    let latency_s = profile.n_neighbors * spec.net_latency;

    // Per-rank traffic split into intra- and inter-supernode shares.
    let f_ext = if supernodes <= 1.0 {
        0.0
    } else {
        boundary_fraction(ranks_per_sn as usize)
    };
    let per_rank_bytes = profile.msg_bytes * profile.n_neighbors;
    let intra_s = per_rank_bytes * (1.0 - f_ext) / spec.link_bandwidth;

    // Inter-supernode share contends for 48 uplinks shared by 1536 ranks:
    // effective per-rank uplink bandwidth = link_bw / oversubscription,
    // further derated by higher tree levels.
    let level = tree_level_factor(supernodes, spec);
    let inter_s = if level == 0.0 {
        0.0
    } else {
        per_rank_bytes * f_ext * spec.oversubscription * level / spec.link_bandwidth
    };
    ExchangeTime {
        latency_s,
        intra_s,
        inter_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SunwaySpec {
        SunwaySpec::next_gen()
    }

    fn profile(procs: usize) -> ExchangeProfile {
        ExchangeProfile {
            procs,
            msg_bytes: 100.0 * 30.0 * 8.0,
            n_neighbors: 6.0,
        }
    }

    #[test]
    fn single_supernode_pays_no_oversubscription() {
        let t = exchange_time(&profile(1024), &spec());
        assert_eq!(t.inter_s, 0.0);
        assert!(t.intra_s > 0.0);
        assert!(t.latency_s > 0.0);
    }

    #[test]
    fn exchange_time_grows_with_system_size() {
        let s = spec();
        let t_small = exchange_time(&profile(128), &s).total();
        let t_mid = exchange_time(&profile(32_768), &s).total();
        let t_large = exchange_time(&profile(524_288), &s).total();
        assert!(t_small < t_mid, "{t_small} !< {t_mid}");
        assert!(t_mid < t_large, "{t_mid} !< {t_large}");
    }

    #[test]
    fn drop_appears_when_tree_gains_a_level() {
        // The paper: "a clear drop of scalability at the scale of 32,768
        // CGs, possibly due to bandwidth oversubscription in the fat-tree".
        // 32,768 CGs ≈ 21 supernodes (multi-supernode, level 1); beyond ~48
        // supernodes the extra level kicks in.
        let s = spec();
        let t_131k = exchange_time(&profile(131_072), &s);
        let t_8k = exchange_time(&profile(8_192), &s);
        assert!(
            t_131k.inter_s > 1.5 * t_8k.inter_s,
            "top-level contention missing: {} vs {}",
            t_131k.inter_s,
            t_8k.inter_s
        );
    }

    #[test]
    fn boundary_fraction_shrinks_with_patch_size() {
        assert_eq!(boundary_fraction(1), 1.0);
        assert!(boundary_fraction(100) > boundary_fraction(1600));
        assert!(boundary_fraction(1536) < 0.1);
    }

    #[test]
    fn latency_term_scales_with_neighbor_count() {
        let s = spec();
        let mut p = profile(4096);
        let t6 = exchange_time(&p, &s).latency_s;
        p.n_neighbors = 12.0;
        let t12 = exchange_time(&p, &s).latency_s;
        assert!((t12 / t6 - 2.0).abs() < 1e-12);
    }
}
