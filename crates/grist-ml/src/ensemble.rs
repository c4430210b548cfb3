//! Ensembles of tendency networks — the stabilization technique of Han et
//! al. 2023 ("An ensemble of neural networks for moist physics processes,
//! its generalizability and stable integration"), which the paper cites as
//! part of its ML-physics lineage. Averaging independently-initialized
//! members suppresses the individual networks' out-of-distribution
//! excursions that destabilize long coupled runs.

use crate::models::TendencyCnn;
use crate::optim::Adam;

/// An ensemble of independently-seeded [`TendencyCnn`] members whose
/// prediction is the member mean.
#[derive(Debug, Clone)]
pub struct CnnEnsemble {
    pub members: Vec<TendencyCnn>,
}

impl CnnEnsemble {
    /// Build `n` members with distinct seeds (identical architecture).
    pub fn new(n: usize, nlev: usize, channels: usize, seed: u64) -> Self {
        assert!(n >= 1);
        CnnEnsemble {
            members: (0..n)
                .map(|i| TendencyCnn::new(nlev, channels, seed.wrapping_add(i as u64 * 7919)))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Mean prediction over the members, on a *normalized* input.
    pub fn infer(&self, x: &[f32], y: &mut [f32]) {
        y.fill(0.0);
        let mut tmp = vec![0.0f32; y.len()];
        for m in &self.members {
            m.infer(x, &mut tmp);
            for (a, b) in y.iter_mut().zip(&tmp) {
                *a += b;
            }
        }
        let inv = 1.0 / self.members.len() as f32;
        for a in y.iter_mut() {
            *a *= inv;
        }
    }

    /// Per-point ensemble spread (std over members) — the uncertainty
    /// signal used to detect out-of-distribution inputs.
    pub fn spread(&self, x: &[f32], out: &mut [f32]) {
        let n = self.members.len() as f32;
        let mut mean = vec![0.0f32; out.len()];
        self.infer(x, &mut mean);
        out.fill(0.0);
        let mut tmp = vec![0.0f32; out.len()];
        for m in &self.members {
            m.infer(x, &mut tmp);
            for (o, (&t, &mu)) in out.iter_mut().zip(tmp.iter().zip(&mean)) {
                *o += (t - mu) * (t - mu);
            }
        }
        for o in out.iter_mut() {
            *o = (*o / n).sqrt();
        }
    }

    /// Train every member on the same (normalized) samples; each member gets
    /// its own optimizer state.
    pub fn train_epoch(
        &mut self,
        samples: &[(Vec<f32>, Vec<f32>)],
        opts: &mut [Adam],
        batch: usize,
    ) -> f32 {
        assert_eq!(opts.len(), self.members.len());
        let mut total = 0.0f32;
        for (m, opt) in self.members.iter_mut().zip(opts.iter_mut()) {
            for chunk in samples.chunks(batch) {
                for (x, y) in chunk {
                    total += m.train_sample(x, y);
                }
                m.optimizer_step(opt);
            }
        }
        total / (samples.len().max(1) * self.members.len()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamConfig;
    use crate::tensor::mse_loss;

    fn toy_samples(nlev: usize, n: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
        (0..n)
            .map(|s| {
                let x: Vec<f32> = (0..5 * nlev)
                    .map(|i| ((i + s) as f32 * 0.37).sin())
                    .collect();
                let mut y = vec![0.0f32; 2 * nlev];
                for k in 0..nlev {
                    y[k] = -0.5 * x[2 * nlev + k];
                    y[nlev + k] = 0.3 * x[3 * nlev + k];
                }
                (x, y)
            })
            .collect()
    }

    #[test]
    fn ensemble_mean_equals_single_member_when_n_is_one() {
        let ens = CnnEnsemble::new(1, 6, 8, 5);
        let x = vec![0.2f32; 5 * 6];
        let mut ye = vec![0.0f32; 12];
        let mut ym = vec![0.0f32; 12];
        ens.infer(&x, &mut ye);
        ens.members[0].infer(&x, &mut ym);
        assert_eq!(ye, ym);
    }

    #[test]
    fn members_differ_and_mean_interpolates() {
        let ens = CnnEnsemble::new(3, 6, 8, 5);
        let x = vec![0.2f32; 5 * 6];
        let mut outs = Vec::new();
        for m in &ens.members {
            let mut y = vec![0.0f32; 12];
            m.infer(&x, &mut y);
            outs.push(y);
        }
        assert_ne!(outs[0], outs[1], "distinct seeds must differ");
        let mut mean = vec![0.0f32; 12];
        ens.infer(&x, &mut mean);
        for i in 0..12 {
            let lo = outs.iter().map(|o| o[i]).fold(f32::MAX, f32::min);
            let hi = outs.iter().map(|o| o[i]).fold(f32::MIN, f32::max);
            assert!(mean[i] >= lo - 1e-6 && mean[i] <= hi + 1e-6);
        }
    }

    #[test]
    fn spread_is_zero_for_duplicate_members_positive_otherwise() {
        let mut ens = CnnEnsemble::new(2, 4, 8, 9);
        let x = vec![0.5f32; 20];
        let mut spread = vec![0.0f32; 8];
        ens.spread(&x, &mut spread);
        assert!(
            spread.iter().any(|&s| s > 0.0),
            "independent members must disagree"
        );
        ens.members[1] = ens.members[0].clone();
        ens.spread(&x, &mut spread);
        assert!(
            spread.iter().all(|&s| s < 1e-7),
            "identical members must agree"
        );
    }

    #[test]
    fn ensemble_trains_and_beats_its_untrained_self() {
        let nlev = 6;
        let samples = toy_samples(nlev, 24);
        let mut ens = CnnEnsemble::new(2, nlev, 8, 17);
        let mut opts: Vec<Adam> = (0..2)
            .map(|_| {
                Adam::new(AdamConfig {
                    lr: 3e-3,
                    ..Default::default()
                })
            })
            .collect();
        let eval = |ens: &CnnEnsemble| -> f32 {
            let mut y = vec![0.0f32; 2 * nlev];
            samples
                .iter()
                .map(|(x, t)| {
                    ens.infer(x, &mut y);
                    mse_loss(&y, t).0
                })
                .sum()
        };
        let l0 = eval(&ens);
        for _ in 0..40 {
            ens.train_epoch(&samples, &mut opts, 8);
        }
        let l1 = eval(&ens);
        assert!(l1 < 0.3 * l0, "ensemble failed to train: {l0} -> {l1}");
    }

    #[test]
    fn ensemble_mean_is_smoother_than_members_off_distribution() {
        // Train on a narrow input range, probe far outside it: the ensemble
        // mean's excursion is bounded by the largest member excursion.
        let nlev = 4;
        let samples = toy_samples(nlev, 16);
        let mut ens = CnnEnsemble::new(4, nlev, 8, 23);
        let mut opts: Vec<Adam> = (0..4)
            .map(|_| {
                Adam::new(AdamConfig {
                    lr: 3e-3,
                    ..Default::default()
                })
            })
            .collect();
        for _ in 0..20 {
            ens.train_epoch(&samples, &mut opts, 8);
        }
        let x_ood = vec![25.0f32; 5 * nlev]; // far outside training inputs
        let mut mean = vec![0.0f32; 2 * nlev];
        ens.infer(&x_ood, &mut mean);
        let mean_mag = mean.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
        let worst_member = ens
            .members
            .iter()
            .map(|m| {
                let mut y = vec![0.0f32; 2 * nlev];
                m.infer(&x_ood, &mut y);
                y.iter().map(|v| v.abs()).fold(0.0f32, f32::max)
            })
            .fold(0.0f32, f32::max);
        assert!(
            mean_mag <= worst_member + 1e-6,
            "averaging must not amplify excursions: {mean_mag} vs {worst_member}"
        );
    }
}
