//! Field containers for the staggered C-grid.
//!
//! Horizontal location is encoded by which mesh count the field is sized to
//! (cells, edges, or dual vertices); all fields carry `nlev` vertical layers
//! stored level-fastest — matching the Fortran `(ilev, ie)` loop order of the
//! paper's kernels (Fig. 4), which is also the layout the LDCache model and
//! vertical (columnar) solvers want.

use crate::real::Real;

/// A 2-D field: `nlev` vertical layers × `ncols` horizontal locations,
/// level-fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2<R: Real> {
    nlev: usize,
    ncols: usize,
    data: Vec<R>,
}

impl<R: Real> Field2<R> {
    pub fn zeros(nlev: usize, ncols: usize) -> Self {
        Field2 {
            nlev,
            ncols,
            data: vec![R::ZERO; nlev * ncols],
        }
    }

    pub fn constant(nlev: usize, ncols: usize, v: R) -> Self {
        Field2 {
            nlev,
            ncols,
            data: vec![v; nlev * ncols],
        }
    }

    /// Build from a per-(level, column) closure.
    pub fn from_fn(nlev: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> R) -> Self {
        let mut data = Vec::with_capacity(nlev * ncols);
        for col in 0..ncols {
            for lev in 0..nlev {
                data.push(f(lev, col));
            }
        }
        Field2 { nlev, ncols, data }
    }

    #[inline]
    pub fn nlev(&self) -> usize {
        self.nlev
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn at(&self, lev: usize, col: usize) -> R {
        debug_assert!(lev < self.nlev && col < self.ncols);
        self.data[col * self.nlev + lev]
    }

    #[inline]
    pub fn at_mut(&mut self, lev: usize, col: usize) -> &mut R {
        debug_assert!(lev < self.nlev && col < self.ncols);
        &mut self.data[col * self.nlev + lev]
    }

    #[inline]
    pub fn set(&mut self, lev: usize, col: usize, v: R) {
        *self.at_mut(lev, col) = v;
    }

    /// The whole column at horizontal location `col`.
    #[inline]
    pub fn col(&self, col: usize) -> &[R] {
        &self.data[col * self.nlev..(col + 1) * self.nlev]
    }

    pub fn as_slice(&self) -> &[R] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [R] {
        &mut self.data
    }

    pub fn fill(&mut self, v: R) {
        self.data.fill(v);
    }

    /// `self += other * scale` — the fused update used by RK accumulation.
    pub fn axpy(&mut self, scale: R, other: &Field2<R>) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = b.mul_add(scale, *a);
        }
    }

    /// Copy values from `other` (must have identical shape).
    pub fn copy_from(&mut self, other: &Field2<R>) {
        assert_eq!(self.nlev, other.nlev);
        assert_eq!(self.ncols, other.ncols);
        self.data.copy_from_slice(&other.data);
    }

    /// Convert to another precision (initialization-time cast of §3.4.3).
    pub fn cast<S: Real>(&self) -> Field2<S> {
        Field2 {
            nlev: self.nlev,
            ncols: self.ncols,
            data: self.data.iter().map(|&x| S::from_f64(x.to_f64())).collect(),
        }
    }

    /// Lossless view as f64 for diagnostics.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|x| x.to_f64()).collect()
    }

    pub fn min_value(&self) -> R {
        self.data
            .iter()
            .copied()
            .fold(self.data[0], |a, b| a.min(b))
    }

    pub fn max_value(&self) -> R {
        self.data
            .iter()
            .copied()
            .fold(self.data[0], |a, b| a.max(b))
    }
}

/// A single-level horizontal field (e.g. surface pressure).
#[derive(Debug, Clone, PartialEq)]
pub struct Field1<R: Real> {
    pub data: Vec<R>,
}

impl<R: Real> Field1<R> {
    pub fn zeros(n: usize) -> Self {
        Field1 {
            data: vec![R::ZERO; n],
        }
    }
    pub fn constant(n: usize, v: R) -> Self {
        Field1 { data: vec![v; n] }
    }
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|x| x.to_f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_level_fastest() {
        let f = Field2::<f64>::from_fn(3, 4, |lev, col| (col * 10 + lev) as f64);
        assert_eq!(f.as_slice()[0], 0.0); // col 0, lev 0
        assert_eq!(f.as_slice()[1], 1.0); // col 0, lev 1
        assert_eq!(f.as_slice()[3], 10.0); // col 1, lev 0
        assert_eq!(f.at(2, 3), 32.0);
    }

    #[test]
    fn column_views_are_contiguous() {
        let f = Field2::<f32>::from_fn(4, 3, |lev, col| (col * 100 + lev) as f32);
        assert_eq!(f.col(2), &[200.0, 201.0, 202.0, 203.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Field2::<f64>::constant(2, 2, 1.0);
        let b = Field2::<f64>::constant(2, 2, 3.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&x| (x - 2.5).abs() < 1e-15));
    }

    #[test]
    fn cast_roundtrip_f64_f32() {
        let f = Field2::<f64>::from_fn(2, 2, |l, c| 1.0 + (l + c) as f64 * 0.25);
        let g: Field2<f32> = f.cast();
        let h: Field2<f64> = g.cast();
        // exact: quarter-values representable in f32
        assert_eq!(f, h);
    }

    #[test]
    fn minmax() {
        let f = Field2::<f64>::from_fn(2, 3, |l, c| (l as f64) - (c as f64));
        assert_eq!(f.min_value(), -2.0);
        assert_eq!(f.max_value(), 1.0);
    }
}
