//! The base icosahedron and its level-`L` geodesic subdivision.
//!
//! The GRIST grid hierarchy ("G-levels", Table 2 of the paper) is obtained by
//! `L` rounds of edge-midpoint subdivision of the icosahedron projected onto
//! the unit sphere. The resulting triangulation has
//!
//! * `10·4^L + 2` vertices  (→ cells of the hexagonal dual),
//! * `30·4^L`     edges     (→ edges of the dual),
//! * `20·4^L`     faces     (→ vertices of the dual).

use crate::vec3::Vec3;
use std::collections::HashMap;

/// A triangulation of the unit sphere: vertex positions plus CCW-oriented
/// (seen from outside) triangular faces.
#[derive(Debug, Clone)]
pub struct Triangulation {
    pub verts: Vec<Vec3>,
    pub faces: Vec<[u32; 3]>,
}

impl Triangulation {
    /// The regular icosahedron inscribed in the unit sphere, with all faces
    /// oriented counter-clockwise when viewed from outside.
    pub fn icosahedron() -> Self {
        let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
        let raw = [
            (-1.0, phi, 0.0),
            (1.0, phi, 0.0),
            (-1.0, -phi, 0.0),
            (1.0, -phi, 0.0),
            (0.0, -1.0, phi),
            (0.0, 1.0, phi),
            (0.0, -1.0, -phi),
            (0.0, 1.0, -phi),
            (phi, 0.0, -1.0),
            (phi, 0.0, 1.0),
            (-phi, 0.0, -1.0),
            (-phi, 0.0, 1.0),
        ];
        let verts: Vec<Vec3> = raw
            .iter()
            .map(|&(x, y, z)| Vec3::new(x, y, z).normalized())
            .collect();
        // Standard CCW face table for the vertex order above.
        let faces: Vec<[u32; 3]> = vec![
            [0, 11, 5],
            [0, 5, 1],
            [0, 1, 7],
            [0, 7, 10],
            [0, 10, 11],
            [1, 5, 9],
            [5, 11, 4],
            [11, 10, 2],
            [10, 7, 6],
            [7, 1, 8],
            [3, 9, 4],
            [3, 4, 2],
            [3, 2, 6],
            [3, 6, 8],
            [3, 8, 9],
            [4, 9, 5],
            [2, 4, 11],
            [6, 2, 10],
            [8, 6, 7],
            [9, 8, 1],
        ];
        let t = Triangulation { verts, faces };
        debug_assert!(t.faces_are_ccw());
        t
    }

    /// One round of midpoint subdivision: each face splits into 4, new
    /// vertices are the normalized edge midpoints (shared between the two
    /// faces adjacent to each edge).
    fn subdivide_once(&self) -> Self {
        let mut verts = self.verts.clone();
        let mut midpoint: HashMap<(u32, u32), u32> = HashMap::with_capacity(self.faces.len() * 2);
        let mut faces = Vec::with_capacity(self.faces.len() * 4);

        let mut mid = |a: u32, b: u32, verts: &mut Vec<Vec3>| -> u32 {
            let key = (a.min(b), a.max(b));
            *midpoint.entry(key).or_insert_with(|| {
                let m = ((verts[a as usize] + verts[b as usize]) * 0.5).normalized();
                verts.push(m);
                (verts.len() - 1) as u32
            })
        };

        for &[a, b, c] in &self.faces {
            let ab = mid(a, b, &mut verts);
            let bc = mid(b, c, &mut verts);
            let ca = mid(c, a, &mut verts);
            faces.push([a, ab, ca]);
            faces.push([b, bc, ab]);
            faces.push([c, ca, bc]);
            faces.push([ab, bc, ca]);
        }
        Triangulation { verts, faces }
    }

    /// Subdivide the icosahedron `level` times (G-level `level` in the
    /// paper's nomenclature).
    pub fn geodesic(level: u32) -> Self {
        let mut t = Self::icosahedron();
        for _ in 0..level {
            t = t.subdivide_once();
        }
        t
    }

    /// Expected counts for a level-`level` geodesic grid.
    pub fn expected_counts(level: u32) -> (usize, usize, usize) {
        let p = 4usize.pow(level);
        (10 * p + 2, 30 * p, 20 * p)
    }

    /// Number of edges, derived from Euler's formula `V - E + F = 2`.
    pub fn n_edges(&self) -> usize {
        self.verts.len() + self.faces.len() - 2
    }

    /// Check that every face is counter-clockwise when viewed from outside
    /// the sphere, i.e. the face normal points outward.
    pub fn faces_are_ccw(&self) -> bool {
        self.faces.iter().all(|&[a, b, c]| {
            let (a, b, c) = (
                self.verts[a as usize],
                self.verts[b as usize],
                self.verts[c as usize],
            );
            (b - a).cross(c - a).dot(a + b + c) > 0.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icosahedron_counts_and_unit_vertices() {
        let t = Triangulation::icosahedron();
        assert_eq!(t.verts.len(), 12);
        assert_eq!(t.faces.len(), 20);
        for v in &t.verts {
            assert!((v.norm() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn geodesic_counts_match_closed_form() {
        for level in 0..5 {
            let t = Triangulation::geodesic(level);
            let (nv, ne, nf) = Triangulation::expected_counts(level);
            assert_eq!(t.verts.len(), nv, "level {level} verts");
            assert_eq!(t.faces.len(), nf, "level {level} faces");
            assert_eq!(t.n_edges(), ne, "level {level} edges");
        }
    }

    #[test]
    fn subdivision_preserves_orientation() {
        let t = Triangulation::geodesic(3);
        assert!(t.faces_are_ccw());
    }

    #[test]
    fn subdivided_vertices_on_unit_sphere() {
        let t = Triangulation::geodesic(3);
        for v in &t.verts {
            assert!((v.norm() - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn table2_grid_counts() {
        // Table 2: G6 has 41.0K cells / 123K edges / 81.9K vertices.
        let (cells, edges, verts) = Triangulation::expected_counts(6);
        assert_eq!(cells, 40_962);
        assert_eq!(edges, 122_880);
        assert_eq!(verts, 81_920);
        // G12 (1km) has 167M cells / 503M edges / 336M vertices.
        let (cells, edges, verts) = Triangulation::expected_counts(12);
        assert_eq!(cells, 167_772_162);
        assert_eq!(edges, 503_316_480);
        assert_eq!(verts, 335_544_320);
    }
}
