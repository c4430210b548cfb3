//! The unstructured hexagonal-pentagonal C-grid mesh: the Voronoi dual of the
//! geodesic icosahedral triangulation.
//!
//! Terminology follows GRIST/MPAS conventions:
//!
//! * **cells**  — the hexagons/pentagons (one per triangulation vertex);
//!   mass points. There are always exactly 12 pentagons.
//! * **edges**  — shared cell interfaces (one per triangulation edge);
//!   normal-velocity points of the C-grid staggering.
//! * **verts**  — the dual (triangle) vertices (one per triangulation face);
//!   vorticity points.
//!
//! All geometry lives on the **unit sphere**; physical models scale by the
//! planetary radius. The dual vertex of each triangle is its circumcenter, so
//! the mesh is a true spherical Voronoi diagram: every primal (Voronoi) edge
//! is the perpendicular bisector of its dual (Delaunay) edge, the property the
//! C-grid discretization relies on.

use crate::icosahedron::Triangulation;
use crate::vec3::{spherical_triangle_area, Vec3};
use std::collections::HashMap;

/// Compressed sparse row adjacency: variable-degree rows of `u32` indices.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    pub offsets: Vec<u32>,
    pub values: Vec<u32>,
}

impl Csr {
    /// Build from per-row vectors.
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut values = Vec::new();
        offsets.push(0);
        for r in rows {
            values.extend_from_slice(r);
            offsets.push(values.len() as u32);
        }
        Csr { offsets, values }
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Range of value-array positions belonging to row `i`; useful for
    /// accessing auxiliary arrays aligned with `values` (e.g. edge signs).
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    pub(crate) fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The hexagonal C-grid mesh with full connectivity and spherical geometry.
#[derive(Debug, Clone)]
pub struct HexMesh {
    /// Subdivision level (`G<level>` in the paper's Table 2).
    pub level: u32,

    // ---- positions (unit sphere) ----
    /// Cell (mass point) positions.
    pub cell_xyz: Vec<Vec3>,
    /// Dual vertex (vorticity point) positions: triangle circumcenters.
    pub vert_xyz: Vec<Vec3>,
    /// Edge midpoints (crossing point of primal and dual edge).
    pub edge_mid: Vec<Vec3>,

    // ---- connectivity ----
    /// The two cells sharing each edge; the edge normal points from
    /// `edge_cells[e][0]` to `edge_cells[e][1]`.
    pub edge_cells: Vec<[u32; 2]>,
    /// The two dual vertices bounding each edge; the edge tangent points
    /// from `edge_verts[e][0]` to `edge_verts[e][1]`, chosen so that
    /// (normal, tangent, radial) is right-handed.
    pub edge_verts: Vec<[u32; 2]>,
    /// Edges of each cell, ordered counter-clockwise (5 for pentagons,
    /// 6 for hexagons).
    pub cell_edges: Csr,
    /// Aligned with `cell_edges.values`: `+1` where the edge normal points
    /// out of the cell, `-1` where it points in.
    pub cell_edge_sign: Vec<f64>,
    /// Neighbouring cell across each entry of `cell_edges` (same ordering).
    pub cell_neighbors: Csr,
    /// Dual vertices (corners) of each cell, CCW, aligned so that
    /// `cell_verts.row(c)[k]` sits between `cell_edges.row(c)[k]` and
    /// `cell_edges.row(c)[k+1]` going CCW (exact interleaving is not relied
    /// upon by the solvers; only the CCW ordering is).
    pub cell_verts: Csr,
    /// The three cells at the corners of each dual triangle.
    pub vert_cells: Vec<[u32; 3]>,
    /// The three edges bounding each dual triangle.
    pub vert_edges: Vec<[u32; 3]>,
    /// `+1` where traversing the edge's dual segment from cell 0 to cell 1 is
    /// counter-clockwise around the vertex, `-1` otherwise. Each edge gets
    /// opposite signs from its two vertices.
    pub vert_edge_sign: Vec<[f64; 3]>,

    // ---- metric terms (unit sphere) ----
    /// Cell areas; sums to 4π.
    pub cell_area: Vec<f64>,
    /// Dual (triangle) areas; sums to 4π.
    pub vert_area: Vec<f64>,
    /// Primal edge length: arc length of the Voronoi interface (between the
    /// two dual vertices). GRIST's `edt_leng`.
    pub edge_le: Vec<f64>,
    /// Dual edge length: arc distance between the two cell centers.
    pub edge_de: Vec<f64>,
    /// Unit normal at the edge midpoint (tangent to sphere, cell0 → cell1).
    pub edge_normal: Vec<Vec3>,
    /// Unit tangent at the edge midpoint (vert0 → vert1).
    pub edge_tangent: Vec<Vec3>,
}

impl HexMesh {
    pub fn n_cells(&self) -> usize {
        self.cell_xyz.len()
    }
    pub fn n_edges(&self) -> usize {
        self.edge_cells.len()
    }
    pub fn n_verts(&self) -> usize {
        self.vert_xyz.len()
    }

    /// Build the level-`level` mesh (cells = `10·4^level + 2`).
    pub fn build(level: u32) -> Self {
        let tri = Triangulation::geodesic(level);
        Self::from_triangulation(level, &tri)
    }

    /// Construct the Voronoi dual of an arbitrary spherical triangulation.
    fn from_triangulation(level: u32, tri: &Triangulation) -> Self {
        let n_cells = tri.verts.len();
        let n_verts = tri.faces.len();
        let cell_xyz = tri.verts.clone();

        // Dual vertices: circumcenters. For a CCW face the plane normal
        // (b−a)×(c−a) already points outward, so normalizing it lands the
        // circumcenter on the correct hemisphere.
        let vert_xyz: Vec<Vec3> = tri
            .faces
            .iter()
            .map(|&[a, b, c]| {
                let (a, b, c) = (
                    tri.verts[a as usize],
                    tri.verts[b as usize],
                    tri.verts[c as usize],
                );
                (b - a).cross(c - a).normalized()
            })
            .collect();

        // Edges: dedup the triangulation edges, remembering adjacent faces.
        let mut edge_ids: HashMap<(u32, u32), u32> = HashMap::with_capacity(3 * n_verts / 2);
        let mut edge_cells: Vec<[u32; 2]> = Vec::with_capacity(3 * n_verts / 2);
        let mut edge_faces: Vec<[u32; 2]> = Vec::with_capacity(3 * n_verts / 2);
        for (f, &[a, b, c]) in tri.faces.iter().enumerate() {
            for &(p, q) in &[(a, b), (b, c), (c, a)] {
                let key = (p.min(q), p.max(q));
                match edge_ids.get(&key) {
                    Some(&e) => edge_faces[e as usize][1] = f as u32,
                    None => {
                        let e = edge_cells.len() as u32;
                        edge_ids.insert(key, e);
                        edge_cells.push([key.0, key.1]);
                        edge_faces.push([f as u32, u32::MAX]);
                    }
                }
            }
        }
        let n_edges = edge_cells.len();
        assert!(
            edge_faces.iter().all(|f| f[1] != u32::MAX),
            "open surface: every edge must have two adjacent faces"
        );

        // Per-edge geometry and orientation conventions.
        let mut edge_mid = Vec::with_capacity(n_edges);
        let mut edge_normal = Vec::with_capacity(n_edges);
        let mut edge_tangent = Vec::with_capacity(n_edges);
        let mut edge_verts = Vec::with_capacity(n_edges);
        let mut edge_le = Vec::with_capacity(n_edges);
        let mut edge_de = Vec::with_capacity(n_edges);
        for e in 0..n_edges {
            let [c1, c2] = edge_cells[e];
            let (p1, p2) = (cell_xyz[c1 as usize], cell_xyz[c2 as usize]);
            let m = ((p1 + p2) * 0.5).normalized();
            let n = (p2 - p1).tangent_at(m).normalized();
            // Right-handed frame: tangent = radial × normal, so n × t = r̂.
            let t = m.cross(n);
            let [fa, fb] = edge_faces[e];
            let (va, vb) = (vert_xyz[fa as usize], vert_xyz[fb as usize]);
            // Order dual vertices along +t.
            let (v1, v2) = if (vb - va).dot(t) >= 0.0 {
                (fa, fb)
            } else {
                (fb, fa)
            };
            edge_verts.push([v1, v2]);
            edge_le.push(vert_xyz[v1 as usize].arc_dist(vert_xyz[v2 as usize]));
            edge_de.push(p1.arc_dist(p2));
            edge_mid.push(m);
            edge_normal.push(n);
            edge_tangent.push(t);
        }

        // Cell → incident edges, CCW-ordered by azimuth around the cell.
        let mut cell_edge_rows: Vec<Vec<u32>> = vec![Vec::with_capacity(6); n_cells];
        for (e, &[c1, c2]) in edge_cells.iter().enumerate() {
            cell_edge_rows[c1 as usize].push(e as u32);
            cell_edge_rows[c2 as usize].push(e as u32);
        }
        // Cell → corner dual vertices.
        let mut cell_vert_rows: Vec<Vec<u32>> = vec![Vec::with_capacity(6); n_cells];
        for (f, &[a, b, c]) in tri.faces.iter().enumerate() {
            for v in [a, b, c] {
                cell_vert_rows[v as usize].push(f as u32);
            }
        }
        let azimuth_sort = |center: Vec3, ids: &mut Vec<u32>, pos: &dyn Fn(u32) -> Vec3| {
            let east = center.east();
            let north = center.north();
            ids.sort_by(|&i, &j| {
                let ang = |k: u32| {
                    let d = (pos(k) - center).tangent_at(center);
                    d.dot(north).atan2(d.dot(east))
                };
                ang(i).partial_cmp(&ang(j)).unwrap()
            });
        };
        for c in 0..n_cells {
            let center = cell_xyz[c];
            azimuth_sort(center, &mut cell_edge_rows[c], &|e| edge_mid[e as usize]);
            azimuth_sort(center, &mut cell_vert_rows[c], &|v| vert_xyz[v as usize]);
        }
        let cell_edges = Csr::from_rows(&cell_edge_rows);
        let cell_verts = Csr::from_rows(&cell_vert_rows);

        // Signs and neighbours aligned with cell_edges.values.
        let mut cell_edge_sign = vec![0.0; cell_edges.values.len()];
        let mut neighbor_rows: Vec<Vec<u32>> = vec![Vec::with_capacity(6); n_cells];
        for c in 0..n_cells {
            for (k, &e) in cell_edges.row(c).iter().enumerate() {
                let [c1, c2] = edge_cells[e as usize];
                let (sign, nb) = if c as u32 == c1 {
                    (1.0, c2)
                } else {
                    (-1.0, c1)
                };
                cell_edge_sign[cell_edges.row_range(c).start + k] = sign;
                neighbor_rows[c].push(nb);
            }
        }
        let cell_neighbors = Csr::from_rows(&neighbor_rows);

        // Dual triangle connectivity and orientation.
        let mut vert_cells = vec![[0u32; 3]; n_verts];
        for (f, &face) in tri.faces.iter().enumerate() {
            vert_cells[f] = face;
        }
        let mut vert_edge_rows: Vec<Vec<u32>> = vec![Vec::with_capacity(3); n_verts];
        for (e, &[v1, v2]) in edge_verts.iter().enumerate() {
            vert_edge_rows[v1 as usize].push(e as u32);
            vert_edge_rows[v2 as usize].push(e as u32);
        }
        let mut vert_edges = vec![[0u32; 3]; n_verts];
        let mut vert_edge_sign = vec![[0.0f64; 3]; n_verts];
        for v in 0..n_verts {
            assert_eq!(vert_edge_rows[v].len(), 3, "dual vertex degree must be 3");
            let p = vert_xyz[v];
            for (k, &e) in vert_edge_rows[v].iter().enumerate() {
                vert_edges[v][k] = e;
                let [c1, c2] = edge_cells[e as usize];
                let d = cell_xyz[c2 as usize] - cell_xyz[c1 as usize];
                let ccw = p.cross(edge_mid[e as usize]);
                vert_edge_sign[v][k] = if d.dot(ccw) >= 0.0 { 1.0 } else { -1.0 };
            }
        }

        // Areas.
        let vert_area: Vec<f64> = (0..n_verts)
            .map(|v| {
                let [a, b, c] = vert_cells[v];
                spherical_triangle_area(
                    cell_xyz[a as usize],
                    cell_xyz[b as usize],
                    cell_xyz[c as usize],
                )
                .abs()
            })
            .collect();
        let cell_area: Vec<f64> = (0..n_cells)
            .map(|c| {
                let corners = cell_verts.row(c);
                let n = corners.len();
                let mut a = 0.0;
                for k in 0..n {
                    let p = vert_xyz[corners[k] as usize];
                    let q = vert_xyz[corners[(k + 1) % n] as usize];
                    a += spherical_triangle_area(cell_xyz[c], p, q);
                }
                a.abs()
            })
            .collect();

        HexMesh {
            level,
            cell_xyz,
            vert_xyz,
            edge_mid,
            edge_cells,
            edge_verts,
            cell_edges,
            cell_edge_sign,
            cell_neighbors,
            cell_verts,
            vert_cells,
            vert_edges,
            vert_edge_sign,
            cell_area,
            vert_area,
            edge_le,
            edge_de,
            edge_normal,
            edge_tangent,
        }
    }

    /// Mean cell spacing in kilometres for an Earth-radius sphere — the
    /// "Resolution (km)" column of Table 2.
    pub fn mean_spacing_km(&self, rearth_m: f64) -> f64 {
        let mean_de: f64 = self.edge_de.iter().sum::<f64>() / self.n_edges() as f64;
        mean_de * rearth_m / 1000.0
    }

    /// Coriolis parameter `2Ω sin(lat)` at every edge midpoint.
    pub fn coriolis_at_edges(&self, omega: f64) -> Vec<f64> {
        self.edge_mid
            .iter()
            .map(|m| 2.0 * omega * m.lat().sin())
            .collect()
    }

    /// Coriolis parameter `2Ω sin(lat)` at every dual vertex.
    pub fn coriolis_at_verts(&self, omega: f64) -> Vec<f64> {
        self.vert_xyz
            .iter()
            .map(|p| 2.0 * omega * p.lat().sin())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn mesh() -> HexMesh {
        HexMesh::build(3)
    }

    #[test]
    fn counts_follow_closed_forms() {
        let m = mesh();
        let p = 4usize.pow(3);
        assert_eq!(m.n_cells(), 10 * p + 2);
        assert_eq!(m.n_edges(), 30 * p);
        assert_eq!(m.n_verts(), 20 * p);
    }

    #[test]
    fn euler_characteristic() {
        let m = mesh();
        assert_eq!(m.n_cells() + m.n_verts() - m.n_edges(), 2);
    }

    #[test]
    fn exactly_twelve_pentagons() {
        let m = mesh();
        let pentagons = (0..m.n_cells())
            .filter(|&c| m.cell_edges.row(c).len() == 5)
            .count();
        let hexagons = (0..m.n_cells())
            .filter(|&c| m.cell_edges.row(c).len() == 6)
            .count();
        assert_eq!(pentagons, 12);
        assert_eq!(pentagons + hexagons, m.n_cells());
    }

    #[test]
    fn cell_areas_tile_the_sphere() {
        let m = mesh();
        let total: f64 = m.cell_area.iter().sum();
        assert!((total - 4.0 * PI).abs() < 1e-9, "total = {total}");
        assert!(m.cell_area.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn dual_areas_tile_the_sphere() {
        let m = mesh();
        let total: f64 = m.vert_area.iter().sum();
        assert!((total - 4.0 * PI).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn edge_frames_are_right_handed_orthonormal() {
        let m = mesh();
        for e in 0..m.n_edges() {
            let (n, t, r) = (m.edge_normal[e], m.edge_tangent[e], m.edge_mid[e]);
            assert!(n.dot(t).abs() < 1e-12);
            assert!(n.dot(r).abs() < 1e-12);
            assert!((n.cross(t) - r).norm() < 1e-12);
        }
    }

    #[test]
    fn edge_tangent_points_from_v1_to_v2() {
        let m = mesh();
        for e in 0..m.n_edges() {
            let [v1, v2] = m.edge_verts[e];
            let d = m.vert_xyz[v2 as usize] - m.vert_xyz[v1 as usize];
            assert!(d.dot(m.edge_tangent[e]) > 0.0, "edge {e}");
        }
    }

    #[test]
    fn cell_edge_signs_are_outward() {
        let m = mesh();
        for c in 0..m.n_cells() {
            let rng = m.cell_edges.row_range(c);
            for (k, &e) in m.cell_edges.row(c).iter().enumerate() {
                let sign = m.cell_edge_sign[rng.start + k];
                let outward =
                    (m.edge_mid[e as usize] - m.cell_xyz[c]).tangent_at(m.edge_mid[e as usize]);
                assert!(
                    sign * m.edge_normal[e as usize].dot(outward) > 0.0,
                    "cell {c} edge {e}: sign does not point outward"
                );
            }
        }
    }

    #[test]
    fn each_edge_has_one_positive_one_negative_cell_sign() {
        let m = mesh();
        let mut sum = vec![0.0; m.n_edges()];
        let mut count = vec![0u32; m.n_edges()];
        for c in 0..m.n_cells() {
            let rng = m.cell_edges.row_range(c);
            for (k, &e) in m.cell_edges.row(c).iter().enumerate() {
                sum[e as usize] += m.cell_edge_sign[rng.start + k];
                count[e as usize] += 1;
            }
        }
        assert!(sum.iter().all(|&s| s.abs() < 1e-12));
        assert!(count.iter().all(|&c| c == 2));
    }

    #[test]
    fn vert_edge_signs_opposite_across_shared_edge() {
        let m = mesh();
        let mut sum = vec![0.0; m.n_edges()];
        for v in 0..m.n_verts() {
            for k in 0..3 {
                sum[m.vert_edges[v][k] as usize] += m.vert_edge_sign[v][k];
            }
        }
        assert!(sum.iter().all(|&s| s.abs() < 1e-12));
    }

    #[test]
    fn circumcenters_are_equidistant_from_corner_cells() {
        let m = mesh();
        for v in 0..m.n_verts() {
            let p = m.vert_xyz[v];
            let d: Vec<f64> = m.vert_cells[v]
                .iter()
                .map(|&c| p.arc_dist(m.cell_xyz[c as usize]))
                .collect();
            assert!((d[0] - d[1]).abs() < 1e-10 && (d[0] - d[2]).abs() < 1e-10);
        }
    }

    #[test]
    fn g_level_spacing_is_in_table2_band() {
        // Table 2 gives G6 spacing 92.5–113 km; the *mean* dual-edge spacing
        // of our un-optimized (no spring dynamics) grid should land nearby.
        let m = HexMesh::build(6);
        let km = m.mean_spacing_km(6.371e6);
        assert!(km > 85.0 && km < 135.0, "G6 spacing {km} km");
    }

    #[test]
    fn neighbors_align_with_edges() {
        let m = mesh();
        for c in 0..m.n_cells() {
            let edges = m.cell_edges.row(c);
            let nbs = m.cell_neighbors.row(c);
            assert_eq!(edges.len(), nbs.len());
            for (&e, &nb) in edges.iter().zip(nbs) {
                let [c1, c2] = m.edge_cells[e as usize];
                assert!(
                    (c1 == c as u32 && c2 == nb) || (c2 == c as u32 && c1 == nb),
                    "cell {c}: edge {e} does not connect to neighbor {nb}"
                );
            }
        }
    }
}
