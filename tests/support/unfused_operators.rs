//! The staggering averages and the tangential-velocity reconstruction as
//! stand-alone whole-field passes — the forms `grist_dycore::operators` held
//! until every solver formed these values inside its fused kernels. Only the
//! test references (`unfused_step.rs`, `unfused_swe.rs`) still want them as
//! fields, so they live here, as plain serial loops with the operand order,
//! association and `mul_add`s the fused kernels must reproduce.

use grist_dycore::operators::ScaledGeometry;
use grist_dycore::{Field2, Real};
use grist_mesh::HexMesh;

/// Centered cell→edge average: `h_e = (h_{c1} + h_{c2}) / 2`.
pub fn cell_to_edge<R: Real>(mesh: &HexMesh, h_cell: &Field2<R>, out: &mut Field2<R>) {
    let half = R::from_f64(0.5);
    for e in 0..mesh.n_edges() {
        let [c1, c2] = mesh.edge_cells[e].map(|c| c as usize);
        for k in 0..h_cell.nlev() {
            out.set(k, e, (h_cell.at(k, c1) + h_cell.at(k, c2)) * half);
        }
    }
}

/// Vertex→edge average of a dual field.
pub fn vert_to_edge<R: Real>(mesh: &HexMesh, f_vert: &Field2<R>, out: &mut Field2<R>) {
    let half = R::from_f64(0.5);
    for e in 0..mesh.n_edges() {
        let [v1, v2] = mesh.edge_verts[e].map(|v| v as usize);
        for k in 0..f_vert.nlev() {
            out.set(k, e, (f_vert.at(k, v1) + f_vert.at(k, v2)) * half);
        }
    }
}

/// Full (east, north) velocity vectors reconstructed at dual vertices from
/// the three incident edge-normal components, by 2×2 least squares.
pub fn vert_velocity<R: Real>(
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    u_edge: &Field2<R>,
    out_e: &mut Field2<R>,
    out_n: &mut Field2<R>,
) {
    for v in 0..mesh.n_verts() {
        let rc = &geom.vert_recon[v];
        for lev in 0..u_edge.nlev() {
            let mut be = R::ZERO;
            let mut bn = R::ZERO;
            for k in 0..3 {
                let u = u_edge.at(lev, mesh.vert_edges[v][k] as usize);
                be = u.mul_add(rc.normals[k][0], be);
                bn = u.mul_add(rc.normals[k][1], bn);
            }
            out_e.set(lev, v, rc.minv[0][0] * be + rc.minv[0][1] * bn);
            out_n.set(lev, v, rc.minv[1][0] * be + rc.minv[1][1] * bn);
        }
    }
}

/// Tangential velocity at edges, from the two adjacent vertex
/// reconstructions. This stands in for GRIST/TRSK's weighted perp operator;
/// it is local, second-order on quasi-uniform meshes, and exercises the same
/// indirect-access pattern.
pub fn tangential_velocity<R: Real>(
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    vert_ve: &Field2<R>,
    vert_vn: &Field2<R>,
    out: &mut Field2<R>,
) {
    let half = R::from_f64(0.5);
    for e in 0..mesh.n_edges() {
        let [v1, v2] = mesh.edge_verts[e].map(|v| v as usize);
        let [te, tn] = geom.edge_tangent_en[e];
        for lev in 0..vert_ve.nlev() {
            let ve = (vert_ve.at(lev, v1) + vert_ve.at(lev, v2)) * half;
            let vn = (vert_vn.at(lev, v1) + vert_vn.at(lev, v2)) * half;
            out.set(lev, e, ve * te + vn * tn);
        }
    }
}
