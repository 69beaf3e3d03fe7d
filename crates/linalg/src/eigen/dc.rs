//! Divide-and-conquer eigensolver for symmetric tridiagonal matrices.
//!
//! Cuppen's method as LAPACK's `dstedc` runs it: tear `T` at the midpoint
//! with a rank-one modification,
//! `T = diag(T₁ − |β| e_l e_lᵀ, T₂ − |β| e_f e_fᵀ) + |β| u uᵀ` with
//! `u = e_l + sign(β) e_f`, solve the halves recursively (leaves of at
//! most [`LEAF`] rows by implicit QL), and merge. A merge diagonalizes
//! `D + ρ z zᵀ` in the children's eigenbasis:
//!
//! 1. **Deflation** — a pole whose `|ρ z_i|` is negligible is already an
//!    eigenpair, and of two nearly equal poles a Givens rotation zeroes one
//!    `z` component, which deflates it (`dlaed2`).
//! 2. **Secular equation** `1/ρ + Σ z_i² / (δ_i − λ) = 0`, one root per
//!    remaining pole, solved in shifted-origin form: a root is kept as its
//!    nearest pole plus an offset `τ`, so every `δ_i − λ` is formed as
//!    `(δ_i − δ_origin) − τ` without cancellation. The root finder is a
//!    two-pole rational model step safeguarded by a bracket and bisection,
//!    capped at [`MAX_SECULAR_ITERS`] steps.
//! 3. **Löwner's formula** recomputes `ẑ` from the computed roots
//!    (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16(1), 1995), so the
//!    vectors `ẑ_i / (δ_i − λ_j)` are orthogonal to working precision even
//!    for clustered roots.
//! 4. **Products** — the merged vectors are `blockdiag(Q₁, Q₂) · V`, formed
//!    in column blocks of `V` through the blocked [`gemm`] kernel. Columns
//!    are tracked as living in the top half, the bottom half, or both
//!    (after a rotation across the halves), so each product touches only
//!    the rows where its factor is non-zero.
//!
//! Deflated and merged columns are written back in ascending eigenvalue
//! order, so every subproblem's block of the output stays sorted.

use super::ql::ql_implicit;
use crate::error::Result;
use crate::matrix::{gemm, MatRef, Store};

/// Largest subproblem solved directly by implicit QL.
pub(crate) const LEAF: usize = 32;
/// Hard cap on root-finder steps per secular root.
const MAX_SECULAR_ITERS: usize = 200;
/// Every this many root-finder steps, one is a bisection.
const BISECT_EVERY: usize = 8;
/// Columns of the secular eigenvector matrix formed per product.
const V_BLOCK: usize = 128;
/// Unit roundoff (LAPACK's `dlamch('E')`).
const EPS: f64 = f64::EPSILON / 2.0;

/// Which rows of a merge block a column of the children's eigenvector
/// matrix can be non-zero in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rows {
    Top,
    Bottom,
    Both,
}

/// Eigendecomposition of the symmetric tridiagonal matrix with diagonal
/// `d` and subdiagonal `e` (`e[i]` couples `d[i-1]` and `d[i]`, `e[0]` is
/// ignored).
///
/// On return `d` holds the eigenvalues in ascending order and `z`
/// (row-major `n × n`) the matching orthonormal eigenvectors as columns.
///
/// # Errors
///
/// Propagates [`crate::LinalgError::ConvergenceFailure`] from a QL leaf.
pub(crate) fn tridiagonal_eigen(d: &mut [f64], e: &[f64], z: &mut [f64]) -> Result<()> {
    let n = d.len();
    debug_assert_eq!(e.len(), n);
    debug_assert_eq!(z.len(), n * n);
    z.fill(0.0);
    let anorm = d
        .iter()
        .chain(e.iter().skip(1))
        .fold(0.0_f64, |m, x| m.max(x.abs()));
    if anorm == 0.0 {
        for i in 0..n {
            z[i * n + i] = 1.0;
        }
        return Ok(());
    }
    // Scale by a power of two (exact) so |T| is about 1: the deflation
    // tolerance compares |d| with |z|, and ρ stays far from overflow.
    let scale = 2f64.powi(-(anorm.log2().floor().clamp(-1000.0, 1000.0) as i32));
    d.iter_mut().for_each(|x| *x *= scale);
    let e: Vec<f64> = e.iter().map(|x| x * scale).collect();
    let mut dc = Dc {
        ld: n,
        z,
        ws: Workspace::default(),
    };
    dc.solve(0, d, &e)?;
    d.iter_mut().for_each(|x| *x /= scale);
    Ok(())
}

/// Buffers reused by every merge.
#[derive(Default)]
struct Workspace {
    /// Top rows of the merged columns that can be non-zero there.
    w_top: Vec<f64>,
    /// Bottom rows of the merged columns that can be non-zero there.
    w_bot: Vec<f64>,
    /// One column block of the secular eigenvector matrix.
    v: Vec<f64>,
    v_top: Vec<f64>,
    v_bot: Vec<f64>,
    /// Product output for one column block, `m × V_BLOCK`.
    out: Vec<f64>,
    /// One row of the merge block, for in-place column moves.
    row: Vec<f64>,
}

/// The recursion state: the output matrix (row stride `ld`), in which every
/// subproblem owns its diagonal block, and the shared workspace.
struct Dc<'a> {
    ld: usize,
    z: &'a mut [f64],
    ws: Workspace,
}

impl Dc<'_> {
    /// Solves the subproblem on rows/columns `s..s + d.len()`.
    fn solve(&mut self, s: usize, d: &mut [f64], e: &[f64]) -> Result<()> {
        let m = d.len();
        if m <= LEAF {
            return self.leaf(s, d, &e[..m]);
        }
        let n1 = m / 2;
        let beta = e[n1];
        d[n1 - 1] -= beta.abs();
        d[n1] -= beta.abs();
        let (d1, d2) = d.split_at_mut(n1);
        self.solve(s, d1, &e[..n1])?;
        self.solve(s + n1, d2, &e[n1..m])?;
        self.merge(s, n1, d, beta);
        Ok(())
    }

    /// Implicit QL on an identity start, then sorted into the block.
    fn leaf(&mut self, s: usize, d: &mut [f64], e: &[f64]) -> Result<()> {
        let m = d.len();
        let mut ev = d.to_vec();
        let mut sub = e.to_vec();
        sub[0] = 0.0;
        let mut zt = vec![0.0; m * m];
        for i in 0..m {
            zt[i * m + i] = 1.0;
        }
        ql_implicit(&mut ev, &mut sub, &mut zt, m)?;
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&i, &j| ev[i].total_cmp(&ev[j]));
        for (c, &k) in order.iter().enumerate() {
            d[c] = ev[k];
            for r in 0..m {
                self.z[(s + r) * self.ld + s + c] = zt[k * m + r];
            }
        }
        Ok(())
    }

    /// Merges the solved halves `s..s+n1` and `s+n1..s+m` (each with sorted
    /// eigenvalues in `d` and eigenvectors in its diagonal block) across
    /// the tear `β`.
    fn merge(&mut self, s: usize, n1: usize, d: &mut [f64], beta: f64) {
        let m = d.len();
        let ld = self.ld;
        let at = |r: usize, c: usize| (s + r) * ld + s + c;

        // z = Qᵀu / √2 and ρ = 2|β|, so that ‖z‖ = 1.
        let sign = if beta < 0.0 { -1.0 } else { 1.0 };
        let mut z: Vec<f64> = (0..m)
            .map(|c| {
                if c < n1 {
                    self.z[at(n1 - 1, c)]
                } else {
                    sign * self.z[at(n1, c)]
                }
            })
            .map(|x| x * std::f64::consts::FRAC_1_SQRT_2)
            .collect();
        let rho = 2.0 * beta.abs();
        let mut rows: Vec<Rows> = (0..m)
            .map(|c| if c < n1 { Rows::Top } else { Rows::Bottom })
            .collect();

        // Poles in ascending order: merge the two sorted halves.
        let mut order = Vec::with_capacity(m);
        let (mut i, mut j) = (0, n1);
        while i < n1 || j < m {
            if j == m || (i < n1 && d[i] <= d[j]) {
                order.push(i);
                i += 1;
            } else {
                order.push(j);
                j += 1;
            }
        }

        // Deflation (dlaed2).
        let zmax = z.iter().fold(0.0_f64, |a, x| a.max(x.abs()));
        let dmax = d.iter().fold(0.0_f64, |a, x| a.max(x.abs()));
        let tol = 8.0 * EPS * dmax.max(zmax);
        let mut kept: Vec<usize> = Vec::with_capacity(m);
        let mut deflated: Vec<usize> = Vec::new();
        if rho * zmax <= tol {
            deflated.extend_from_slice(&order);
        } else {
            let mut prev: Option<usize> = None;
            for &c in &order {
                if rho * z[c].abs() <= tol {
                    deflated.push(c);
                    continue;
                }
                let Some(p) = prev else {
                    prev = Some(c);
                    continue;
                };
                // Rotate (p, c) so z_p vanishes; deflate p if the
                // off-diagonal this leaves, |(d_c − d_p) cs|, is negligible.
                let tau = z[c].hypot(z[p]);
                let cs = z[c] / tau;
                let sn = -z[p] / tau;
                if ((d[c] - d[p]) * cs * sn).abs() <= tol {
                    z[c] = tau;
                    z[p] = 0.0;
                    if rows[p] != rows[c] {
                        rows[c] = Rows::Both;
                        rows[p] = Rows::Both;
                    }
                    for r in 0..m {
                        let (x, y) = (self.z[at(r, p)], self.z[at(r, c)]);
                        self.z[at(r, p)] = cs * x + sn * y;
                        self.z[at(r, c)] = cs * y - sn * x;
                    }
                    let (dp, dc) = (d[p], d[c]);
                    d[p] = dp * cs * cs + dc * sn * sn;
                    d[c] = dp * sn * sn + dc * cs * cs;
                    deflated.push(p);
                } else {
                    kept.push(p);
                }
                prev = Some(c);
            }
            kept.extend(prev);
        }
        deflated.sort_by(|&a, &b| d[a].total_cmp(&d[b]));

        // Secular roots, stored as (origin pole, offset).
        let k = kept.len();
        let poles: Vec<f64> = kept.iter().map(|&c| d[c]).collect();
        let w2: Vec<f64> = kept.iter().map(|&c| z[c] * z[c]).collect();
        let roots: Vec<(usize, f64)> = (0..k).map(|j| secular_root(&poles, &w2, rho, j)).collect();
        let delta = |i: usize, j: usize| {
            let (o, tau) = roots[j];
            (poles[i] - poles[o]) - tau
        };

        // Final slots: roots and deflated values merged in ascending order.
        let lambda: Vec<f64> = roots.iter().map(|&(o, tau)| poles[o] + tau).collect();
        let defl_vals: Vec<f64> = deflated.iter().map(|&c| d[c]).collect();
        let mut root_pos = vec![0; k];
        let mut defl_pos = vec![0; deflated.len()];
        let (mut a, mut b) = (0, 0);
        for slot in 0..m {
            if b == deflated.len() || (a < k && lambda[a] <= defl_vals[b]) {
                root_pos[a] = slot;
                a += 1;
            } else {
                defl_pos[b] = slot;
                b += 1;
            }
        }

        // Save the kept columns' non-zero rows before the block is
        // overwritten.
        let top: Vec<usize> = (0..k).filter(|&p| rows[kept[p]] != Rows::Bottom).collect();
        let bot: Vec<usize> = (0..k).filter(|&p| rows[kept[p]] != Rows::Top).collect();
        let n2 = m - n1;
        let ws = &mut self.ws;
        ws.w_top.clear();
        for r in 0..n1 {
            ws.w_top.extend(top.iter().map(|&p| self.z[at(r, kept[p])]));
        }
        ws.w_bot.clear();
        for r in n1..m {
            ws.w_bot.extend(bot.iter().map(|&p| self.z[at(r, kept[p])]));
        }

        // Move deflated columns to their slots, one row at a time.
        if !deflated.is_empty() {
            for r in 0..m {
                ws.row.clear();
                ws.row.extend_from_slice(&self.z[at(r, 0)..at(r, m)]);
                for (&c, &slot) in deflated.iter().zip(&defl_pos) {
                    self.z[at(r, slot)] = ws.row[c];
                }
            }
        }
        for (&slot, &v) in defl_pos.iter().zip(&defl_vals) {
            d[slot] = v;
        }
        for (j, &slot) in root_pos.iter().enumerate() {
            d[slot] = lambda[j];
        }
        if k == 0 {
            return;
        }

        // Löwner: ẑ_i² ∝ −(δ_i − λ_i) Π_{j≠i} (δ_i − λ_j)/(δ_i − δ_j).
        let zhat: Vec<f64> = (0..k)
            .map(|i| {
                let mut w = delta(i, i);
                for j in (0..k).filter(|&j| j != i) {
                    w *= delta(i, j) / (poles[i] - poles[j]);
                }
                (-w).sqrt().copysign(z[kept[i]])
            })
            .collect();

        // Merged vectors, one column block of V at a time.
        for j0 in (0..k).step_by(V_BLOCK) {
            let jb = V_BLOCK.min(k - j0);
            ws.v.clear();
            ws.v.resize(k * jb, 0.0);
            for jj in 0..jb {
                let mut norm2 = 0.0;
                for (i, &zi) in zhat.iter().enumerate() {
                    let x = zi / delta(i, j0 + jj);
                    ws.v[i * jb + jj] = x;
                    norm2 += x * x;
                }
                let inv = 1.0 / norm2.sqrt();
                for i in 0..k {
                    ws.v[i * jb + jj] *= inv;
                }
            }
            ws.v_top.clear();
            for &p in &top {
                ws.v_top.extend_from_slice(&ws.v[p * jb..(p + 1) * jb]);
            }
            ws.v_bot.clear();
            for &p in &bot {
                ws.v_bot.extend_from_slice(&ws.v[p * jb..(p + 1) * jb]);
            }
            ws.out.resize(m * jb, 0.0);
            let (out_top, out_bot) = ws.out[..m * jb].split_at_mut(n1 * jb);
            gemm(
                MatRef::row_major(&ws.w_top, n1, top.len(), top.len()),
                MatRef::row_major(&ws.v_top, top.len(), jb, jb),
                out_top,
                jb,
                Store::Overwrite,
            );
            gemm(
                MatRef::row_major(&ws.w_bot, n2, bot.len(), bot.len()),
                MatRef::row_major(&ws.v_bot, bot.len(), jb, jb),
                out_bot,
                jb,
                Store::Overwrite,
            );
            for r in 0..m {
                for (jj, &slot) in root_pos[j0..j0 + jb].iter().enumerate() {
                    self.z[at(r, slot)] = ws.out[r * jb + jj];
                }
            }
        }
    }
}

/// Value and derivative pieces of `g(τ) = 1/ρ + Σ w2_i / Δ_i` with
/// `Δ_i = (δ_i − δ_o) − τ`, split at the pole pair bracketing the root.
struct Secular {
    g: f64,
    /// Derivative of the terms at or left of the lower bracketing pole.
    dpsi: f64,
    /// Derivative of the terms right of it.
    dphi: f64,
    /// Rounding-error bound on `g`.
    err: f64,
}

/// The `j`-th root of `1/ρ + Σ w2_i / (δ_i − λ) = 0` for strictly
/// ascending poles `δ` and positive `w2`, `ρ > 0`, returned as
/// `(o, τ)` with `λ = δ_o + τ` and `δ_o` the pole nearer the root.
///
/// Root `j` lies in `(δ_j, δ_{j+1})`, the last in
/// `(δ_{k−1}, δ_{k−1} + ρ Σ w2)`. Each step fits `C + S/(Δ_a − η) +
/// T/(Δ_b − η)` to `g` and its derivative at the current point (poles
/// `a < b` bracket the root; Li's "middle way") and takes that model's
/// root if it falls inside the current sign bracket, else bisects; every
/// [`BISECT_EVERY`]-th step bisects regardless. Iteration stops when `|g|`
/// is within its rounding-error bound, the bracket has no interior
/// point, or after [`MAX_SECULAR_ITERS`] steps.
fn secular_root(delta: &[f64], w2: &[f64], rho: f64, j: usize) -> (usize, f64) {
    let k = delta.len();
    if k == 1 {
        return (0, rho * w2[0]);
    }
    // Bracketing pole pair of the model; the last root uses the top two.
    let (a, b) = if j + 1 < k {
        (j, j + 1)
    } else {
        (k - 2, k - 1)
    };
    let eval = |o: usize, tau: f64| {
        let mut s = Secular {
            g: 1.0 / rho,
            dpsi: 0.0,
            dphi: 0.0,
            err: 0.0,
        };
        let mut abs_sum = 0.0;
        for (i, (&di, &wi)) in delta.iter().zip(w2).enumerate() {
            let del = (di - delta[o]) - tau;
            let t = wi / del;
            s.g += t;
            abs_sum += t.abs();
            if i <= a {
                s.dpsi += t / del;
            } else {
                s.dphi += t / del;
            }
        }
        s.err = EPS * (8.0 * (abs_sum + 1.0 / rho) + tau.abs() * (s.dpsi + s.dphi));
        s
    };
    let (o, mut lo, mut hi, mut tau);
    if j + 1 < k {
        let gap = delta[b] - delta[a];
        if eval(a, 0.5 * gap).g >= 0.0 {
            (o, lo, hi) = (a, 0.0, 0.5 * gap);
            tau = hi;
        } else {
            (o, lo, hi) = (b, -0.5 * gap, 0.0);
            tau = lo;
        }
    } else {
        o = b;
        lo = 0.0;
        hi = rho * w2.iter().sum::<f64>();
        tau = 0.5 * hi;
    }
    for iter in 0..MAX_SECULAR_ITERS {
        let s = eval(o, tau);
        if s.g.abs() <= s.err {
            break;
        }
        if s.g < 0.0 {
            lo = tau;
        } else {
            hi = tau;
        }
        let mid = lo + 0.5 * (hi - lo);
        if !(lo < mid && mid < hi) {
            break;
        }
        let step = tau
            + model_step(
                &s,
                (delta[a] - delta[o]) - tau,
                (delta[b] - delta[o]) - tau,
                lo - tau,
                hi - tau,
            );
        tau = if iter % BISECT_EVERY != BISECT_EVERY - 1 && lo < step && step < hi {
            step
        } else {
            mid
        };
    }
    (o, tau)
}

/// Root `η ∈ (lo, hi)` of the two-pole model `C + S/(Δ_a − η) +
/// T/(Δ_b − η)` that matches `g`, `g'` at the current point, or NaN.
fn model_step(s: &Secular, da: f64, db: f64, lo: f64, hi: f64) -> f64 {
    let sa = da * da * s.dpsi;
    let tb = db * db * s.dphi;
    let c = s.g - da * s.dpsi - db * s.dphi;
    // C η² − A η + B = 0.
    let qa = c * (da + db) + sa + tb;
    let qb = c * da * db + sa * db + tb * da;
    let inside = |eta: f64| lo < eta && eta < hi;
    if c == 0.0 {
        let eta = qb / qa;
        return if inside(eta) { eta } else { f64::NAN };
    }
    let disc = qa * qa - 4.0 * qb * c;
    if disc.is_nan() || disc < 0.0 {
        return f64::NAN;
    }
    let q = 0.5 * (qa + disc.sqrt().copysign(qa));
    [q / c, qb / q]
        .into_iter()
        .find(|&eta| inside(eta))
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Solves `(d, sub)` (`sub[i]` couples `i` and `i+1`) and checks sorted
    /// eigenvalues, `T v = λ v`, `VᵀV = I`, and agreement with implicit QL
    /// on the whole matrix. Returns the eigenvalues.
    fn check(diag: &[f64], sub: &[f64]) -> Vec<f64> {
        let n = diag.len();
        let mut e = vec![0.0; n];
        e[1..].copy_from_slice(sub);
        let mut d = diag.to_vec();
        let mut z = vec![f64::NAN; n * n];
        tridiagonal_eigen(&mut d, &e, &mut z).unwrap();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "eigenvalues not sorted");

        let norm = diag
            .iter()
            .chain(sub)
            .fold(0.0_f64, |m, x| m.max(x.abs()))
            .max(f64::MIN_POSITIVE);
        for (k, &lam) in d.iter().enumerate() {
            for i in 0..n {
                let mut tv = diag[i] * z[i * n + k];
                if i > 0 {
                    tv += sub[i - 1] * z[(i - 1) * n + k];
                }
                if i + 1 < n {
                    tv += sub[i] * z[(i + 1) * n + k];
                }
                let r = (tv - lam * z[i * n + k]).abs();
                assert!(r <= 1e-13 * norm * n as f64, "residual {r:e} at ({i},{k})");
            }
        }
        let zm = Matrix::from_vec(n, n, z).unwrap();
        let ztz = zm.transposed().matmul(&zm).unwrap();
        let orth = ztz.max_abs_diff(&Matrix::identity(n));
        assert!(orth <= 1e-13 * n as f64, "orthogonality {orth:e}");

        let mut ql = diag.to_vec();
        let mut ql_e = e.clone();
        let mut zt = Matrix::identity(n).into_vec();
        ql_implicit(&mut ql, &mut ql_e, &mut zt, n).unwrap();
        ql.sort_by(f64::total_cmp);
        for (a, b) in d.iter().zip(&ql) {
            assert!((a - b).abs() <= 1e-13 * norm * n as f64, "{a} vs QL {b}");
        }
        d
    }

    /// Wilkinson's W⁺ of order `2m+1`: diagonal |m−i|, unit off-diagonal.
    fn wilkinson(m: usize) -> (Vec<f64>, Vec<f64>) {
        let n = 2 * m + 1;
        let d = (0..n).map(|i| (i as f64 - m as f64).abs()).collect();
        (d, vec![1.0; n - 1])
    }

    fn lcg_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn zero_matrix_gives_identity_vectors() {
        let n = 3 * LEAF;
        let mut d = vec![0.0; n];
        let mut z = vec![1.0; n * n];
        tridiagonal_eigen(&mut d, &vec![0.0; n], &mut z).unwrap();
        assert_eq!(d, vec![0.0; n]);
        assert_eq!(z, Matrix::identity(n).into_vec());
    }

    #[test]
    fn diagonal_input_deflates_entirely() {
        // All e_i = 0: every merge has ρ = 0 and only sorts.
        let n = 2 * LEAF + 7;
        let diag: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64 - 20.0).collect();
        let d = check(&diag, &vec![0.0; n - 1]);
        let mut want = diag.clone();
        want.sort_by(f64::total_cmp);
        assert_eq!(d, want);
    }

    #[test]
    fn identity_deflates_entirely() {
        let n = 4 * LEAF;
        let d = check(&vec![1.0; n], &vec![0.0; n - 1]);
        assert!(d.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn split_blocks_are_solved_independently() {
        // Zero couplings inside and at the tear points of a random chain.
        let n = 5 * LEAF + 3;
        let diag = lcg_values(n, 3);
        let mut sub = lcg_values(n - 1, 4);
        for i in (0..n - 1).filter(|i| i % 17 == 0 || *i == n / 2 - 1) {
            sub[i] = 0.0;
        }
        check(&diag, &sub);
    }

    #[test]
    fn wilkinson_w21_and_glued_copies() {
        let (d, e) = wilkinson(10);
        check(&d, &e);
        // Five W21⁺ blocks glued by 1e-14: pairs of eigenvalues agree to
        // far below the deflation tolerance, so rotations deflate across
        // the halves of every merge.
        let (mut gd, mut ge) = (Vec::new(), Vec::new());
        for b in 0..5 {
            if b > 0 {
                ge.push(1e-14);
            }
            gd.extend_from_slice(&d);
            ge.extend_from_slice(&e);
        }
        check(&gd, &ge);
    }

    #[test]
    fn sizes_around_the_leaf_and_odd_orders() {
        for n in [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 97, 129] {
            check(&lcg_values(n, n as u64), &lcg_values(n - 1, 7 * n as u64));
        }
    }

    #[test]
    fn constant_chain_matches_closed_form() {
        // [2, −1] Toeplitz: λ_k = 2 − 2 cos(kπ/(n+1)), all distinct but
        // clustered at both ends.
        let n = 150;
        let d = check(&vec![2.0; n], &vec![-1.0; n - 1]);
        for (k, &lam) in d.iter().enumerate() {
            let want = 2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n + 1) as f64).cos();
            assert!((lam - want).abs() < 1e-13, "λ_{k}: {lam} vs {want}");
        }
    }

    #[test]
    fn tiny_and_huge_scales_survive() {
        let n = 3 * LEAF;
        for scale in [1e-200, 1e200] {
            let d: Vec<f64> = lcg_values(n, 11).iter().map(|x| x * scale).collect();
            let e: Vec<f64> = lcg_values(n - 1, 12).iter().map(|x| x * scale).collect();
            check(&d, &e);
        }
    }

    #[test]
    fn zero_diagonal_with_graded_couplings() {
        // Couplings from 1 down to 1e-294 between zero diagonal entries:
        // the leaves' QL must split on the norm floor, not the local test.
        let n = 40;
        let sub: Vec<f64> = (0..n - 1)
            .map(|i| 10f64.powi(-(((i * 7) % 300) as i32)))
            .collect();
        check(&vec![0.0; n], &sub);
    }

    #[test]
    fn secular_root_terminates_on_adversarial_input() {
        // Poles one ulp apart and weights spanning 300 orders of
        // magnitude: every root must come back finite and bracketed.
        let base = 1.0_f64;
        let delta: Vec<f64> = (0..6)
            .map(|i| {
                let mut x = base;
                for _ in 0..i {
                    x = f64::from_bits(x.to_bits() + 1);
                }
                x
            })
            .chain([2.0, 3.0])
            .collect();
        let w2 = [1e-300, 1.0, 1e-150, 0.5, 1e-30, 1e10, 1e-5, 1.0];
        for j in 0..delta.len() {
            let (o, tau) = secular_root(&delta, &w2, 1.0, j);
            let lam = delta[o] + tau;
            assert!(lam.is_finite());
            assert!(lam >= delta[j], "root {j} below its pole");
            if j + 1 < delta.len() {
                assert!(lam <= delta[j + 1], "root {j} above the next pole");
            }
        }
    }
}
