//! Small dense matrix helpers for the statistics layer.
//!
//! These back the per-location OLS fits (eq. 2), the VAR(P) coefficient
//! estimation, and the empirical-covariance Cholesky at test scales. They
//! are deliberately simple row-major f64 routines; the large-scale path is
//! the tiled mixed-precision code.

/// Row-major dense f64 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, &o) in crow.iter_mut().zip(orow) {
                    *c += a * o;
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// `self + λI` in place; the paper's "minor perturbation along the
    /// diagonal" that keeps the empirical covariance positive definite.
    pub fn add_diagonal(&mut self, lambda: f64) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            self.data[i * self.cols + i] += lambda;
        }
    }

    /// Lower Cholesky factor `L` with `self = L Lᵀ`. Fails on non-SPD input.
    pub fn cholesky_lower(&self) -> Result<Matrix, crate::kernels::NotPositiveDefinite> {
        assert_eq!(self.rows, self.cols, "Cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = self.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(crate::kernels::NotPositiveDefinite { pivot: i, value: s });
                    }
                    l.set(i, j, s.sqrt());
                } else {
                    l.set(i, j, s / l.get(j, j));
                }
            }
        }
        Ok(l)
    }

    /// Solve `L y = b` with `L` lower triangular (this matrix).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(b.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.get(i, k) * y[k];
            }
            y[i] = s / self.get(i, i);
        }
        y
    }

    /// Solve `Lᵀ x = y` with `L` lower triangular (this matrix).
    pub fn solve_lower_transpose(&self, y: &[f64]) -> Vec<f64> {
        let n = self.rows;
        assert_eq!(y.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in i + 1..n {
                s -= self.get(k, i) * x[k];
            }
            x[i] = s / self.get(i, i);
        }
        x
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Lower Cholesky factor of the normal matrix `XᵀX` (`xt` is `Xᵀ`), with a
/// tiny ridge added when `XᵀX` is numerically singular. It depends on the
/// design alone, so callers fitting many responses against one design
/// factor once and reuse it.
pub fn normal_equations_factor(xt: &Matrix, x: &Matrix) -> Matrix {
    normal_matrix_factor(xt.matmul(x))
}

/// Lower Cholesky factor of a normal matrix `xtx = XᵀX` formed by the
/// caller, with [`normal_equations_factor`]'s ridge fallback: when `xtx`
/// does not factor, `1e-10·max(‖xtx‖_F, 1)` is added to its diagonal.
pub fn normal_matrix_factor(mut xtx: Matrix) -> Matrix {
    match xtx.cholesky_lower() {
        Ok(l) => l,
        Err(_) => {
            let scale = xtx.frobenius_norm().max(1.0);
            xtx.add_diagonal(1e-10 * scale);
            xtx.cholesky_lower()
                .expect("ridge-regularized normal equations are SPD")
        }
    }
}

/// Ordinary least squares: minimize `‖Xβ − y‖₂` via the normal equations
/// (factored by [`normal_equations_factor`]).
pub fn ols_solve(x: &Matrix, y: &[f64]) -> Vec<f64> {
    assert_eq!(x.rows(), y.len(), "design/response size mismatch");
    let xt = x.transpose();
    let l = normal_equations_factor(&xt, x);
    l.solve_lower_transpose(&l.solve_lower(&xt.matvec(y)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i3 = identity(3);
        assert_eq!(a.matmul(&i3), a);
        let i2 = identity(2);
        assert_eq!(i2.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 0.4, 2.0, 5.0, 1.0, 0.4, 1.0, 3.0]);
        let l = a.cholesky_lower().unwrap();
        let r = l.matmul(&l.transpose());
        for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
        // Upper triangle strictly zero.
        assert_eq!(l.get(0, 2), 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 3.0, 3.0, 1.0]);
        assert!(a.cholesky_lower().is_err());
    }

    #[test]
    fn triangular_solves_invert_each_other() {
        let a = Matrix::from_vec(3, 3, vec![9.0, 3.0, 1.0, 3.0, 8.0, 2.0, 1.0, 2.0, 7.0]);
        let l = a.cholesky_lower().unwrap();
        let b = [1.0, -2.0, 0.5];
        let y = l.solve_lower(&b);
        // L y = b
        let back = l.matvec(&y);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
        let x = l.solve_lower_transpose(&y);
        let back = l.transpose().matvec(&x);
        for (u, v) in back.iter().zip(&y) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn ols_recovers_coefficients() {
        // y = 2 + 3 t − 0.5 t², noise-free.
        let n = 50;
        let mut xd = Vec::with_capacity(n * 3);
        let mut y = Vec::with_capacity(n);
        for k in 0..n {
            let t = k as f64 * 0.1;
            xd.extend_from_slice(&[1.0, t, t * t]);
            y.push(2.0 + 3.0 * t - 0.5 * t * t);
        }
        let x = Matrix::from_vec(n, 3, xd);
        let beta = ols_solve(&x, &y);
        assert!((beta[0] - 2.0).abs() < 1e-9);
        assert!((beta[1] - 3.0).abs() < 1e-9);
        assert!((beta[2] + 0.5).abs() < 1e-9);
    }

    #[test]
    fn ols_handles_rank_deficiency_with_ridge() {
        // Duplicate column: XᵀX singular; ridge fallback must not panic.
        let x = Matrix::from_vec(4, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        let y = [2.0, 4.0, 6.0, 8.0];
        let beta = ols_solve(&x, &y);
        // Any split with β₀ + β₁ = 2 fits; the fitted values must match.
        for k in 0..4 {
            let fit = beta[0] * x.get(k, 0) + beta[1] * x.get(k, 1);
            assert!((fit - y[k]).abs() < 1e-5, "fit {fit} vs {}", y[k]);
        }
    }

    #[test]
    fn add_diagonal_shifts_eigenvalues() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 3.0, 3.0, 1.0]); // indefinite
        assert!(a.cholesky_lower().is_err());
        a.add_diagonal(2.5);
        assert!(a.cholesky_lower().is_ok());
    }
}
