//! Gauss–Legendre quadrature nodes and weights: the test oracle that
//! integrates the Legendre functions' and harmonics' closed forms
//! independently of the equiangular grid. An `n`-point rule integrates
//! polynomials of degree `2n-1` exactly.

/// Nodes and weights of an `n`-point Gauss–Legendre rule on `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct GaussLegendre {
    /// Quadrature nodes in ascending order, `x_k ∈ (-1, 1)`.
    pub nodes: Vec<f64>,
    /// Positive weights summing to 2.
    pub weights: Vec<f64>,
}

impl GaussLegendre {
    /// Compute the `n`-point rule with Newton iteration on Legendre `P_n`.
    ///
    /// Initial guesses use the Tricomi asymptotic for the roots of `P_n`;
    /// each root converges in 3–4 Newton steps to machine precision.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "Gauss-Legendre rule needs at least one node");
        let mut nodes = vec![0.0f64; n];
        let mut weights = vec![0.0f64; n];
        let m = n.div_ceil(2);
        for k in 0..m {
            // Tricomi initial guess for the (k+1)-th root counted from +1.
            let mut x = (std::f64::consts::PI * (k as f64 + 0.75) / (n as f64 + 0.5)).cos();
            for _ in 0..100 {
                let (p, d) = legendre_pn_and_deriv(n, x);
                let dx = p / d;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            // Final derivative evaluation at the converged root for the weight.
            let (_, dp) = legendre_pn_and_deriv(n, x);
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            nodes[n - 1 - k] = x;
            weights[n - 1 - k] = w;
            nodes[k] = -x;
            weights[k] = w;
        }
        if n % 2 == 1 {
            // Middle node is exactly zero by symmetry.
            let (_, d) = legendre_pn_and_deriv(n, 0.0);
            nodes[m - 1] = 0.0;
            weights[m - 1] = 2.0 / (d * d);
        }
        Self { nodes, weights }
    }

    /// Integrate `f` over `[-1, 1]`.
    pub fn integrate<F: FnMut(f64) -> f64>(&self, mut f: F) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }

    /// Integrate `f` over an arbitrary interval `[a, b]` by affine mapping.
    pub fn integrate_on<F: FnMut(f64) -> f64>(&self, a: f64, b: f64, mut f: F) -> f64 {
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        half * self.integrate(|x| f(mid + half * x))
    }
}

/// Evaluate `(P_n(x), P_n'(x))` with the standard three-term recurrence.
fn legendre_pn_and_deriv(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0f64;
    if n == 0 {
        return (1.0, 0.0);
    }
    let mut p1 = x;
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    let d = if (1.0 - x * x).abs() < 1e-300 {
        // Endpoint derivative of P_n: n(n+1)/2 * (±1)^{n+1}
        let s = if x > 0.0 {
            1.0
        } else {
            (-1.0f64).powi(n as i32 + 1)
        };
        s * n as f64 * (n as f64 + 1.0) / 2.0
    } else {
        n as f64 * (x * p1 - p0) / (x * x - 1.0)
    };
    (p1, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_two() {
        for n in [1, 2, 3, 7, 16, 33, 64, 129] {
            let gl = GaussLegendre::new(n);
            let s: f64 = gl.weights.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "n={n}: sum={s}");
            assert!(gl.weights.iter().all(|&w| w > 0.0));
        }
    }

    #[test]
    fn nodes_sorted_and_symmetric() {
        let gl = GaussLegendre::new(20);
        for w in gl.nodes.windows(2) {
            assert!(w[0] < w[1]);
        }
        for k in 0..10 {
            assert!((gl.nodes[k] + gl.nodes[19 - k]).abs() < 1e-14);
            assert!((gl.weights[k] - gl.weights[19 - k]).abs() < 1e-14);
        }
    }

    #[test]
    fn exact_for_polynomials() {
        // n-point rule is exact for degree 2n-1.
        let gl = GaussLegendre::new(5);
        for deg in 0..=9usize {
            let got = gl.integrate(|x| x.powi(deg as i32));
            let expect = if deg % 2 == 0 {
                2.0 / (deg as f64 + 1.0)
            } else {
                0.0
            };
            assert!((got - expect).abs() < 1e-13, "deg {deg}: {got} vs {expect}");
        }
    }

    #[test]
    fn integrates_transcendental() {
        let gl = GaussLegendre::new(32);
        // ∫_{-1}^{1} e^x dx = e - 1/e
        let got = gl.integrate(f64::exp);
        let expect = 1f64.exp() - (-1f64).exp();
        assert!((got - expect).abs() < 1e-13);
        // ∫_0^π sin θ dθ = 2
        let got = gl.integrate_on(0.0, std::f64::consts::PI, f64::sin);
        assert!((got - 2.0).abs() < 1e-13);
    }

    #[test]
    fn known_two_point_rule() {
        let gl = GaussLegendre::new(2);
        let r = 1.0 / 3f64.sqrt();
        assert!((gl.nodes[0] + r).abs() < 1e-14);
        assert!((gl.nodes[1] - r).abs() < 1e-14);
        assert!((gl.weights[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn large_rule_converges() {
        // Sanity at a size typical of the SHT latitude count.
        let gl = GaussLegendre::new(721);
        let got = gl.integrate(|x| 1.0 / (1.0 + x * x));
        let expect = 2.0 * 1f64.atan();
        assert!((got - expect).abs() < 1e-12);
    }
}
