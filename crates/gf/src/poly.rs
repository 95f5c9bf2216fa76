//! Polynomial evaluation and interpolation over GF(2^8).
//!
//! Shamir's secret sharing evaluates a random polynomial of degree `k-1` at
//! `n` distinct points and reconstructs the constant term by Lagrange
//! interpolation from any `k` of them. These helpers implement exactly that,
//! operating on coefficient vectors of [`Gf256`] elements.

use crate::field::Gf256;

/// Evaluates the polynomial with the given coefficients at `x` using
/// Horner's rule. `coeffs[0]` is the constant term.
pub fn eval(coeffs: &[Gf256], x: Gf256) -> Gf256 {
    let mut acc = Gf256::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

/// Interpolates the unique polynomial of degree `< points.len()` passing
/// through the given `(x, y)` points and evaluates it at `at`.
///
/// Returns `None` if two points share the same x-coordinate (the
/// interpolation problem is then ill-posed).
pub fn interpolate_at(points: &[(Gf256, Gf256)], at: Gf256) -> Option<Gf256> {
    // Reject duplicate x-coordinates.
    for (i, (xi, _)) in points.iter().enumerate() {
        for (xj, _) in points.iter().skip(i + 1) {
            if xi == xj {
                return None;
            }
        }
    }
    let mut acc = Gf256::ZERO;
    for (i, &(xi, yi)) in points.iter().enumerate() {
        // Lagrange basis L_i(at) = prod_{j != i} (at - x_j) / (x_i - x_j).
        let mut num = Gf256::ONE;
        let mut den = Gf256::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            num *= at - xj;
            den *= xi - xj;
        }
        let basis = num * den.inverse().expect("distinct x-coordinates");
        acc += yi * basis;
    }
    Some(acc)
}

/// Interpolates the polynomial through `points` and returns its value at
/// zero (the secret in Shamir's scheme).
pub fn interpolate_at_zero(points: &[(Gf256, Gf256)]) -> Option<Gf256> {
    interpolate_at(points, Gf256::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn g(v: u8) -> Gf256 {
        Gf256::new(v)
    }

    #[test]
    fn eval_constant_polynomial() {
        assert_eq!(eval(&[g(0x42)], g(0x99)), g(0x42));
        assert_eq!(eval(&[], g(7)), Gf256::ZERO);
    }

    #[test]
    fn eval_linear_polynomial() {
        // p(x) = 3 + 5x evaluated at x = 2.
        let coeffs = [g(3), g(5)];
        assert_eq!(eval(&coeffs, g(2)), g(3) + g(5) * g(2));
    }

    #[test]
    fn eval_at_zero_returns_constant_term() {
        let coeffs = [g(0xaa), g(1), g(2), g(3)];
        assert_eq!(eval(&coeffs, Gf256::ZERO), g(0xaa));
    }

    #[test]
    fn interpolation_recovers_known_polynomial() {
        let coeffs = [g(0x17), g(0x2e), g(0x80)];
        let points: Vec<(Gf256, Gf256)> = (1..=3u8).map(|x| (g(x), eval(&coeffs, g(x)))).collect();
        assert_eq!(interpolate_at_zero(&points), Some(g(0x17)));
        for x in [0x04, 0x55, 0xff] {
            assert_eq!(interpolate_at(&points, g(x)), Some(eval(&coeffs, g(x))));
        }
    }

    #[test]
    fn interpolation_rejects_duplicate_x() {
        let points = [(g(1), g(2)), (g(1), g(3))];
        assert_eq!(interpolate_at_zero(&points), None);
        assert_eq!(interpolate_at(&points, g(7)), None);
    }

    #[test]
    fn any_subset_of_points_recovers_the_secret() {
        let coeffs = [g(0x5a), g(0x01), g(0xfe), g(0x33)];
        let all_points: Vec<(Gf256, Gf256)> =
            (1..=10u8).map(|x| (g(x), eval(&coeffs, g(x)))).collect();
        // Any 4 of the 10 evaluation points determine the cubic.
        for start in 0..6 {
            let subset = &all_points[start..start + 4];
            assert_eq!(interpolate_at_zero(subset), Some(g(0x5a)));
        }
    }

    proptest! {
        #[test]
        fn interpolation_round_trips(coeff_bytes in proptest::collection::vec(any::<u8>(), 1..8),
                                     extra in 0u8..20) {
            let coeffs: Vec<Gf256> = coeff_bytes.iter().map(|&b| g(b)).collect();
            let k = coeffs.len();
            // Evaluate at k distinct non-zero points (offset by `extra` to vary them).
            let points: Vec<(Gf256, Gf256)> = (0..k)
                .map(|i| {
                    let x = g((i as u8).wrapping_add(extra).wrapping_add(1).max(1));
                    (x, eval(&coeffs, x))
                })
                .collect();
            // Skip degenerate cases where wrapping produced duplicate x values.
            let mut xs: Vec<u8> = points.iter().map(|(x, _)| x.value()).collect();
            xs.sort_unstable();
            xs.dedup();
            prop_assume!(xs.len() == k);
            prop_assert_eq!(interpolate_at_zero(&points).unwrap(), coeffs[0]);
            // k points fix the polynomial everywhere, not only at zero.
            let at = g(extra.wrapping_mul(13));
            prop_assert_eq!(interpolate_at(&points, at).unwrap(), eval(&coeffs, at));
        }

        #[test]
        fn interpolated_polynomial_passes_through_points(
            ys in proptest::collection::vec(any::<u8>(), 2..6)) {
            let points: Vec<(Gf256, Gf256)> = ys
                .iter()
                .enumerate()
                .map(|(i, &y)| (g(i as u8 + 1), g(y)))
                .collect();
            for &(x, y) in &points {
                prop_assert_eq!(interpolate_at(&points, x), Some(y));
            }
        }
    }
}
