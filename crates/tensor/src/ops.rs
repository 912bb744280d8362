//! Probabilistic (soft) logic operations and their derivatives.
//!
//! These are the scalar rules of the paper's Table I, generalised to n-ary
//! gates. Probabilities are `f32` values in `[0, 1]`; a gate's output is the
//! probability that the gate evaluates to 1 given independent inputs.
//!
//! | Operator | Output | Derivative w.r.t. input `i` |
//! |---|---|---|
//! | NOT  | `1 - p`                  | `-1` |
//! | AND  | `∏ pᵢ`                   | `∏_{j≠i} pⱼ` |
//! | OR   | `1 - ∏ (1-pᵢ)`           | `∏_{j≠i} (1-pⱼ)` |
//! | XOR  | pairwise `a+b-2ab` fold  | chain rule over the fold |
//! | XNOR | `1 - XOR`                | negated XOR derivative |

/// Logistic sigmoid, the paper's continuous embedding of input logits into
/// probabilities.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of the sigmoid expressed in terms of its output `s`.
#[inline]
pub fn sigmoid_grad_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// Soft NOT.
#[inline]
pub fn not(p: f32) -> f32 {
    1.0 - p
}

/// Soft n-ary AND: the product of the input probabilities.
pub fn and(ps: &[f32]) -> f32 {
    ps.iter().product()
}

/// Soft n-ary OR: `1 - ∏ (1 - pᵢ)`.
pub fn or(ps: &[f32]) -> f32 {
    1.0 - ps.iter().map(|&p| 1.0 - p).product::<f32>()
}

/// Soft 2-input XOR: `a + b - 2ab` (equivalently `a(1-b) + b(1-a)`).
#[inline]
pub fn xor2(a: f32, b: f32) -> f32 {
    a + b - 2.0 * a * b
}

/// Soft n-ary XOR, folded pairwise. The empty XOR is 0.
pub fn xor(ps: &[f32]) -> f32 {
    ps.iter().fold(0.0, |acc, &p| xor2(acc, p))
}

/// Soft n-ary XNOR.
pub fn xnor(ps: &[f32]) -> f32 {
    1.0 - xor(ps)
}

/// Gradient of the soft AND with respect to each input: `∏_{j≠i} pⱼ`.
///
/// Uses prefix/suffix products so inputs equal to zero are handled exactly.
/// Writes into `out`, which must have the same length as `ps`.
///
/// # Panics
///
/// Panics if `out.len() != ps.len()`.
pub fn and_grad(ps: &[f32], out: &mut [f32]) {
    assert_eq!(ps.len(), out.len(), "gradient buffer length mismatch");
    let n = ps.len();
    if n == 0 {
        return;
    }
    // prefix[i] = product of ps[..i]; computed into out to avoid allocation.
    let mut prefix = 1.0f32;
    for i in 0..n {
        out[i] = prefix;
        prefix *= ps[i];
    }
    let mut suffix = 1.0f32;
    for i in (0..n).rev() {
        out[i] *= suffix;
        suffix *= ps[i];
    }
}

/// Gradient of the soft OR with respect to each input: `∏_{j≠i} (1 - pⱼ)`.
///
/// # Panics
///
/// Panics if `out.len() != ps.len()`.
pub fn or_grad(ps: &[f32], out: &mut [f32]) {
    assert_eq!(ps.len(), out.len(), "gradient buffer length mismatch");
    let n = ps.len();
    if n == 0 {
        return;
    }
    let mut prefix = 1.0f32;
    for i in 0..n {
        out[i] = prefix;
        prefix *= 1.0 - ps[i];
    }
    let mut suffix = 1.0f32;
    for i in (0..n).rev() {
        out[i] *= suffix;
        suffix *= 1.0 - ps[i];
    }
}

/// Gradient of the folded n-ary soft XOR with respect to each input.
///
/// For the pairwise fold `acc_{k} = xor2(acc_{k-1}, p_k)`,
/// `∂out/∂p_i = (1 - 2·acc_{i-1}) · ∏_{j>i} (1 - 2·p_j)`.
///
/// # Panics
///
/// Panics if `out.len() != ps.len()`.
pub fn xor_grad(ps: &[f32], out: &mut [f32]) {
    assert_eq!(ps.len(), out.len(), "gradient buffer length mismatch");
    let n = ps.len();
    if n == 0 {
        return;
    }
    // Forward accumulator values before each input is folded in.
    let mut acc = 0.0f32;
    for i in 0..n {
        out[i] = 1.0 - 2.0 * acc;
        acc = xor2(acc, ps[i]);
    }
    // Multiply by the downstream fold factors.
    let mut downstream = 1.0f32;
    for i in (0..n).rev() {
        out[i] *= downstream;
        downstream *= 1.0 - 2.0 * ps[i];
    }
}

/// Squared-error loss `(y - t)²` and its derivative `2(y - t)` with respect to
/// the prediction `y`.
#[inline]
pub fn l2_loss_and_grad(y: f32, target: f32) -> (f32, f32) {
    let diff = y - target;
    (diff * diff, 2.0 * diff)
}

/// Clamps a probability to the open interval `(eps, 1-eps)` to keep gradients
/// finite.
#[inline]
fn clamp_prob(p: f32, eps: f32) -> f32 {
    p.clamp(eps, 1.0 - eps)
}

/// The clamp width used by [`embed_logit`]: probabilities produced from
/// logits stay inside `(PROB_EPS, 1 - PROB_EPS)`.
pub const PROB_EPS: f32 = 1e-6;

/// The sampler's sigmoid embedding of a logit into a probability:
/// `clamp_prob(sigmoid(v), PROB_EPS)`.
///
/// An `f32` sigmoid saturates to exactly `0.0` or `1.0` once `|v| ≳ 17`,
/// where `sigmoid_grad_from_output` returns `0` and gradient descent can
/// never pull the logit back — the clamp keeps saturated logits
/// differentiable, as the paper's continuous relaxation intends.
#[inline]
pub fn embed_logit(v: f32) -> f32 {
    clamp_prob(sigmoid(v), PROB_EPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff<F: Fn(&[f32]) -> f32>(f: F, ps: &[f32], i: usize) -> f32 {
        let h = 1e-3f32;
        let mut plus = ps.to_vec();
        plus[i] += h;
        let mut minus = ps.to_vec();
        minus[i] -= h;
        (f(&plus) - f(&minus)) / (2.0 * h)
    }

    #[test]
    fn gate_outputs_match_boolean_corners() {
        assert_eq!(and(&[1.0, 1.0, 1.0]), 1.0);
        assert_eq!(and(&[1.0, 0.0]), 0.0);
        assert_eq!(or(&[0.0, 0.0]), 0.0);
        assert_eq!(or(&[0.0, 1.0]), 1.0);
        assert_eq!(xor(&[1.0, 0.0]), 1.0);
        assert_eq!(xor(&[1.0, 1.0]), 0.0);
        assert_eq!(xnor(&[1.0, 1.0]), 1.0);
        assert_eq!(not(0.0), 1.0);
    }

    #[test]
    fn outputs_stay_in_unit_interval() {
        let ps = [0.3, 0.7, 0.9, 0.1];
        for f in [and, or, xor, xnor] {
            let v = f(&ps);
            assert!((0.0..=1.0).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn and_grad_matches_finite_difference() {
        let ps = [0.3f32, 0.8, 0.5];
        let mut g = vec![0.0; 3];
        and_grad(&ps, &mut g);
        for (i, &gi) in g.iter().enumerate() {
            let fd = finite_diff(and, &ps, i);
            assert!((gi - fd).abs() < 1e-2, "i={i}: {gi} vs {fd}");
        }
    }

    #[test]
    fn or_grad_matches_finite_difference() {
        let ps = [0.3f32, 0.8, 0.5];
        let mut g = vec![0.0; 3];
        or_grad(&ps, &mut g);
        for (i, &gi) in g.iter().enumerate() {
            let fd = finite_diff(or, &ps, i);
            assert!((gi - fd).abs() < 1e-2, "i={i}: {gi} vs {fd}");
        }
    }

    #[test]
    fn xor_grad_matches_finite_difference() {
        let ps = [0.3f32, 0.8, 0.5, 0.9];
        let mut g = vec![0.0; 4];
        xor_grad(&ps, &mut g);
        for (i, &gi) in g.iter().enumerate() {
            let fd = finite_diff(xor, &ps, i);
            assert!((gi - fd).abs() < 1e-2, "i={i}: {gi} vs {fd}");
        }
    }

    #[test]
    fn and_grad_handles_zero_inputs_exactly() {
        let ps = [0.0f32, 0.5, 0.0];
        let mut g = vec![0.0; 3];
        and_grad(&ps, &mut g);
        // ∂/∂p1 = p2*p3 = 0, ∂/∂p2 = 0, ∂/∂p3 = 0 — but p2's partial is 0*0=0.
        assert_eq!(g[0], 0.0);
        assert_eq!(g[1], 0.0);
        assert_eq!(g[2], 0.0);
        let ps = [0.0f32, 0.5];
        let mut g = vec![0.0; 2];
        and_grad(&ps, &mut g);
        assert_eq!(g[0], 0.5);
        assert_eq!(g[1], 0.0);
    }

    #[test]
    fn table_i_two_input_derivatives() {
        // The paper's Table I lists ∂/∂P1 = P2 for AND and OR (with the OR
        // derivative being the complement product), and 1-2P2 for XOR.
        let (p1, p2) = (0.4f32, 0.7f32);
        let mut g = vec![0.0; 2];
        and_grad(&[p1, p2], &mut g);
        assert!((g[0] - p2).abs() < 1e-6);
        or_grad(&[p1, p2], &mut g);
        assert!((g[0] - (1.0 - p2)).abs() < 1e-6);
        xor_grad(&[p1, p2], &mut g);
        assert!((g[0] - (1.0 - 2.0 * p2)).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_and_its_gradient() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.99);
        assert!(sigmoid(-10.0) < 0.01);
        let s = sigmoid(0.3);
        let fd = (sigmoid(0.3 + 1e-3) - sigmoid(0.3 - 1e-3)) / 2e-3;
        assert!((sigmoid_grad_from_output(s) - fd).abs() < 1e-3);
    }

    #[test]
    fn l2_loss_gradient_sign() {
        let (l, g) = l2_loss_and_grad(0.8, 1.0);
        assert!(l > 0.0 && g < 0.0);
        let (l, g) = l2_loss_and_grad(0.8, 0.0);
        assert!(l > 0.0 && g > 0.0);
        let (l, _) = l2_loss_and_grad(1.0, 1.0);
        assert_eq!(l, 0.0);
    }

    #[test]
    fn clamp_prob_keeps_interior() {
        assert_eq!(clamp_prob(1.5, 1e-6), 1.0 - 1e-6);
        assert_eq!(clamp_prob(-0.2, 1e-6), 1e-6);
        assert_eq!(clamp_prob(0.4, 1e-6), 0.4);
    }

    #[test]
    fn embed_logit_keeps_saturated_logits_differentiable() {
        // At |v| = 100 the f32 sigmoid saturates exactly; the embedding pins
        // the output just inside the unit interval so σ'(p) stays non-zero.
        assert_eq!(embed_logit(100.0), 1.0 - PROB_EPS);
        assert_eq!(embed_logit(-100.0), PROB_EPS);
        assert!(sigmoid_grad_from_output(embed_logit(100.0)) > 0.0);
        assert!(sigmoid_grad_from_output(embed_logit(-100.0)) > 0.0);
        // Interior logits are the plain sigmoid.
        assert_eq!(embed_logit(0.3), sigmoid(0.3));
    }
}
