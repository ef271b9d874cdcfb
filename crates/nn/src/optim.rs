//! Stochastic gradient descent with momentum and weight decay, one kernel
//! for every momentum.

use crate::model::Sequential;
use fl_tensor::{kernels, Tensor};

/// SGD with classical momentum: `v <- mu * v + g + wd * p`, then
/// `p <- p - lr * v`. At `mu = 0` this is plain SGD,
/// `p <- p - lr * (g + wd * p)`, up to the sign of an exactly-zero result
/// (and NaN once a gradient overflows, as `0 · ∞` enters the velocity).
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Create an optimizer. `momentum` and `weight_decay` may be 0.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Forget the accumulated momentum: every velocity buffer is zero-filled
    /// in place, so the next [`step`](Self::step) behaves exactly like the
    /// first step of a new optimizer without allocating the buffers again.
    pub fn reset_velocity(&mut self) {
        for v in &mut self.velocity {
            v.fill(0.0);
        }
    }

    /// Apply one update step using the gradients currently stored in `model`.
    ///
    /// Allocation-free: one walk over the parameters and their gradients in
    /// place (no gradient clones), through the fused
    /// [`kernels::sgd_momentum_step`] at every momentum — at 0 it is plain
    /// SGD; the velocity buffers are allocated once on the first step and
    /// reused afterwards.
    pub fn step(&mut self, model: &mut Sequential) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        if self.velocity.is_empty() {
            self.velocity = model
                .params_iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect();
        }
        // v <- mu * v + g + wd * p ; p <- p - lr * v
        for ((param, grad), v) in model.params_and_grads_mut().zip(&mut self.velocity) {
            kernels::sgd_momentum_step(lr, mu, wd, param.data_mut(), v.data_mut(), grad.data());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use crate::{mlp, unflatten_params};
    use fl_tensor::rng::Xoshiro256;
    use fl_tensor::{Shape, Tensor};

    fn one_layer_model() -> Sequential {
        let mut rng = Xoshiro256::new(1);
        mlp(2, &[], 1, &mut rng)
    }

    /// Write the gradients of one forward/backward pass of `x` under the
    /// output gradient `dy` into `model`.
    fn backprop(model: &mut Sequential, x: &Tensor, dy: &Tensor) {
        let mut ws = Workspace::new();
        model.forward_in(x, &mut ws);
        model.backward_in(dy, &mut ws);
    }

    /// `dL/dy = 1` for every output of a one-sample batch.
    fn ones() -> Tensor {
        Tensor::full(Shape::matrix(1, 1), 1.0)
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut model = one_layer_model();
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]);
        // dL/dy = 1 => dW = x, db = 1
        backprop(&mut model, &x, &ones());
        let w_before: Vec<f32> = model.params()[0].data().to_vec();
        let mut opt = Sgd::new(0.5, 0.0, 0.0);
        opt.step(&mut model);
        let w_after = model.params()[0].data();
        for (b, a) in w_before.iter().zip(w_after.iter()) {
            assert!((b - a - 0.5).abs() < 1e-6, "expected decrease by lr*grad");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut model = one_layer_model();
        unflatten_params(&mut model, &[1.0, 1.0, 0.0]);
        model.zero_grad();
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        opt.step(&mut model);
        for &w in model.params()[0].data() {
            assert!((w - 0.95).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        // Constant gradient of 1: with momentum 0.9 the second step is larger.
        let mut model = one_layer_model();
        unflatten_params(&mut model, &[0.0; 3]);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]);

        backprop(&mut model, &x, &ones());
        opt.step(&mut model);
        let after_one = model.params()[0].data()[0];

        backprop(&mut model, &x, &ones());
        opt.step(&mut model);
        let after_two = model.params()[0].data()[0];

        let step1 = -after_one;
        let step2 = after_one - after_two;
        assert!(
            step2 > step1 * 1.5,
            "momentum should grow the step: {step1} vs {step2}"
        );
    }

    #[test]
    fn reset_velocity_replays_a_new_optimizer_bit_for_bit() {
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, -0.5]);
        let two_steps = |opt: &mut Sgd| {
            let mut model = one_layer_model();
            for _ in 0..2 {
                backprop(&mut model, &x, &ones());
                opt.step(&mut model);
            }
            crate::flatten_params(&model)
        };
        let mut opt = Sgd::new(0.1, 0.9, 0.01);
        let first = two_steps(&mut opt);
        opt.reset_velocity();
        assert_eq!(two_steps(&mut opt), first, "reused optimizer");
        assert_eq!(two_steps(&mut Sgd::new(0.1, 0.9, 0.01)), first);
    }

    #[test]
    fn step_after_reset_matches_zeroed_accumulation_on_signed_zeros() {
        // Weights of `-0.0` and `+0.0`; the tiny input and output gradient
        // underflow `dW[0]` to `-0.0`. Backward writes that `-0.0`, where
        // `zero_grad` + `add_assign` gave `0.0 + dW = +0.0`; the momentum
        // step's `mu * 0.0 + g` erases the difference.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let step_from = |opt: &mut Sgd, x: &[f32], dy: &[f32]| {
            let mut model = one_layer_model();
            unflatten_params(&mut model, &[-0.0, 0.0, -0.0]);
            backprop(
                &mut model,
                &Tensor::from_vec(Shape::matrix(2, 2), x.to_vec()),
                &Tensor::from_vec(Shape::matrix(2, 1), dy.to_vec()),
            );
            let grads = model.grads().into_iter().flat_map(|g| g.data()).copied();
            let before = (crate::flatten_params(&model), grads.collect::<Vec<f32>>());
            opt.step(&mut model);
            (before, crate::flatten_params(&model))
        };
        let (x, dy) = ([-1e-30, 0.0, 1e-30, -0.0], [1e-30, -0.0]);
        for wd in [0.0, 0.5] {
            let mut used = Sgd::new(0.1, 0.9, wd);
            // Leave a non-zero velocity behind, then forget it.
            step_from(&mut used, &[1.0, -2.0, 0.5, 3.0], &[0.7, -1.1]);
            used.reset_velocity();
            let ((mut p, g), reused) = step_from(&mut used, &x, &dy);
            assert_eq!(g[0].to_bits(), (-0.0f32).to_bits(), "dW[0] must be -0.0");
            let (_, fresh) = step_from(&mut Sgd::new(0.1, 0.9, wd), &x, &dy);
            assert_eq!(bits(&reused), bits(&fresh), "new optimizer, wd={wd}");
            let accumulated: Vec<f32> = g.iter().map(|&d| 0.0 + d).collect();
            let mut v = vec![0.0; p.len()];
            kernels::sgd_momentum_step(0.1, 0.9, wd, &mut p, &mut v, &accumulated);
            assert_eq!(bits(&reused), bits(&p), "zeroed accumulation, wd={wd}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_lr_rejected() {
        Sgd::new(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_momentum_rejected() {
        Sgd::new(0.1, 1.0, 0.0);
    }
}
