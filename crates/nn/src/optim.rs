//! Stochastic gradient descent with optional momentum and weight decay.

use crate::model::Sequential;
use fl_tensor::{kernels, Tensor};

/// Plain SGD: `p <- p - lr * (g + wd * p)` with optional classical momentum.
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

    /// Replace the learning rate (e.g. for decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
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
    /// Allocation-free: parameters and gradients are visited in place (no
    /// gradient clones) and the update runs through the fused
    /// [`fl_tensor::kernels`] loops; the velocity buffers are allocated once
    /// on the first momentum step and reused afterwards.
    pub fn step(&mut self, model: &mut Sequential) {
        if self.momentum > 0.0 && self.velocity.is_empty() {
            let velocity = &mut self.velocity;
            model.visit_params_and_grads(&mut |p, _g| {
                velocity.push(Tensor::zeros(p.shape().clone()));
            });
        }
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        let mut i = 0usize;
        model.visit_params_and_grads(&mut |param, grad| {
            if mu > 0.0 {
                // v <- mu * v + g + wd * p ; p <- p - lr * v
                kernels::sgd_momentum_step(
                    lr,
                    mu,
                    wd,
                    param.data_mut(),
                    velocity[i].data_mut(),
                    grad.data(),
                );
            } else {
                kernels::sgd_step(lr, wd, param.data_mut(), grad.data());
            }
            i += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use fl_tensor::rng::Xoshiro256;
    use fl_tensor::{Shape, Tensor};

    fn one_layer_model() -> Sequential {
        let mut rng = Xoshiro256::new(1);
        Sequential::new().push(Box::new(Linear::new(2, 1, &mut rng)))
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut model = one_layer_model();
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]);
        model.zero_grad();
        let y = model.forward(&x);
        // dL/dy = 1 => dW = x, db = 1
        model.backward(&Tensor::full(y.shape().clone(), 1.0));
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
        model.params_mut()[0].fill(1.0);
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
        model.params_mut()[0].fill(0.0);
        model.params_mut()[1].fill(0.0);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]);

        model.zero_grad();
        let y = model.forward(&x);
        model.backward(&Tensor::full(y.shape().clone(), 1.0));
        opt.step(&mut model);
        let after_one = model.params()[0].data()[0];

        model.zero_grad();
        let y = model.forward(&x);
        model.backward(&Tensor::full(y.shape().clone(), 1.0));
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
                model.zero_grad();
                let y = model.forward(&x);
                model.backward(&Tensor::full(y.shape().clone(), 1.0));
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
            model.params_mut()[0]
                .data_mut()
                .copy_from_slice(&[-0.0, 0.0]);
            model.params_mut()[1].data_mut().copy_from_slice(&[-0.0]);
            model.forward(&Tensor::from_vec(Shape::matrix(2, 2), x.to_vec()));
            model.backward(&Tensor::from_vec(Shape::matrix(2, 1), dy.to_vec()));
            let before = (
                crate::flatten_params(&model),
                crate::params::flatten_grads(&model),
            );
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
    fn set_lr_changes_step_size() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
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
