//! Property tests pinning the workspace training path to the allocating one.
//!
//! The `forward_in` / `backward_in` methods reuse buffers batch after batch;
//! these tests drive ONE workspace across randomly shaped models and batches
//! and assert the results stay bit-identical to fresh allocating calls — the
//! failure mode they guard against is stale workspace state (a buffer kept
//! from a previous, differently-shaped batch) leaking into a later pass.

use fl_nn::activation::Relu;
use fl_nn::linear::Linear;
use fl_nn::model::logistic_regression;
use fl_nn::{mlp, Sequential, Sgd, SoftmaxCrossEntropy, Workspace};
use fl_tensor::rng::Xoshiro256;
use fl_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn build_model(arch: u8, input_dim: usize, classes: usize, seed: u64) -> Sequential {
    let mut rng = Xoshiro256::new(seed);
    match arch % 4 {
        0 => logistic_regression(input_dim, classes, &mut rng),
        1 => mlp(input_dim, &[9], classes, &mut rng),
        2 => mlp(input_dim, &[7, 5], classes, &mut rng),
        // A first layer without a `backward_params_in` override.
        _ => Sequential::new()
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new(input_dim, classes, &mut rng))),
    }
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape().dims(), b.shape().dims(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One reused workspace over a sequence of random (model, batch) pairs
    /// computes the same logits and input gradients as the allocating
    /// wrappers with fresh per-model state.
    #[test]
    fn reused_workspace_matches_allocating_paths(
        seed in 0u64..1_000_000,
        steps in collection::vec((0u8..4, 1usize..6, 2usize..7), 2..6),
    ) {
        let mut ws = Workspace::new(); // deliberately shared across everything
        let classes = 3usize;
        for (i, &(arch, batch, input_dim)) in steps.iter().enumerate() {
            let model_seed = seed.wrapping_add(i as u64);
            let mut reference = build_model(arch, input_dim, classes, model_seed);
            let mut subject = build_model(arch, input_dim, classes, model_seed);
            let mut data_rng = Xoshiro256::new(model_seed ^ 0x9e37);
            let x = Tensor::rand_normal(Shape::matrix(batch, input_dim), 0.0, 1.0, &mut data_rng);
            let g = Tensor::rand_normal(Shape::matrix(batch, classes), 0.0, 1.0, &mut data_rng);

            let ref_logits = reference.forward(&x);
            let ref_dx = reference.backward(&g);

            let logits = subject.forward_in(&x, &mut ws).clone();
            assert_bits_eq(&logits, &ref_logits, "forward");
            let dx = subject.backward_in(&g, &mut ws).clone();
            assert_bits_eq(&dx, &ref_dx, "backward");
            for (sg, rg) in subject.grads().iter().zip(reference.grads().iter()) {
                assert_bits_eq(sg, rg, "param grads");
            }
        }
    }

    /// A full multi-step SGD training loop through the workspace path lands
    /// on bit-identical parameters to the allocating path, including with
    /// momentum and weight decay.
    #[test]
    fn training_loop_bitwise_equivalent(
        seed in 0u64..1_000_000,
        arch in 0u8..4,
        batch in 1usize..6,
        momentum_sel in 0u8..2,
        n_steps in 1usize..5,
    ) {
        let classes = 3usize;
        let input_dim = 5;
        let mut reference = build_model(arch, input_dim, classes, seed);
        let mut subject = build_model(arch, input_dim, classes, seed);
        let mu = if momentum_sel == 1 { 0.9 } else { 0.0 };
        let mut ref_opt = Sgd::new(0.05, mu, 1e-3);
        let mut sub_opt = Sgd::new(0.05, mu, 1e-3);
        let mut ref_loss = SoftmaxCrossEntropy::new();
        let mut sub_loss = SoftmaxCrossEntropy::new();
        let mut ws = Workspace::new();
        let mut grad = Tensor::empty();
        let mut data_rng = Xoshiro256::new(seed ^ 0xabcd);
        for step in 0..n_steps {
            let x = Tensor::rand_normal(Shape::matrix(batch, input_dim), 0.0, 1.0, &mut data_rng);
            let labels: Vec<usize> = (0..batch).map(|i| (i + step) % classes).collect();

            reference.zero_grad();
            let ref_logits = reference.forward(&x);
            let ref_l = ref_loss.forward(&ref_logits, &labels);
            let ref_g = ref_loss.backward();
            reference.backward(&ref_g);
            ref_opt.step(&mut reference);

            subject.zero_grad();
            let logits = subject.forward_in(&x, &mut ws);
            let sub_l = sub_loss.forward(logits, &labels);
            sub_loss.backward_in(&mut grad);
            subject.backward_in(&grad, &mut ws);
            sub_opt.step(&mut subject);

            assert_eq!(sub_l.to_bits(), ref_l.to_bits(), "loss diverged at step {step}");
            for (sp, rp) in subject.params().iter().zip(reference.params().iter()) {
                assert_bits_eq(sp, rp, "params after step");
            }
        }
    }

    /// The params-only backward of a training step writes every parameter
    /// gradient bit-identically to the full backward — where the
    /// first layer overrides it (`Linear`, alone or under a stack) and where
    /// it falls back to the default (`Relu → Linear` starts with `Relu`).
    #[test]
    fn params_only_backward_matches_full_backward(
        seed in 0u64..1_000_000,
        arch in 0u8..4,
        batch in 1usize..9,
        steps in 1usize..4,
    ) {
        let classes = 3usize;
        let input_dim = 6;
        let mut full = build_model(arch, input_dim, classes, seed);
        let mut params_only = build_model(arch, input_dim, classes, seed);
        let (mut full_ws, mut ws) = (Workspace::new(), Workspace::new());
        let mut data_rng = Xoshiro256::new(seed ^ 0x51ed);
        // No zero_grad between steps: the comparison also covers gradients
        // written over non-zero buffers.
        for _ in 0..steps {
            let x = Tensor::rand_normal(Shape::matrix(batch, input_dim), 0.0, 1.0, &mut data_rng);
            let g = Tensor::rand_normal(Shape::matrix(batch, classes), 0.0, 1.0, &mut data_rng);
            full.forward_in(&x, &mut full_ws);
            full.backward_in(&g, &mut full_ws);
            params_only.forward_in(&x, &mut ws);
            params_only.backward_params_in(&g, &mut ws);
            for (pg, fg) in params_only.grads().iter().zip(full.grads().iter()) {
                assert_bits_eq(pg, fg, "param grads");
            }
        }
    }
}
