//! Property tests pinning a reused workspace to fresh ones.
//!
//! The `forward_in` / `backward_in` methods reuse buffers batch after batch;
//! these tests drive ONE workspace across randomly shaped models and batches
//! and assert the results stay bit-identical to passes through a fresh
//! `Workspace::new()` each — the failure mode they guard against is stale
//! workspace state (a buffer kept from a previous, differently-shaped batch)
//! leaking into a later pass.

use fl_nn::{mlp, Sequential, Sgd, SoftmaxCrossEntropy, Workspace};
use fl_tensor::rng::{Rng, Xoshiro256};
use fl_tensor::{Shape, Tensor};

/// Cases per property.
const CASES: usize = 24;

fn build_model(arch: u8, input_dim: usize, classes: usize, seed: u64) -> Sequential {
    let mut rng = Xoshiro256::new(seed);
    let hidden: &[usize] = match arch {
        0 => &[],
        1 => &[9],
        _ => &[7, 5],
    };
    mlp(input_dim, hidden, classes, &mut rng)
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

/// One reused workspace over a sequence of random (model, batch) pairs
/// computes the same logits and input gradients as a fresh workspace per
/// forward/backward pair.
#[test]
fn reused_workspace_matches_fresh_workspaces() {
    let mut rng = Xoshiro256::new(1);
    for _ in 0..CASES {
        let seed = rng.next_below(1_000_000) as u64;
        let steps: Vec<(u8, usize, usize)> = (0..rng.next_range(2, 6))
            .map(|_| {
                (
                    rng.next_below(3) as u8,
                    rng.next_range(1, 6),
                    rng.next_range(2, 7),
                )
            })
            .collect();
        let mut ws = Workspace::new(); // deliberately shared across everything
        let classes = 3usize;
        for (i, &(arch, batch, input_dim)) in steps.iter().enumerate() {
            let model_seed = seed.wrapping_add(i as u64);
            let mut reference = build_model(arch, input_dim, classes, model_seed);
            let mut subject = build_model(arch, input_dim, classes, model_seed);
            let mut data_rng = Xoshiro256::new(model_seed ^ 0x9e37);
            let x = Tensor::rand_normal(Shape::matrix(batch, input_dim), 0.0, 1.0, &mut data_rng);
            let g = Tensor::rand_normal(Shape::matrix(batch, classes), 0.0, 1.0, &mut data_rng);

            let mut fresh = Workspace::new();
            let ref_logits = reference.forward_in(&x, &mut fresh).clone();
            let ref_dx = reference.backward_in(&g, &mut fresh).clone();

            let logits = subject.forward_in(&x, &mut ws).clone();
            assert_bits_eq(&logits, &ref_logits, "forward");
            let dx = subject.backward_in(&g, &mut ws).clone();
            assert_bits_eq(&dx, &ref_dx, "backward");
            for (sg, rg) in subject.grads().iter().zip(reference.grads().iter()) {
                assert_bits_eq(sg, rg, "param grads");
            }
        }
    }
}

/// A full multi-step SGD training loop through one reused workspace lands on
/// bit-identical parameters to one through a fresh workspace per step,
/// including with momentum and weight decay.
#[test]
fn training_loop_bitwise_equivalent() {
    let mut rng = Xoshiro256::new(2);
    for _ in 0..CASES {
        let seed = rng.next_below(1_000_000) as u64;
        let arch = rng.next_below(3) as u8;
        let batch = rng.next_range(1, 6);
        let mu = if rng.next_bool(0.5) { 0.9 } else { 0.0 };
        let n_steps = rng.next_range(1, 5);
        let classes = 3usize;
        let input_dim = 5;
        let mut reference = build_model(arch, input_dim, classes, seed);
        let mut subject = build_model(arch, input_dim, classes, seed);
        let mut ref_opt = Sgd::new(0.05, mu, 1e-3);
        let mut sub_opt = Sgd::new(0.05, mu, 1e-3);
        let mut ref_loss = SoftmaxCrossEntropy::new();
        let mut sub_loss = SoftmaxCrossEntropy::new();
        let mut ws = Workspace::new();
        let (mut grad, mut ref_g) = (Tensor::empty(), Tensor::empty());
        let mut data_rng = Xoshiro256::new(seed ^ 0xabcd);
        for step in 0..n_steps {
            let x = Tensor::rand_normal(Shape::matrix(batch, input_dim), 0.0, 1.0, &mut data_rng);
            let labels: Vec<usize> = (0..batch).map(|i| (i + step) % classes).collect();

            let mut fresh = Workspace::new();
            let ref_l = ref_loss.forward(reference.forward_in(&x, &mut fresh), &labels);
            ref_loss.backward_in(&mut ref_g);
            reference.backward_in(&ref_g, &mut fresh);
            ref_opt.step(&mut reference);

            let logits = subject.forward_in(&x, &mut ws);
            let sub_l = sub_loss.forward(logits, &labels);
            sub_loss.backward_in(&mut grad);
            subject.backward_in(&grad, &mut ws);
            sub_opt.step(&mut subject);

            assert_eq!(
                sub_l.to_bits(),
                ref_l.to_bits(),
                "loss diverged at step {step}"
            );
            for (sp, rp) in subject.params().iter().zip(reference.params().iter()) {
                assert_bits_eq(sp, rp, "params after step");
            }
        }
    }
}

/// The params-only backward of a training step writes every parameter
/// gradient bit-identically to the full backward, for a single layer and
/// under one or two hidden ReLU layers.
#[test]
fn params_only_backward_matches_full_backward() {
    let mut rng = Xoshiro256::new(3);
    for _ in 0..CASES {
        let seed = rng.next_below(1_000_000) as u64;
        let arch = rng.next_below(3) as u8;
        let batch = rng.next_range(1, 9);
        let steps = rng.next_range(1, 4);
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
