//! 2-D convolution and pooling layers (im2col based).
//!
//! These layers exist so that the image-shaped synthetic datasets can be
//! trained with a genuinely convolutional model (the paper's backbone is
//! ResNet-18); the default experiment configuration uses the MLP for speed,
//! and [`crate::model::small_cnn`] wires these layers into a compact CNN.

use crate::layer::Layer;
use crate::workspace::LayerWs;
use fl_tensor::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use fl_tensor::rng::Rng;
use fl_tensor::{Shape, Tensor};
use std::fmt;

// Workspace scratch channels.
const WS_COLS: usize = 0; // im2col matrix [b*ho*wo, in_ch*k*k]
const WS_PATCHES: usize = 1; // out_patches / grad_patches [b*ho*wo, out_ch]
const WS_DW: usize = 2; // weight-gradient scratch
const WS_DCOLS: usize = 3; // gradient w.r.t. the im2col matrix
const WS_GBIAS: usize = 4; // bias-gradient scratch
const WS_WT: usize = 5; // `matmul_a_bt_into`'s unused scratch argument (stays empty)

/// Error returned when a convolution kernel does not fit its padded input —
/// the configuration whose naive `h + 2p + 1 - k` output size would wrap
/// below zero in `usize` arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShapeError {
    /// Kernel side length.
    pub kernel: usize,
    /// Input height including both pads.
    pub padded_h: usize,
    /// Input width including both pads.
    pub padded_w: usize,
}

impl fmt::Display for ConvShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {k}x{k} does not fit the padded input {h}x{w}",
            k = self.kernel,
            h = self.padded_h,
            w = self.padded_w
        )
    }
}

impl std::error::Error for ConvShapeError {}

/// 2-D convolution with square kernels, stride 1 and symmetric zero padding.
///
/// Input `[batch, in_ch, h, w]`, output `[batch, out_ch, h_out, w_out]`.
pub struct Conv2d {
    weight: Tensor, // [out_ch, in_ch * k * k]
    bias: Tensor,   // [out_ch]
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    padding: usize,
    fallback: LayerWs,
}

impl Conv2d {
    /// Create a convolution layer with Kaiming-initialised weights.
    pub fn new<R: Rng>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel >= 1, "Conv2d kernel must be at least 1x1");
        let fan_in = in_ch * kernel * kernel;
        Self {
            weight: Tensor::kaiming(Shape::matrix(out_ch, fan_in), fan_in, rng),
            bias: Tensor::zeros(Shape::vector(out_ch)),
            grad_weight: Tensor::zeros(Shape::matrix(out_ch, fan_in)),
            grad_bias: Tensor::zeros(Shape::vector(out_ch)),
            in_ch,
            out_ch,
            kernel,
            padding,
            fallback: LayerWs::new(),
        }
    }

    /// Output spatial size for an `h`×`w` input, or a [`ConvShapeError`] when
    /// the kernel is larger than the padded input (which would otherwise wrap
    /// the `usize` subtraction and request an absurd im2col allocation).
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), ConvShapeError> {
        let padded_h = h + 2 * self.padding;
        let padded_w = w + 2 * self.padding;
        if self.kernel > padded_h || self.kernel > padded_w {
            return Err(ConvShapeError {
                kernel: self.kernel,
                padded_h,
                padded_w,
            });
        }
        Ok((padded_h + 1 - self.kernel, padded_w + 1 - self.kernel))
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.output_hw(h, w)
            .unwrap_or_else(|e| panic!("Conv2d forward: {e}"))
    }

    /// im2col: unfold the padded input into a `[batch*h_out*w_out, in_ch*k*k]`
    /// matrix written into the reusable `cols` tensor.
    fn im2col_into(&self, input: &Tensor, cols: &mut Tensor) {
        let dims = input.shape().dims();
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (ho, wo) = self.out_hw(h, w);
        let k = self.kernel;
        let pad = self.padding as isize;
        let cols_per_patch = c * k * k;
        cols.resize_to(&[b * ho * wo, cols_per_patch]);
        cols.fill(0.0);
        let cd = cols.data_mut();
        let data = input.data();
        for bi in 0..b {
            for oy in 0..ho {
                for ox in 0..wo {
                    let patch_base = ((bi * ho + oy) * wo + ox) * cols_per_patch;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad;
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad;
                                let col_idx = patch_base + (ci * k + ky) * k + kx;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    cd[col_idx] =
                                        data[((bi * c + ci) * h + iy as usize) * w + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// col2im: fold gradients w.r.t. the unfolded matrix back into input
    /// shape, written into the reusable `out` tensor.
    fn col2im_into(&self, cols: &Tensor, b: usize, c: usize, h: usize, w: usize, out: &mut Tensor) {
        let (ho, wo) = self.out_hw(h, w);
        let k = self.kernel;
        let pad = self.padding as isize;
        let cols_per_patch = c * k * k;
        out.resize_to(&[b, c, h, w]);
        out.fill(0.0);
        let od = out.data_mut();
        let cd = cols.data();
        for bi in 0..b {
            for oy in 0..ho {
                for ox in 0..wo {
                    let patch_base = ((bi * ho + oy) * wo + ox) * cols_per_patch;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad;
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    od[((bi * c + ci) * h + iy as usize) * w + ix as usize] +=
                                        cd[patch_base + (ci * k + ky) * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward_in(&self, input: &Tensor, out: &mut Tensor, ws: &mut LayerWs) {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "Conv2d expects [batch, ch, h, w]");
        assert_eq!(dims[1], self.in_ch, "Conv2d: channel mismatch");
        let (b, h, w) = (dims[0], dims[2], dims[3]);
        let (ho, wo) = self.out_hw(h, w);
        ws.set_dims(dims);
        // cols: [b*ho*wo, c*k*k]; out_patches = cols @ W^T: [b*ho*wo, out_ch]
        ws.ensure_bufs(WS_WT + 1);
        {
            let (cols, patches, wt) = ws.buf_triple(WS_COLS, WS_PATCHES, WS_WT);
            self.im2col_into(input, cols);
            matmul_a_bt_into(cols, &self.weight, wt, patches);
        }
        // Rearrange to [b, out_ch, ho, wo] and add bias.
        let pd = ws.bufs[WS_PATCHES].data();
        let bias = self.bias.data();
        out.resize_to(&[b, self.out_ch, ho, wo]);
        let od = out.data_mut();
        for bi in 0..b {
            for oy in 0..ho {
                for ox in 0..wo {
                    let patch = (bi * ho + oy) * wo + ox;
                    for oc in 0..self.out_ch {
                        od[((bi * self.out_ch + oc) * ho + oy) * wo + ox] =
                            pd[patch * self.out_ch + oc] + bias[oc];
                    }
                }
            }
        }
        ws.ready = true;
    }

    fn backward_in(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, ws: &mut LayerWs) {
        assert!(ws.ready, "Conv2d backward called before forward");
        let (b, c, h, w) = (ws.dims[0], ws.dims[1], ws.dims[2], ws.dims[3]);
        let (ho, wo) = self.out_hw(h, w);
        let god = grad_output.data();
        // Rearrange grad_output [b, out_ch, ho, wo] -> [b*ho*wo, out_ch]
        {
            let (patches, gbias) = ws.buf_pair(WS_PATCHES, WS_GBIAS);
            patches.resize_to(&[b * ho * wo, self.out_ch]);
            gbias.resize_to(&[self.out_ch]);
            gbias.fill(0.0);
            let gp = patches.data_mut();
            let gb = gbias.data_mut();
            for bi in 0..b {
                for oc in 0..self.out_ch {
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let v = god[((bi * self.out_ch + oc) * ho + oy) * wo + ox];
                            gp[((bi * ho + oy) * wo + ox) * self.out_ch + oc] = v;
                            gb[oc] += v;
                        }
                    }
                }
            }
        }
        // dW = grad_patches^T @ cols : [out_ch, c*k*k]
        {
            let (patches, cols, dw) = ws.buf_triple(WS_PATCHES, WS_COLS, WS_DW);
            matmul_at_b_into(patches, cols, dw);
        }
        self.grad_weight.add_assign(&ws.bufs[WS_DW]);
        for (g, v) in self
            .grad_bias
            .data_mut()
            .iter_mut()
            .zip(ws.bufs[WS_GBIAS].data().iter())
        {
            *g += *v;
        }
        // dcols = grad_patches @ W : [b*ho*wo, c*k*k]
        {
            let (patches, dcols) = ws.buf_pair(WS_PATCHES, WS_DCOLS);
            matmul_into(patches, &self.weight, dcols);
        }
        self.col2im_into(&ws.bufs[WS_DCOLS], b, c, h, w, grad_input);
    }

    fn fallback_ws(&mut self) -> &mut LayerWs {
        &mut self.fallback
    }

    fn visit_params_and_grads(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.weight, &self.grad_weight);
        f(&mut self.bias, &self.grad_bias);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn param_names(&self) -> Vec<String> {
        vec!["weight".into(), "bias".into()]
    }
}

/// Global average pooling: `[batch, ch, h, w] -> [batch, ch]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    fallback: LayerWs,
}

impl GlobalAvgPool {
    /// New pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward_in(&self, input: &Tensor, out: &mut Tensor, ws: &mut LayerWs) {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "GlobalAvgPool expects [batch, ch, h, w]");
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        ws.set_dims(dims);
        let data = input.data();
        let denom = (h * w) as f32;
        out.resize_to(&[b, c]);
        let od = out.data_mut();
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                od[bi * c + ci] = data[base..base + h * w].iter().sum::<f32>() / denom;
            }
        }
        ws.ready = true;
    }

    fn backward_in(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, ws: &mut LayerWs) {
        assert!(ws.ready, "GlobalAvgPool backward called before forward");
        let (b, c, h, w) = (ws.dims[0], ws.dims[1], ws.dims[2], ws.dims[3]);
        let god = grad_output.data();
        let denom = (h * w) as f32;
        grad_input.resize_to(&[b, c, h, w]);
        let od = grad_input.data_mut();
        for bi in 0..b {
            for ci in 0..c {
                let g = god[bi * c + ci] / denom;
                let base = (bi * c + ci) * h * w;
                od[base..base + h * w].iter_mut().for_each(|x| *x = g);
            }
        }
    }

    fn fallback_ws(&mut self) -> &mut LayerWs {
        &mut self.fallback
    }

    fn visit_params_and_grads(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}

    fn params(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

/// Reshape `[batch, ch, h, w]` activations into `[batch, ch*h*w]` (no parameters).
#[derive(Default)]
pub struct Flatten {
    fallback: LayerWs,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward_in(&self, input: &Tensor, out: &mut Tensor, ws: &mut LayerWs) {
        let dims = input.shape().dims();
        assert!(dims.len() >= 2, "Flatten expects a batched tensor");
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product();
        ws.set_dims(dims);
        out.resize_to(&[batch, rest]);
        out.data_mut().copy_from_slice(input.data());
        ws.ready = true;
    }

    fn backward_in(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, ws: &mut LayerWs) {
        assert!(ws.ready, "Flatten backward called before forward");
        grad_input.resize_to(&ws.dims);
        grad_input.data_mut().copy_from_slice(grad_output.data());
    }

    fn fallback_ws(&mut self) -> &mut LayerWs {
        &mut self.fallback
    }

    fn visit_params_and_grads(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}

    fn params(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

/// Reshape flat `[batch, channels*h*w]` activations into `[batch, channels, h, w]`
/// — the inverse of [`Flatten`], used to feed image-shaped convolutions from a
/// flat-feature dataset.
pub struct Unflatten {
    channels: usize,
    height: usize,
    width: usize,
    fallback: LayerWs,
}

impl Unflatten {
    /// Create an unflatten layer producing `[batch, channels, height, width]`.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        assert!(channels * height * width > 0, "dimensions must be positive");
        Self {
            channels,
            height,
            width,
            fallback: LayerWs::new(),
        }
    }
}

impl Layer for Unflatten {
    fn forward_in(&self, input: &Tensor, out: &mut Tensor, _ws: &mut LayerWs) {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 2, "Unflatten expects [batch, features]");
        assert_eq!(
            dims[1],
            self.channels * self.height * self.width,
            "feature count does not match target shape"
        );
        out.resize_to(&[dims[0], self.channels, self.height, self.width]);
        out.data_mut().copy_from_slice(input.data());
    }

    fn backward_in(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, _ws: &mut LayerWs) {
        let dims = grad_output.shape().dims();
        grad_input.resize_to(&[dims[0], self.channels * self.height * self.width]);
        grad_input.data_mut().copy_from_slice(grad_output.data());
    }

    fn fallback_ws(&mut self) -> &mut LayerWs {
        &mut self.fallback
    }

    fn visit_params_and_grads(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}

    fn params(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Unflatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::rng::Xoshiro256;

    #[test]
    fn unflatten_roundtrip() {
        let mut u = Unflatten::new(2, 4, 4);
        let x = Tensor::zeros(Shape::matrix(3, 32));
        let y = u.forward(&x);
        assert_eq!(y.shape().dims(), &[3, 2, 4, 4]);
        let dx = u.backward(&y);
        assert_eq!(dx.shape().dims(), &[3, 32]);
    }

    #[test]
    #[should_panic]
    fn unflatten_rejects_wrong_feature_count() {
        let mut u = Unflatten::new(3, 4, 4);
        u.forward(&Tensor::zeros(Shape::matrix(1, 32)));
    }

    #[test]
    fn conv_output_shape_with_padding() {
        let mut rng = Xoshiro256::new(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, &mut rng);
        let x = Tensor::zeros(Shape::new(&[2, 3, 8, 8]));
        let y = conv.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_output_shape_no_padding() {
        let mut rng = Xoshiro256::new(1);
        let mut conv = Conv2d::new(1, 4, 3, 0, &mut rng);
        let x = Tensor::zeros(Shape::new(&[1, 1, 5, 5]));
        let y = conv.forward(&x);
        assert_eq!(y.shape().dims(), &[1, 4, 3, 3]);
    }

    #[test]
    fn conv_identity_kernel() {
        // A single 1x1 kernel with weight 1 reproduces the input channel.
        let mut rng = Xoshiro256::new(2);
        let mut conv = Conv2d::new(1, 1, 1, 0, &mut rng);
        conv.params_mut()[0].data_mut()[0] = 1.0;
        conv.params_mut()[1].data_mut()[0] = 0.0;
        let x = Tensor::from_vec(Shape::new(&[1, 1, 2, 2]), vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = Xoshiro256::new(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
        let x = Tensor::rand_normal(Shape::new(&[1, 2, 4, 4]), 0.0, 1.0, &mut rng);
        let y = conv.forward(&x);
        let ones = Tensor::full(y.shape().clone(), 1.0);
        conv.zero_grad();
        conv.forward(&x);
        conv.backward(&ones);
        let analytic = conv.grads()[0].clone();
        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 17] {
            let orig = conv.params()[0].data()[idx];
            conv.params_mut()[0].data_mut()[idx] = orig + eps;
            let lp = conv.forward(&x).sum();
            conv.params_mut()[0].data_mut()[idx] = orig - eps;
            let lm = conv.forward(&x).sum();
            conv.params_mut()[0].data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic.data()[idx] - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "conv grad mismatch at {idx}: {} vs {numeric}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn conv_input_gradient_shape() {
        let mut rng = Xoshiro256::new(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
        let x = Tensor::rand_normal(Shape::new(&[2, 2, 6, 6]), 0.0, 1.0, &mut rng);
        let y = conv.forward(&x);
        let dx = conv.backward(&Tensor::full(y.shape().clone(), 1.0));
        assert_eq!(dx.shape().dims(), x.shape().dims());
    }

    #[test]
    fn global_avg_pool_forward_backward() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            Shape::new(&[1, 2, 2, 2]),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        );
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[2.5, 10.0]);
        let dx = pool.backward(&Tensor::from_slice(&[4.0, 8.0]));
        assert_eq!(dx.shape().dims(), &[1, 2, 2, 2]);
        assert!(dx.data()[..4].iter().all(|&v| v == 1.0));
        assert!(dx.data()[4..].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(Shape::new(&[3, 2, 4, 4]));
        let y = fl.forward(&x);
        assert_eq!(y.shape().dims(), &[3, 32]);
        let dx = fl.backward(&y);
        assert_eq!(dx.shape().dims(), &[3, 2, 4, 4]);
    }

    #[test]
    fn oversized_kernel_reports_shape_error() {
        // Regression: `h + 2p + 1 - k` used to wrap in usize when the kernel
        // exceeded the padded input, requesting an absurd output allocation.
        let mut rng = Xoshiro256::new(5);
        let conv = Conv2d::new(1, 1, 5, 1, &mut rng);
        // Padded input is 4x4 (2 + 2*1), kernel 5 does not fit.
        let err = conv.output_hw(2, 2).unwrap_err();
        assert_eq!(
            err,
            ConvShapeError {
                kernel: 5,
                padded_h: 4,
                padded_w: 4
            }
        );
        assert!(err.to_string().contains("5x5"));
        // The largest input the kernel fits yields a 1x1 output.
        assert_eq!(conv.output_hw(3, 3), Ok((1, 1)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_panics_in_forward() {
        let mut rng = Xoshiro256::new(6);
        let mut conv = Conv2d::new(1, 1, 7, 0, &mut rng);
        conv.forward(&Tensor::zeros(Shape::new(&[1, 1, 4, 4])));
    }
}
