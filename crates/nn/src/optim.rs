//! The optimizer: Adam, the paper's choice.

use crate::layer::Param;

/// Gradient-descent optimizer over an ordered parameter list.
///
/// Implementations key their internal state on parameter *order*, so the
/// caller must pass the same parameter set in the same order on every step
/// (which the static DDNN graph guarantees).
pub trait Optimizer {
    /// Applies one update step using each parameter's accumulated gradient,
    /// then applies the parameter's clip range if present.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters changes between steps.
    fn step(&mut self, params: &mut [&mut Param]);
}

fn apply_clip(p: &mut Param) {
    if let Some((lo, hi)) = p.clip {
        p.value.map_in_place(|x| x.clamp(lo, hi));
    }
}

/// Adam optimizer (Kingma & Ba), configured by default with the paper's
/// hyper-parameters: α=0.001, β₁=0.9, β₂=0.999, ε=1e-8 (paper §IV-A).
#[derive(Debug)]
pub struct Adam {
    /// Step size α.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability term ε.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the paper's hyper-parameters.
    pub fn new() -> Self {
        Adam::with_lr(0.001)
    }

    /// Creates Adam with a custom learning rate (other hyper-parameters as
    /// in the paper).
    pub fn with_lr(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new()
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter set changed between steps");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((x, &g), mi), vi) in
                p.value.data_mut().iter_mut().zip(p.grad.data()).zip(m.iter_mut()).zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *x -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            apply_clip(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddnn_tensor::Tensor;

    fn quadratic_grad(p: &mut Param) {
        // Loss = ½‖x‖² -> grad = x.
        p.grad = p.value.clone();
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut p = Param::new("x", Tensor::from_vec(vec![5.0, -5.0], [2]).unwrap());
        let mut opt = Adam::with_lr(0.05);
        for _ in 0..2000 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.norm_sq() < 1e-4, "{:?}", p.value);
    }

    #[test]
    fn adam_paper_hyperparams() {
        let a = Adam::new();
        assert_eq!(a.lr, 0.001);
        assert_eq!(a.beta1, 0.9);
        assert_eq!(a.beta2, 0.999);
        assert_eq!(a.eps, 1e-8);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut p = Param::new("x", Tensor::from_vec(vec![0.0], [1]).unwrap());
        p.grad = Tensor::from_vec(vec![0.5], [1]).unwrap();
        let mut opt = Adam::with_lr(0.001);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] + 0.001).abs() < 1e-6);
    }

    #[test]
    fn clip_is_applied_after_step() {
        let mut p = Param::with_clip("w", Tensor::from_vec(vec![0.99], [1]).unwrap(), -1.0, 1.0);
        p.grad = Tensor::from_vec(vec![-100.0], [1]).unwrap();
        let mut opt = Adam::with_lr(1.0); // the first step moves by lr
        opt.step(&mut [&mut p]);
        assert_eq!(p.value.data()[0], 1.0);
    }

    #[test]
    fn steps_remain_finite_with_zero_grad() {
        let mut p = Param::new("x", Tensor::ones([4]));
        let mut opt = Adam::new();
        for _ in 0..10 {
            p.zero_grad();
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.all_finite());
    }

    #[test]
    #[should_panic(expected = "parameter set changed")]
    fn changing_param_count_panics() {
        let mut p1 = Param::new("a", Tensor::ones([1]));
        let mut p2 = Param::new("b", Tensor::ones([1]));
        let mut opt = Adam::new();
        opt.step(&mut [&mut p1]);
        opt.step(&mut [&mut p1, &mut p2]);
    }
}
