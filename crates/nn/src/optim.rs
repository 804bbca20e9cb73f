//! Optimizers over flat parameter buffers.
//!
//! Models in this crate keep every parameter in one contiguous `Vec<f32>`,
//! so optimizers are simple elementwise loops — and federated strategies
//! can treat a model as an opaque flat vector.

/// A first-order optimizer stepping a flat parameter buffer.
pub trait Optimizer: Send {
    /// Applies one update: `params -= f(grads)`.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);
    /// Clears internal state (momentum/moment estimates). Called when the
    /// server replaces a client's parameters wholesale.
    fn reset(&mut self);
    /// The configured learning rate.
    fn learning_rate(&self) -> f32;
    /// Exchanges the moment vectors with `state` (a stateless optimizer
    /// has none: the default does nothing). This is how an optimizer that
    /// is [`reset`](Self::reset) at every start of a turn trains on
    /// vectors lent for the turn instead of keeping its own between
    /// turns: swap, `reset`, train, swap back. The first step after a
    /// `reset` re-zeroes whatever vectors it finds, so their contents and
    /// their previous borrower cannot reach a result.
    fn swap_state(&mut self, _state: &mut OptState) {}
    /// Heap bytes the moment vectors retain (a stateless optimizer: 0).
    fn state_bytes(&self) -> usize {
        0
    }
}

/// An optimizer's moment vectors apart from its hyper-parameters: Adam's
/// `m` and `v`, momentum SGD's velocity (`second` stays empty).
#[derive(Debug, Default)]
pub struct OptState {
    /// First-moment estimate / velocity.
    pub first: Vec<f32>,
    /// Second-moment estimate.
    pub second: Vec<f32>,
}

impl OptState {
    /// Heap bytes the vectors retain (capacities).
    pub fn bytes(&self) -> usize {
        (self.first.capacity() + self.second.capacity()) * std::mem::size_of::<f32>()
    }
}

/// Sizes a state vector to `n` zeros inside the capacity it already has.
/// `reset` leaves the vectors empty but allocated, so an optimizer that is
/// reset at every start of a turn (the executor resets on every broadcast)
/// re-zeroes resident memory — its own, or the vectors a worker lends it —
/// instead of `calloc`ing, and page-faulting in, fresh moment vectors for
/// its first step of the round.
fn rezero(state: &mut Vec<f32>, n: usize) {
    state.clear();
    state.resize(n, 0.0);
}

/// SGD with optional momentum and weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= self.lr * (g + self.weight_decay * *p);
            }
            return;
        }
        if self.velocity.len() != params.len() {
            rezero(&mut self.velocity, params.len());
        }
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            let g = g + self.weight_decay * *p;
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn swap_state(&mut self, state: &mut OptState) {
        std::mem::swap(&mut self.velocity, &mut state.first);
    }

    fn state_bytes(&self) -> usize {
        self.velocity.capacity() * std::mem::size_of::<f32>()
    }
}

/// Adam (Kingma & Ba 2015) with decoupled-ish L2 (added to the gradient,
/// as in the original paper).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate η.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability ε.
    pub eps: f32,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        if self.m.len() != params.len() {
            rezero(&mut self.m, params.len());
            rezero(&mut self.v, params.len());
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i] + self.weight_decay * params[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn swap_state(&mut self, state: &mut OptState) {
        std::mem::swap(&mut self.m, &mut state.first);
        std::mem::swap(&mut self.v, &mut state.second);
    }

    fn state_bytes(&self) -> usize {
        (self.m.capacity() + self.v.capacity()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = x² with gradient 2x should converge toward 0.
    fn run<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut p = vec![5.0f32];
        for _ in 0..steps {
            let g = vec![2.0 * p[0]];
            opt.step(&mut p, &g);
        }
        p[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut o = Sgd::new(0.1, 0.0, 0.0);
        assert!(run(&mut o, 100).abs() < 1e-4);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut o = Sgd::new(0.05, 0.9, 0.0);
        assert!(run(&mut o, 200).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut o = Adam::new(0.2, 0.0);
        assert!(run(&mut o, 300).abs() < 1e-2);
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut o = Sgd::new(0.1, 0.0, 0.5);
        let mut p = vec![1.0f32];
        o.step(&mut p, &[0.0]);
        assert!((p[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_momentum() {
        let mut o = Sgd::new(0.1, 0.9, 0.0);
        let mut p = vec![1.0f32];
        o.step(&mut p, &[1.0]);
        o.reset();
        let before = p[0];
        o.step(&mut p, &[0.0]);
        // No velocity carry-over: zero grad means no movement.
        assert_eq!(p[0], before);
    }

    /// A reset optimizer's next step equals a fresh optimizer's first step
    /// bit for bit, and the state vectors stay where they were.
    fn reset_then_step_matches_fresh<O: Optimizer>(
        fresh: impl Fn() -> O,
        state_ptrs: impl Fn(&O) -> Vec<*const f32>,
    ) {
        let n = 1000;
        let grads = |k: usize| -> Vec<f32> {
            (0..n)
                .map(|i| ((i * 31 + k * 17) % 23) as f32 / 11.0 - 1.0)
                .collect()
        };
        let start: Vec<f32> = (0..n).map(|i| (i % 13) as f32 / 6.0 - 1.0).collect();

        let mut used = fresh();
        let mut p = start.clone();
        for k in 0..3 {
            used.step(&mut p, &grads(k));
        }
        let before = state_ptrs(&used);
        used.reset();
        let mut after_reset = start.clone();
        used.step(&mut after_reset, &grads(7));
        assert_eq!(state_ptrs(&used), before, "reset moved the state buffers");

        let mut first = start.clone();
        fresh().step(&mut first, &grads(7));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after_reset), bits(&first));
    }

    #[test]
    fn adam_reset_then_step_is_a_fresh_first_step_in_place() {
        reset_then_step_matches_fresh(
            || Adam::new(0.02, 5e-4),
            |o| vec![o.m.as_ptr(), o.v.as_ptr()],
        );
    }

    #[test]
    fn momentum_sgd_reset_then_step_is_a_fresh_first_step_in_place() {
        reset_then_step_matches_fresh(|| Sgd::new(0.05, 0.9, 5e-4), |o| vec![o.velocity.as_ptr()]);
    }

    #[test]
    fn adam_state_resizes_with_param_length() {
        let mut o = Adam::new(0.1, 0.0);
        let mut p = vec![1.0f32; 2];
        o.step(&mut p, &[0.1, 0.1]);
        let mut q = vec![1.0f32; 3];
        o.step(&mut q, &[0.1, 0.1, 0.1]); // must not panic
    }
}
