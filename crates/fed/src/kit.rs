//! What a worker lends a client for the length of its turn.
//!
//! **State that does not survive the round is not per-client.** A model's
//! scratch arena is dead the moment its forward or backward returns, and
//! the optimizer's moment vectors are dead whenever the client's next turn
//! starts with a `reset()` — so neither is held by the 128 clients of a
//! large federation between rounds. A [`Kit`] holds one of each; the run
//! owns a [`Pool`] of kits ([`crate::Simulation::kits`]), reached through
//! [`crate::RoundCtx::kits`], and a worker checks one out per client turn.
//! At most one kit per concurrently running worker exists, grown to the
//! largest client it has served.
//!
//! What a turn does with the client's own moments is a [`Moments`]: a turn
//! that starts with a `reset()` trains on the kit's; a turn that does not,
//! but after which the client will start from a broadcast, trains on the
//! client's own and frees them as it ends; any other turn leaves them with
//! the client.
//!
//! Which kit a worker draws, and which client it served last, cannot reach
//! a result bit: [`Workspace::take`] zero-fills every buffer it hands out,
//! and an optimizer re-zeroes its moment vectors at its first step after
//! `reset()`.
//!
//! A context without a pool ([`crate::RoundCtx::plain`], a caller driving
//! `Client::train_local` by hand) lends nothing: model and optimizer then
//! use their own, initially empty, arena and state ([`Moments::Drop`]
//! still frees the moments at the end of the turn).

use crate::client::Client;
use fedgta_nn::{OptState, Workspace};
use std::sync::Mutex;

/// A checkout pool of per-worker scratch: [`Pool::take`] pops an instance
/// or starts an empty one, [`Pool::give`] pushes it back. The lock is held
/// only to pop, push or count — never across the computation — so no code
/// that can panic runs under it.
#[derive(Debug, Default)]
pub struct Pool<T>(Mutex<Vec<T>>);

impl<T: Default> Pool<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        self.0.lock().expect("scratch pool poisoned")
    }

    /// Checks an instance out.
    pub fn take(&self) -> T {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns an instance.
    pub fn give(&self, instance: T) {
        self.lock().push(instance);
    }

    /// `(instances, Σ bytes(instance))` of what the pool holds between
    /// checkouts.
    pub fn held(&self, bytes: impl Fn(&T) -> usize) -> (usize, usize) {
        let pool = self.lock();
        (pool.len(), pool.iter().map(bytes).sum())
    }
}

/// One worker's training scratch (see the module docs).
#[derive(Debug, Default)]
pub struct Kit {
    /// The arena a client's model runs through during its turn.
    pub ws: Workspace,
    /// The moment vectors a client's optimizer trains on after a reset.
    pub opt: OptState,
}

impl Kit {
    /// Heap bytes the kit retains.
    pub fn bytes(&self) -> usize {
        self.ws.bytes() + self.opt.bytes()
    }
}

/// What a turn does with the client's own optimizer moments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Moments {
    /// Nothing resets them before the client's next turn: it trains on
    /// them and keeps them.
    Keep,
    /// The turn starts with a `reset()`: the client trains on the kit's
    /// vectors, and its own — dead already — are freed.
    Lend,
    /// The turn does not start with a `reset()`, but the client's next
    /// one does: it trains on its own moments, which are freed as the turn
    /// ends.
    Drop,
}

/// Runs `f` on `c` with a kit checked out of `kits` for the call: its
/// arena lent to the model and, under [`Moments::Lend`], its moment
/// vectors to the optimizer. `kits: None` lends nothing; [`Moments::Drop`]
/// frees the client's moments after `f` either way.
pub(crate) fn lend<R>(
    kits: Option<&Pool<Kit>>,
    c: &mut Client,
    moments: Moments,
    f: impl FnOnce(&mut Client) -> R,
) -> R {
    let lent = moments == Moments::Lend;
    let out = match kits {
        None => f(c),
        Some(pool) => {
            let mut kit = pool.take();
            c.model.swap_workspace(&mut kit.ws);
            if lent {
                c.opt.swap_state(&mut kit.opt);
                kit.opt = OptState::default();
            }
            let out = f(c);
            c.model.swap_workspace(&mut kit.ws);
            if lent {
                c.opt.swap_state(&mut kit.opt);
            }
            pool.give(kit);
            out
        }
    };
    if moments == Moments::Drop {
        c.opt.swap_state(&mut OptState::default());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_hands_back_what_it_was_given_and_starts_empty() {
        let pool: Pool<Vec<f32>> = Pool::default();
        assert_eq!(pool.held(Vec::capacity), (0, 0));
        let mut v = pool.take();
        assert!(v.is_empty());
        v.reserve_exact(8);
        let ptr = v.as_ptr();
        pool.give(v);
        assert_eq!(pool.held(Vec::capacity), (1, 8));
        let again = pool.take();
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(pool.held(Vec::capacity).0, 0);
    }
}
