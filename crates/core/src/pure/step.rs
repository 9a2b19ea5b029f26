//! [`replay`]: journal → final state + metrics, folding [`step`] over
//! the recorded commands.

use super::command::Journal;
use super::ops::step;
use super::state::KernelState;
use crate::metrics::Metrics;

/// Replays a recorded journal against an initial state, folding every
/// command through [`step`] (errors included — the journal records
/// attempts, and attempts mutate) and absorbing effects into a fresh
/// [`Metrics`]. Returns the final state and the reconstructed metrics.
///
/// Starting from the same initial state a live run started from (same
/// cost model and policy, before any command), the returned state
/// digests to the live run's [`KernelState::state_hash`] and the
/// metrics match its shell's — that equivalence is the point.
pub fn replay(initial: KernelState, journal: &Journal) -> (KernelState, Metrics) {
    let mut state = initial;
    let mut metrics = Metrics::new();
    let mut fx = Vec::new();
    for cmd in journal.commands() {
        fx.clear();
        let _ = step(&mut state, cmd, &mut fx);
        for e in &fx {
            metrics.absorb(e);
        }
    }
    (state, metrics)
}
