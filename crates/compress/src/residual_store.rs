//! A sharded, population-scale store for client error-feedback residuals.
//!
//! Error feedback is the only per-client codec state that must persist across
//! rounds: everything else in a client (model view, data shard, codec
//! instance) is rebuilt deterministically when the client is selected. Keeping
//! residuals *outside* the codec instances is what makes client
//! virtualization possible — a population of 10^6 clients holds residual
//! vectors only for clients that have actually been selected under an
//! error-feedback spec and dropped mass, not for everyone.
//!
//! The store maps `client id → ResidualState` across a fixed number of
//! mutex-guarded shards so concurrent round workers checking clients in and
//! out rarely contend. Trivial (all-zero) snapshots are dropped on `put`, so
//! populations running stateless codecs cost nothing here.
//!
//! A snapshot is handed back exactly as it was parked. That stays right
//! across an adaptive plan change: `layer-bcrs` gives every segment an
//! `ef-…` codec of one residual part, whatever its bit width, so the part
//! layout a snapshot was taken under is the one it is restored into.

use crate::codec::ResidualState;
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of independently locked shards. A power of two so the shard index
/// is a cheap mask; 64 is far beyond any realistic worker count.
const SHARDS: usize = 64;

/// Sharded map from client id to that client's persisted error-feedback
/// [`ResidualState`].
///
/// The round engine takes a client's residual out when the client is checked
/// out for local training (restoring it into the freshly built codec) and
/// puts the updated residual back at check-in. Clients that were never
/// selected, or whose codecs are stateless, occupy no memory.
///
/// ```
/// use fl_compress::{ResidualState, ResidualStore};
///
/// let store = ResidualStore::new();
/// store.put(42, ResidualState { parts: vec![vec![0.5, -0.25]] });
/// assert_eq!(store.len(), 1);
/// let back = store.take(42).expect("persisted");
/// assert_eq!(back.parts[0], vec![0.5, -0.25]);
/// assert!(store.is_empty(), "take removes the entry");
/// ```
pub struct ResidualStore {
    shards: Vec<Mutex<HashMap<u64, Entry>>>,
}

/// One stored residual.
struct Entry {
    state: ResidualState,
    /// Sum of squares of `state`, filled in by the first
    /// [`ResidualStore::total_norm`] that sees the entry: a parked residual
    /// is scanned at most once, and a store nobody asks pays nothing.
    norm_sq: Option<f64>,
}

impl ResidualStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, client_id: u64) -> &Mutex<HashMap<u64, Entry>> {
        // Spread sequential ids across shards (they arrive as 0..N).
        let mixed = client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 58) as usize & (SHARDS - 1)]
    }

    /// Remove and return `client_id`'s residual, if one is stored.
    pub fn take(&self, client_id: u64) -> Option<ResidualState> {
        self.shard(client_id)
            .lock()
            .expect("residual store shard poisoned")
            .remove(&client_id)
            .map(|e| e.state)
    }

    /// Persist `client_id`'s residual. All-zero (trivial) states are dropped
    /// instead of stored — they restore identically to a fresh codec — so the
    /// store only grows with clients that have real carried-over mass.
    pub fn put(&self, client_id: u64, state: ResidualState) {
        if state.is_trivial() {
            return;
        }
        self.shard(client_id)
            .lock()
            .expect("residual store shard poisoned")
            .insert(
                client_id,
                Entry {
                    state,
                    norm_sq: None,
                },
            );
    }

    /// Number of clients with a stored residual.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("residual store shard poisoned").len())
            .sum()
    }

    /// True when no client has a stored residual.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The L2 norm over every stored residual scalar — a cheap global
    /// health metric (how much dropped mass the population is carrying).
    ///
    /// Each entry's squared norm is computed once and kept until the entry
    /// is replaced, so a call costs one scan of the residuals parked since
    /// the previous call, not of the whole store. The per-client terms are
    /// summed in ascending client id: the result is a function of the
    /// store's contents alone, not of insertion or hash-iteration order.
    pub fn total_norm(&self) -> f64 {
        let mut terms: Vec<(u64, f64)> = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("residual store shard poisoned");
            terms.extend(
                shard
                    .iter_mut()
                    .map(|(&id, e)| (id, *e.norm_sq.get_or_insert_with(|| e.state.norm_sq()))),
            );
        }
        terms.sort_unstable_by_key(|&(id, _)| id);
        terms.iter().map(|&(_, t)| t).sum::<f64>().sqrt()
    }
}

impl Default for ResidualStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(vals: &[f32]) -> ResidualState {
        ResidualState {
            parts: vec![vals.to_vec()],
        }
    }

    #[test]
    fn take_of_missing_client_is_none() {
        let store = ResidualStore::new();
        assert!(store.take(7).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn put_then_take_roundtrips_and_removes() {
        let store = ResidualStore::new();
        store.put(3, state(&[1.0, -2.0]));
        store.put(900_000, state(&[0.5]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.take(3).unwrap(), state(&[1.0, -2.0]));
        assert_eq!(store.len(), 1);
        assert!(store.take(3).is_none(), "take removes");
        assert_eq!(store.take(900_000).unwrap(), state(&[0.5]));
        assert!(store.is_empty());
    }

    #[test]
    fn trivial_states_are_not_stored() {
        let store = ResidualStore::new();
        store.put(1, ResidualState::empty());
        store.put(2, state(&[0.0, 0.0, 0.0]));
        assert!(store.is_empty());
    }

    #[test]
    fn total_norm_accumulates_across_clients() {
        let store = ResidualStore::new();
        store.put(1, state(&[3.0]));
        store.put(2, state(&[4.0]));
        assert!((store.total_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn total_norm_does_not_depend_on_fill_order() {
        // Magnitudes spread over many orders so that a different summation
        // order would round differently.
        let clients: Vec<(u64, Vec<f32>)> = (0..300u64)
            .map(|id| {
                let scale = 10f32.powi((id % 13) as i32 - 6);
                (id * 7919 % 1000, vec![scale * (id as f32 + 0.37), -scale])
            })
            .collect();
        let forward = ResidualStore::new();
        for (id, vals) in &clients {
            forward.put(*id, state(vals));
        }
        let backward = ResidualStore::new();
        for (id, vals) in clients.iter().rev() {
            backward.put(*id, state(vals));
        }
        assert_eq!(forward.len(), backward.len());
        let norm = forward.total_norm();
        assert!(norm > 0.0);
        assert_eq!(norm.to_bits(), backward.total_norm().to_bits());
        // Cached terms: asking again, and after replacing an entry, stays
        // consistent with a store built directly in the final state.
        assert_eq!(norm.to_bits(), forward.total_norm().to_bits());
        forward.put(clients[0].0, state(&[9.0, 9.0]));
        backward.take(clients[0].0);
        backward.put(clients[0].0, state(&[9.0, 9.0]));
        assert_eq!(
            forward.total_norm().to_bits(),
            backward.total_norm().to_bits()
        );
        assert_ne!(forward.total_norm().to_bits(), norm.to_bits());
    }

    #[test]
    fn concurrent_puts_and_takes_are_safe() {
        let store = ResidualStore::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let id = t * 1000 + i;
                        store.put(id, state(&[id as f32 + 1.0]));
                        assert_eq!(store.take(id).unwrap(), state(&[id as f32 + 1.0]));
                    }
                });
            }
        });
        assert!(store.is_empty());
    }
}
