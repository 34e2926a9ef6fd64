//! The simulator: taints everything it calls (rule R1).

use std::collections::HashMap;

/// Detector simulator state.
pub struct Simulator {
    /// Per-flow byte counters keyed by connection id.
    pub flows: HashMap<u32, u64>,
    /// Per-peer packet counters under the simulation crates' fixed
    /// hasher: a path-qualified alias, still hash-ordered.
    pub peers: netsim::hash::HashMap<u32, u64>,
}

impl Simulator {
    /// One step: the total is order-neutral, the trace dumps are not.
    pub fn step(&mut self) -> u64 {
        let total: u64 = self.flows.values().sum();
        for (id, bytes) in self.flows.iter() {
            record(*id, *bytes);
        }
        for (peer, packets) in &self.peers {
            record(*peer, *packets);
        }
        total + session_key()
    }
}

/// Record one flow observation in the trace.
fn record(id: u32, bytes: u64) {
    let _ = (id, bytes);
    let _ = trace_keys();
}

/// Helper that launders hash order through a non-sim crate.
fn session_key() -> u64 {
    first_key()
}
