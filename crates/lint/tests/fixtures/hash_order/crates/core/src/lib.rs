//! Fixture simulator that iterates hash containers.

use std::collections::HashMap;

/// Detector simulator state.
pub struct Simulator {
    /// Per-flow byte counters keyed by connection id.
    pub flows: HashMap<u32, u64>,
    /// Per-peer packet counters under the fixed hasher: a
    /// path-qualified alias, still hash-ordered.
    pub peers: netsim::hash::HashMap<u32, u64>,
    /// Observations in the order they were made.
    pub trace: Vec<(u32, u64)>,
}

impl Simulator {
    /// One step: the total is order-neutral, the trace is not.
    pub fn step(&mut self) -> u64 {
        let total: u64 = self.flows.values().sum();
        for (id, bytes) in &self.flows {
            self.trace.push((*id, *bytes));
        }
        for (peer, packets) in &self.peers {
            self.trace.push((*peer, *packets));
        }
        let key = sscrypto::first_key(&self.flows);
        total + u64::from(key) + sscrypto::trace_keys(&self.flows) as u64
    }

    /// Hash order leaking outside a `for` loop, through `IntoIterator`.
    pub fn drain_trace(&mut self) {
        let flows = std::mem::take(&mut self.flows);
        let mut drained: Vec<(u32, u64)> = flows.into_iter().collect();
        self.trace.append(&mut drained);
        let mut peers: Vec<(&u32, &u64)> = Vec::new();
        peers.extend(&self.peers);
        self.trace.extend(peers.into_iter().map(|(p, n)| (*p, *n)));
    }
}
