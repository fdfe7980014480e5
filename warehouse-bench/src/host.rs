//! A fixed probe of the host's speed, run between engine calls.
//!
//! The reference host is a virtual machine whose speed drifts with what
//! other tenants run: over minutes, every engine timing of a run moves up
//! or down together, by up to a factor of two. The probe does a fixed
//! amount of work of the kind the engine does (hash-table inserts and
//! lookups, and a random walk over memory larger than the caches) on
//! memory it allocated once, so its time follows the host and not the
//! engine.

use std::collections::HashMap;
use std::hint::black_box;

/// Words in the random-walk array: 32 MiB, larger than the host's caches.
const CHAIN_LEN: usize = 1 << 23;
const WALK_STEPS: usize = 100_000;
const TABLE_KEYS: u64 = 100_000;

pub struct HostProbe {
    chain: Vec<u32>,
    table: HashMap<u64, u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl HostProbe {
    pub fn new() -> HostProbe {
        // One cycle through every slot, in a fixed pseudo-random order.
        let mut order: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        for i in (1..CHAIN_LEN).rev() {
            order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
        }
        let mut chain = vec![0u32; CHAIN_LEN];
        for w in 0..CHAIN_LEN {
            chain[order[w] as usize] = order[(w + 1) % CHAIN_LEN];
        }
        HostProbe {
            chain,
            table: HashMap::with_capacity(TABLE_KEYS as usize),
        }
    }

    /// Run the probe once.
    pub fn run(&mut self) {
        let mut slot = 0u32;
        for _ in 0..WALK_STEPS {
            slot = self.chain[slot as usize];
        }
        let mut x = 0x2545_F491_4F6C_DD1D;
        for k in 0..TABLE_KEYS {
            self.table.insert(xorshift(&mut x), k);
        }
        let mut hits = 0u64;
        let mut y = 0x2545_F491_4F6C_DD1D;
        for _ in 0..TABLE_KEYS {
            hits += self.table.get(&xorshift(&mut y)).copied().unwrap_or(0);
        }
        self.table.clear();
        black_box((slot, hits));
    }
}
