//! The host-speed probe that calibrates every gated time.
//!
//! The host is a virtual machine that shares its physical cores and caches
//! with other tenants, and its speed drifts by a third over minutes: the
//! same simulation takes 150 ns per instruction in one run and 230 in the
//! next, on every layer at once. The probe is a fixed piece of host work
//! that touches no repository code: random read-modify-writes over an
//! 8 MiB table, bound like the simulator by cache and memory latency. It
//! runs right after every timed trial, open and set-up sample, and each
//! gated time is scaled by `NOMINAL_NS` over the probe times measured
//! beside it, so it reads what the same work would take on a host where
//! the probe takes `NOMINAL_NS`. A change to the simulator cannot change
//! the probe, so it moves the calibrated times as much as the raw ones.

use std::time::Instant;

/// The probe time that calibrated figures are scaled to: about the
/// probe's time on the 2-core host the bounds were set on, when its
/// neighbours are quiet.
pub const NOMINAL_NS: f64 = 4.0e6;
/// `log2` of the table's length in `u64`s: 8 MiB.
const TABLE_BITS: u32 = 20;
/// Table accesses per probe.
const STEPS: usize = 200_000;

pub struct Probe {
    table: Vec<u64>,
    /// Every probe time measured so far, in ns.
    pub times: Vec<f64>,
}

impl Probe {
    /// Allocates and fills the table, outside any timed interval.
    pub fn new() -> Probe {
        let table = (0..1u64 << TABLE_BITS)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Probe {
            table,
            times: Vec::new(),
        }
    }

    /// Runs the probe once and returns its wall time in ns.
    #[inline(never)]
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            // xorshift64: a fixed, cache-hostile access sequence.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
                self.table[i] = v.wrapping_mul(3).wrapping_add(1);
            } else {
                acc ^= v >> 3;
                let j = (i + 64) & mask;
                self.table[j] = self.table[j].wrapping_add(1);
            }
        }
        std::hint::black_box(acc);
        let ns = started.elapsed().as_nanos() as f64;
        self.times.push(ns);
        ns
    }
}
