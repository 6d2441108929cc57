//! Seeded input generation: a splitmix64 stream and the selection traces
//! every workload derives from `--seed`.

use pdr_bench::rtr_study;
use pdr_core::fabric::bitstream::SplitMix64;
use pdr_core::flow::DesignFlow;
use pdr_core::sim::SimConfig;
use std::collections::BTreeMap;

/// The repository's splitmix64 stream, with the draws the workloads need.
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(SplitMix64::new(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An independent stream for sub-input `tag`.
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ tag.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
}

/// The request mixes of the runtime-manager study
/// ([`rtr_study::trace`]): round-robin, bursty dwell and geometric
/// popularity. No measured switching pattern exists for these designs,
/// so the benchmark reuses the mixes the repository already studies.
const MIXES: [&str; 3] = ["cyclic", "bursty", "skewed"];

/// The modules of each dynamic region, in constraints order.
fn region_modules(flow: &DesignFlow) -> BTreeMap<String, Vec<String>> {
    let mut regions: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for m in flow.constraints().modules() {
        regions
            .entry(m.region.clone())
            .or_default()
            .push(m.module.clone());
    }
    regions
}

/// A selection trace over every dynamic region of `flow`, the workload's
/// distinct input number `input`. Region `r` follows mix
/// `MIXES[(input + r) % 3]`, so the mixes are fixed per input and only
/// the trace seeds and the module rotation come from `rng`.
pub fn selection_trace(
    rng: &mut Rng,
    input: usize,
    flow: &DesignFlow,
    iterations: u32,
) -> SimConfig {
    let mut config = SimConfig::iterations(iterations);
    for (r, (region, modules)) in region_modules(flow).into_iter().enumerate() {
        let mix = MIXES[(input + r) % MIXES.len()];
        let rotate = rng.below(modules.len());
        let seq = rtr_study::trace(mix, modules.len(), iterations as usize, rng.next_u64())
            .into_iter()
            .map(|m| modules[(m as usize + rotate) % modules.len()].clone())
            .collect();
        config = config.with_selection(&region, seq);
    }
    config
}
