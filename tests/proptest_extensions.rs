//! Property-based tests for the extension features: compression, the
//! exclusion ledger and annealing.

use proptest::prelude::*;

use pdr_adequation::annealing::{anneal, schedule_with_mapping, AnnealOptions};
use pdr_fabric::compress::{compress, decompress};
use pdr_fabric::TimePs;
use pdr_graph::prelude::*;
use pdr_rtr::ExclusionLedger;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compression round-trips arbitrary word-aligned byte strings —
    /// including pathological all-zero / all-dense mixes.
    #[test]
    fn compression_roundtrip_arbitrary(words in prop::collection::vec(any::<u32>(), 0..600)) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let packed = compress(&bytes);
        prop_assert_eq!(decompress(&packed).unwrap(), bytes);
    }

    /// Sparse inputs compress; compression never loses information even at
    /// run-length boundaries (exact multiples of 255).
    #[test]
    fn compression_of_sparse_runs(zeros in 0usize..1200, tail in any::<u32>()) {
        let mut words = vec![0u32; zeros];
        words.push(tail | 1);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let packed = compress(&bytes);
        prop_assert_eq!(decompress(&packed).unwrap(), bytes);
        if zeros > 16 {
            prop_assert!(packed.len() < bytes.len());
        }
    }

    /// The exclusion ledger matches a naive reference model on random
    /// operation sequences.
    #[test]
    fn exclusion_ledger_matches_reference(
        ops in prop::collection::vec((0u8..3, 0u8..4, any::<bool>()), 1..64),
    ) {
        // Modules m0..m3; m0/m1 and m2/m3 are exclusive pairs.
        let mut ledger = ExclusionLedger::new();
        ledger.exclude("m0", "m1");
        ledger.exclude("m2", "m3");
        let excl = |a: u8, b: u8| matches!((a, b), (0, 1) | (1, 0) | (2, 3) | (3, 2));
        let mut resident: std::collections::BTreeMap<String, u8> = Default::default();
        for (region, module, unload) in ops {
            let rname = format!("r{region}");
            let mname = format!("m{module}");
            if unload {
                ledger.unload(&rname);
                resident.remove(&rname);
                continue;
            }
            let conflict = resident
                .iter()
                .any(|(r, &m)| *r != rname && excl(m, module));
            let outcome = ledger.check_and_load(&rname, &mname);
            prop_assert_eq!(outcome.is_err(), conflict, "r{} m{}", region, module);
            if outcome.is_ok() {
                resident.insert(rname, module);
            }
        }
    }

    /// schedule_with_mapping never violates precedence on random chains
    /// split across two operators, and annealing always returns a valid
    /// mapping for them.
    #[test]
    fn annealing_on_random_chains_is_valid(
        durations in prop::collection::vec(1u64..40, 2..8),
        seed in any::<u64>(),
    ) {
        let mut arch = ArchGraph::new("dual");
        let c1 = arch.add_operator("cpu1", OperatorKind::Processor).unwrap();
        let c2 = arch.add_operator("cpu2", OperatorKind::Processor).unwrap();
        let bus = arch
            .add_medium("bus", MediumKind::Bus, 1_000_000_000, TimePs::from_ns(50))
            .unwrap();
        arch.link(c1, bus).unwrap();
        arch.link(c2, bus).unwrap();

        let mut g = AlgorithmGraph::new("chain");
        let mut chars = Characterization::new();
        let s = g.add_op("s", OpKind::Source).unwrap();
        let mut prev = s;
        for (i, &us) in durations.iter().enumerate() {
            let name = format!("c{i}");
            let id = g.add_compute(&name).unwrap();
            chars.set_duration(&name, "cpu1", TimePs::from_us(us));
            chars.set_duration(&name, "cpu2", TimePs::from_us(us));
            g.connect(prev, id, 32).unwrap();
            prev = id;
        }
        let k = g.add_op("k", OpKind::Sink).unwrap();
        g.connect(prev, k, 32).unwrap();

        let opts = AnnealOptions {
            moves: 120,
            seed,
            ..Default::default()
        };
        let (mapping, schedule, makespan, _) =
            anneal(&g, &arch, &chars, &ConstraintsFile::new(), &opts).unwrap();
        schedule.validate().unwrap();
        // Chain lower bound: sum of durations (must serialize).
        let total: u64 = durations.iter().sum();
        prop_assert!(makespan >= TimePs::from_us(total));
        // Re-evaluating the returned mapping reproduces the makespan.
        let (_, again) = schedule_with_mapping(&g, &arch, &chars, &mapping).unwrap();
        prop_assert_eq!(again, makespan);
    }
}
