//! Output checks on every simulated run, and the determinism digest.

use shift_sim::{RunResult, SimOptions};
use shift_types::AccessClass;

/// Checks one run against the simulator's accounting identities. Returns the
/// violated identities; empty means the run is accepted.
///
/// Miss-elimination runs (Figure 1) turn some L1-I misses into hits without
/// an LLC request, so the two identities tying misses to uncovered misses and
/// to demand traffic apply only to runs without it.
pub fn violations(result: &RunResult, options: &SimOptions) -> Vec<String> {
    let mut bad = Vec::new();
    let eliminates = options
        .miss_elimination_probability
        .is_some_and(|p| p > 0.0);
    for (i, core) in result.per_core.iter().enumerate() {
        if core.l1i.accesses != core.fetches {
            bad.push(format!(
                "core {i}: l1i.accesses {} != fetches {}",
                core.l1i.accesses, core.fetches
            ));
        }
        for (name, stats) in [("l1i", &core.l1i), ("l1d", &core.l1d)] {
            if stats.hits + stats.misses != stats.accesses {
                bad.push(format!("core {i}: {name} hits + misses != accesses"));
            }
        }
        if !eliminates && core.coverage.uncovered != core.l1i.misses {
            bad.push(format!(
                "core {i}: coverage.uncovered {} != l1i.misses {}",
                core.coverage.uncovered, core.l1i.misses
            ));
        }
        if !(core.cycles.is_finite() && core.ipc.is_finite()) {
            bad.push(format!("core {i}: non-finite cycles or ipc"));
        }
    }
    if result.llc.hits + result.llc.misses != result.llc.accesses {
        bad.push("llc: hits + misses != accesses".to_owned());
    }
    let l1_misses: u64 = result
        .per_core
        .iter()
        .map(|c| c.l1i.misses + c.l1d.misses)
        .sum();
    let demand = result.llc_traffic.count(AccessClass::Demand);
    if !eliminates && demand != l1_misses {
        bad.push(format!(
            "llc demand traffic {demand} != L1-I + L1-D misses {l1_misses}"
        ));
    }
    if !result.throughput().is_finite() || result.per_core.is_empty() {
        bad.push("non-finite or empty throughput".to_owned());
    }
    bad
}

/// 64-bit FNV-1a digest of a run's full simulated statistics (its lossless
/// JSON encoding), for comparing two commits bit for bit.
pub fn digest(result: &RunResult) -> u64 {
    fnv1a(serde::json::to_string(result).as_bytes(), FNV_OFFSET)
}

/// Folds several digests (in a fixed order) into one.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |acc, d| fnv1a(&d.to_le_bytes(), acc))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_sim::{CmpConfig, PrefetcherConfig, Simulation};
    use shift_trace::{presets, Scale};

    fn run(prefetcher: PrefetcherConfig, options: SimOptions) -> RunResult {
        Simulation::standalone(CmpConfig::micro13(2, prefetcher), presets::tiny(), options).run()
    }

    #[test]
    fn identities_hold_for_each_design_family() {
        let options = SimOptions::new(Scale::Test, 3);
        for pf in [
            PrefetcherConfig::None,
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_32k(),
            PrefetcherConfig::shift_virtualized(),
        ] {
            let result = run(pf, options);
            assert_eq!(violations(&result, &options), Vec::<String>::new());
        }
    }

    #[test]
    fn a_broken_count_is_reported() {
        let options = SimOptions::new(Scale::Test, 3);
        let mut result = run(PrefetcherConfig::None, options);
        result.per_core[0].l1i.hits += 1;
        result.per_core[1].cycles = f64::NAN;
        let bad = violations(&result, &options);
        assert!(
            bad.iter().any(|v| v.contains("l1i hits + misses")),
            "{bad:?}"
        );
        assert!(bad.iter().any(|v| v.contains("non-finite")), "{bad:?}");
    }

    #[test]
    fn digest_tracks_every_field() {
        let options = SimOptions::new(Scale::Test, 3);
        let a = run(PrefetcherConfig::None, options);
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b.per_core[1].l1d.fills += 1;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(combine([1, 2]), combine([2, 1]));
    }
}
