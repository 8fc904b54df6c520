//! Stable structural hashing of compiled specifications.
//!
//! A [`SpecKey`] content-addresses one *evaluation*: the full
//! [`CloudSystemSpec`] plus every evaluation option that can change the
//! numbers (solver method, tolerances, reachability bounds). Equal
//! spec+options pairs always produce equal keys, across processes and
//! platforms: floats are encoded by their IEEE-754 bit patterns, strings
//! length-prefixed, and the whole canonical byte string is hashed with two
//! independently-seeded FNV-1a 64-bit passes (128 bits total).
//!
//! The canonical encoding itself is kept alongside cache entries, so a
//! (vanishingly unlikely) hash collision degrades to a cache miss rather
//! than a wrong answer.

use dtc_core::analysis::AnalysisRequest;
use dtc_core::metrics::EvalOptions;
use dtc_core::system::CloudSystemSpec;
use std::fmt::Write as _;

/// A 128-bit content hash, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecKey(pub String);

impl std::fmt::Display for SpecKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET_A: u64 = 0xCBF2_9CE4_8422_2325;
// Second pass: a different, fixed offset decorrelates the two 64-bit halves.
const FNV_OFFSET_B: u64 = 0x6C62_272E_07BB_0142;

fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Canonical, deterministic encoding of a spec + evaluation options.
pub fn canonical_encoding(spec: &CloudSystemSpec, opts: &EvalOptions) -> String {
    let mut s = String::with_capacity(512);
    let f = |s: &mut String, x: f64| {
        let _ = write!(s, "{:016x},", x.to_bits());
    };
    let of = |s: &mut String, x: Option<f64>| match x {
        None => s.push_str("-,"),
        Some(x) => {
            let _ = write!(s, "{:016x},", x.to_bits());
        }
    };

    s.push_str("v1;ospm:");
    f(&mut s, spec.ospm.mttf_hours);
    f(&mut s, spec.ospm.mttr_hours);
    s.push_str("vm:");
    f(&mut s, spec.vm.mttf_hours);
    f(&mut s, spec.vm.mttr_hours);
    f(&mut s, spec.vm.start_hours);
    s.push_str("dcs:[");
    for dc in &spec.data_centers {
        let _ = write!(s, "{{l:{}:{};pms:[", dc.label.len(), dc.label);
        for pm in &dc.pms {
            let _ = write!(s, "({},{})", pm.initial_vms, pm.capacity);
        }
        s.push_str("];d:");
        match dc.disaster {
            None => s.push_str("-,"),
            Some(c) => {
                f(&mut s, c.mttf_hours);
                f(&mut s, c.mttr_hours);
            }
        }
        s.push_str("n:");
        match dc.nas_net {
            None => s.push_str("-,"),
            Some(c) => {
                f(&mut s, c.mttf_hours);
                f(&mut s, c.mttr_hours);
            }
        }
        s.push_str("b:");
        of(&mut s, dc.backup_inbound_mtt_hours);
        s.push('}');
    }
    s.push_str("];bkp:");
    match spec.backup {
        None => s.push_str("-,"),
        Some(c) => {
            f(&mut s, c.mttf_hours);
            f(&mut s, c.mttr_hours);
        }
    }
    s.push_str("mtt:[");
    for row in &spec.direct_mtt_hours {
        s.push('[');
        for cell in row {
            of(&mut s, *cell);
        }
        s.push(']');
    }
    let _ = write!(s, "];k:{};l:{};", spec.min_running_vms, spec.migration_threshold);
    // Evaluation options: the number-affecting option groups, each encoded
    // deterministically. Inclusion at the EvalOptions level is MANUAL: a
    // new EvalOptions field that can change results must be added here, or
    // stale cache hits will return wrong numbers for it. `sweep_threads`
    // and `solver.threads` are deliberately excluded — both are pure
    // scheduling knobs (the parallel kernels are bit-identical at every
    // thread count; see `dtc_markov::par`), so keying on them would only
    // split the cache. SolverOptions is therefore spelled out field by
    // field, byte-compatible with the derived Debug layout the original
    // encoding used so existing on-disk cache entries keep hitting —
    // including the retired SOR `relaxation` field, whose value was always
    // 1.0 for the methods that remain.
    let so = &opts.solver;
    let _ = write!(
        s,
        "opts:{:?};SolverOptions {{ max_iterations: {:?}, tolerance: {:?}, \
         relaxation: 1.0, check_every: {:?}, accept_loose: {:?} }};{:?}",
        opts.method,
        so.max_iterations,
        so.tolerance,
        so.check_every,
        so.accept_loose,
        opts.reach
    );
    s
}

/// Appends the deterministic encoding of an analysis set to a canonical
/// spec encoding. Kept as a separate function so the v1 → v2 cache-store
/// migration can re-key old steady-state-only entries with exactly the
/// suffix [`canonical_encoding_with`] would have produced.
pub fn encode_analyses(s: &mut String, analyses: &[AnalysisRequest]) {
    let f = |s: &mut String, x: f64| {
        let _ = write!(s, "{:016x},", x.to_bits());
    };
    s.push_str(";an:[");
    for a in analyses {
        match a {
            AnalysisRequest::SteadyState => s.push_str("steady_state,"),
            AnalysisRequest::Transient { time_points } => {
                s.push_str("transient(");
                for t in time_points {
                    f(s, *t);
                }
                s.push_str("),");
            }
            AnalysisRequest::Interval { horizon_hours } => {
                s.push_str("interval(");
                f(s, *horizon_hours);
                s.push_str("),");
            }
            AnalysisRequest::Mttsf => s.push_str("mttsf,"),
            AnalysisRequest::CapacityThresholds => s.push_str("capacity_thresholds,"),
            AnalysisRequest::Cost { model } => {
                s.push_str("cost(");
                f(s, model.downtime_cost_per_hour);
                f(s, model.site_cost_per_year);
                f(s, model.pm_cost_per_year);
                f(s, model.backup_cost_per_year);
                s.push_str("),");
            }
            AnalysisRequest::Simulation { batches, seed } => {
                let _ = write!(s, "sim({batches},{seed}),");
            }
            AnalysisRequest::Sensitivity { parameters, rel_step } => {
                s.push_str("sensitivity(");
                f(s, *rel_step);
                s.push('[');
                for p in parameters {
                    // Length-prefixed, like catalog labels: filter entries
                    // cannot collide by concatenation.
                    let _ = write!(s, "{}:{},", p.len(), p);
                }
                s.push_str("]),");
            }
        }
    }
    s.push(']');
}

/// Canonical encoding of a full evaluation identity: spec + options +
/// analysis set. This is what keys v2 cache entries.
pub fn canonical_encoding_with(
    spec: &CloudSystemSpec,
    opts: &EvalOptions,
    analyses: &[AnalysisRequest],
) -> String {
    let mut s = canonical_encoding(spec, opts);
    encode_analyses(&mut s, analyses);
    s
}

/// Hashes a spec + evaluation options into a cache key.
pub fn spec_key(spec: &CloudSystemSpec, opts: &EvalOptions) -> SpecKey {
    key_of_encoding(&canonical_encoding(spec, opts))
}

/// Hashes an already-computed canonical encoding.
pub fn key_of_encoding(canonical: &str) -> SpecKey {
    let bytes = canonical.as_bytes();
    let a = fnv1a(bytes, FNV_OFFSET_A);
    let b = fnv1a(bytes, FNV_OFFSET_B);
    SpecKey(format!("{a:016x}{b:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_core::params::{ComponentParams, VmParams};
    use dtc_core::system::{DataCenterSpec, PmSpec};

    fn spec() -> CloudSystemSpec {
        CloudSystemSpec {
            ospm: ComponentParams::new(1000.0, 12.0),
            vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 0.1 },
            data_centers: vec![DataCenterSpec {
                label: "1".into(),
                pms: vec![PmSpec::hot(2, 2)],
                disaster: Some(ComponentParams::new(876_000.0, 8760.0)),
                nas_net: None,
                backup_inbound_mtt_hours: None,
            }],
            backup: None,
            direct_mtt_hours: vec![vec![None]],
            min_running_vms: 2,
            migration_threshold: 1,
        }
    }

    #[test]
    fn equal_specs_hash_equal() {
        let opts = EvalOptions::default();
        assert_eq!(spec_key(&spec(), &opts), spec_key(&spec().clone(), &opts));
    }

    #[test]
    fn perturbed_params_change_the_key() {
        let opts = EvalOptions::default();
        let base = spec_key(&spec(), &opts);
        let mut tweaked = spec();
        tweaked.ospm.mttf_hours += 1e-9;
        assert_ne!(base, spec_key(&tweaked, &opts), "tiny float perturbations must be seen");
        let mut tweaked = spec();
        tweaked.min_running_vms = 1;
        assert_ne!(base, spec_key(&tweaked, &opts));
        let mut tweaked = spec();
        tweaked.data_centers[0].label = "2".into();
        assert_ne!(base, spec_key(&tweaked, &opts));
    }

    #[test]
    fn options_are_part_of_the_identity() {
        let base = spec_key(&spec(), &EvalOptions::default());
        let mut opts = EvalOptions::default();
        opts.solver.tolerance = 1e-6;
        assert_ne!(base, spec_key(&spec(), &opts));
        let opts = EvalOptions { method: dtc_markov::Method::Direct, ..EvalOptions::default() };
        assert_ne!(base, spec_key(&spec(), &opts));
    }

    #[test]
    fn thread_counts_are_not_part_of_the_identity() {
        // Parallel kernels are bit-identical at every thread count, so a
        // thread count in the key would only split the cache: the same
        // request served by `--eval-threads 1` and `--eval-threads 8`
        // must land on one entry.
        let base = spec_key(&spec(), &EvalOptions::default());
        let mut opts = EvalOptions::default();
        opts.solver.threads = 8;
        opts.sweep_threads = 4;
        assert_eq!(base, spec_key(&spec(), &opts));
        let enc = canonical_encoding(&spec(), &opts);
        assert!(!enc.contains("threads"), "no thread field may leak into the encoding: {enc}");
    }

    #[test]
    fn store_keys_are_stable_across_releases() {
        // A persisted v2 store must survive upgrades: the key minted for a
        // known spec + options + analysis set is pinned to the literal it
        // hashed to when the format was frozen. Structure sharing and
        // warm-started solves are execution details — if either ever leaks
        // into the encoding, this literal changes and the test fails.
        let opts = EvalOptions::default();
        let analyses = [
            AnalysisRequest::SteadyState,
            AnalysisRequest::Sensitivity { parameters: vec!["vm_mttf".into()], rel_step: 0.05 },
        ];
        let enc = canonical_encoding_with(&spec(), &opts, &analyses);
        assert_eq!(key_of_encoding(&enc).0, "a074d15c4e9e887201b8867c883f7039");
    }

    #[test]
    fn analysis_set_is_part_of_the_identity() {
        let opts = EvalOptions::default();
        let one = canonical_encoding_with(&spec(), &opts, &[AnalysisRequest::SteadyState]);
        let two = canonical_encoding_with(
            &spec(),
            &opts,
            &[AnalysisRequest::SteadyState, AnalysisRequest::Mttsf],
        );
        assert_ne!(key_of_encoding(&one), key_of_encoding(&two));
        // Parameterized analyses see their parameters, bit for bit.
        let ia = canonical_encoding_with(
            &spec(),
            &opts,
            &[AnalysisRequest::Interval { horizon_hours: 8760.0 }],
        );
        let ib = canonical_encoding_with(
            &spec(),
            &opts,
            &[AnalysisRequest::Interval { horizon_hours: 8760.0 + 1e-9 }],
        );
        assert_ne!(key_of_encoding(&ia), key_of_encoding(&ib));
        // The migration suffix contract: appending encode_analyses for
        // [SteadyState] to a v1 encoding gives the v2 encoding.
        let mut migrated = canonical_encoding(&spec(), &opts);
        encode_analyses(&mut migrated, &[AnalysisRequest::SteadyState]);
        assert_eq!(migrated, one);
    }

    #[test]
    fn sensitivity_requests_key_on_step_and_filter() {
        let opts = EvalOptions::default();
        let enc = |parameters: &[&str], rel_step: f64| {
            canonical_encoding_with(
                &spec(),
                &opts,
                &[AnalysisRequest::Sensitivity {
                    parameters: parameters.iter().map(|s| s.to_string()).collect(),
                    rel_step,
                }],
            )
        };
        let all = enc(&[], 0.05);
        assert_ne!(key_of_encoding(&all), key_of_encoding(&enc(&[], 0.05 + 1e-12)));
        assert_ne!(key_of_encoding(&all), key_of_encoding(&enc(&["vm_mttf"], 0.05)));
        assert_ne!(
            key_of_encoding(&enc(&["vm_mttf", "vm_mttr"], 0.05)),
            key_of_encoding(&enc(&["vm_mttr", "vm_mttf"], 0.05)),
            "filter order is part of the identity (layers normalize before keying)"
        );
        // Length prefixes keep concatenated entries distinct.
        assert_ne!(
            key_of_encoding(&enc(&["vm_mttf", "vm_mttr"], 0.05)),
            key_of_encoding(&enc(&["vm_mttfvm_mttr"], 0.05))
        );
    }

    #[test]
    fn key_is_hex_128() {
        let k = spec_key(&spec(), &EvalOptions::default());
        assert_eq!(k.0.len(), 32);
        assert!(k.0.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(k.to_string(), k.0);
    }
}
