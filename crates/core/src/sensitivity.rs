//! Parameter sensitivity analysis.
//!
//! For a deployment design, the actionable question after "what is the
//! availability?" is "**which knob moves it most?**" This module computes
//! elasticities — `∂ ln A / ∂ ln θ`, the percentage availability change per
//! percent parameter change — by central finite differences over rebuilt
//! models, evaluated in parallel. Elasticities are the standard sensitivity
//! measure in the dependability literature (and directly comparable across
//! parameters with different units).
//!
//! Every [`Parameter`] has a stable snake_case **key** (`"ospm_mttf"`,
//! `"nas_mttr_1"`, `"direct_mtt_1_2"`, …) used by catalogs, the CLI and the
//! HTTP API to name parameters in filters and reports; keys round-trip
//! through [`Parameter::from_key`]. Accessors that take a parameter the
//! spec may not have ([`parameter_value`], [`scale_parameter`]) return
//! `None` for absent parameters — callers skip them instead of panicking,
//! so a filter written for one architecture can be applied to another.
//!
//! # Examples
//!
//! Rank every knob of a one-data-center deployment by how strongly it
//! moves steady-state availability:
//!
//! ```
//! use dtc_core::prelude::*;
//!
//! let spec = CloudSystemSpec {
//!     ospm: ComponentParams::new(1000.0, 12.0),
//!     vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 0.1 },
//!     data_centers: vec![DataCenterSpec {
//!         label: "1".into(),
//!         pms: vec![PmSpec::hot(1, 1)],
//!         disaster: None,
//!         nas_net: None,
//!         backup_inbound_mtt_hours: None,
//!     }],
//!     backup: None,
//!     direct_mtt_hours: vec![vec![None]],
//!     min_running_vms: 1,
//!     migration_threshold: 1,
//! };
//! let rows = availability_sensitivity(&spec, &EvalOptions::default(), 0.05, 2)?;
//! assert!(!rows.is_empty());
//! // Rows come back ranked by |elasticity|, strongest first…
//! for pair in rows.windows(2) {
//!     assert!(pair[0].elasticity.abs() >= pair[1].elasticity.abs());
//! }
//! // …and longer repair times always hurt availability.
//! let mttr = rows
//!     .iter()
//!     .find(|r| r.parameter == dtc_core::sensitivity::Parameter::OspmMttr)
//!     .expect("OSPM MTTR applies to every spec");
//! assert!(mttr.elasticity < 0.0);
//! assert_eq!(mttr.parameter.key(), "ospm_mttr");
//! # Ok::<(), CloudError>(())
//! ```

use crate::analysis::{first_steady_state, AnalysisRequest};
use crate::error::{CloudError, Result};
use crate::metrics::EvalOptions;
use crate::sweep::{evaluate_all_shared, fan_out, StructureRegistry};
use crate::system::CloudSystemSpec;
use dtc_petri::TangibleStructure;
use std::sync::Arc;

/// The default central-difference step used by the unified analysis API
/// (±5% around the base point).
pub const DEFAULT_REL_STEP: f64 = 0.05;

/// One tunable scalar of a [`CloudSystemSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parameter {
    /// Folded OS+PM mean time to failure.
    OspmMttf,
    /// Folded OS+PM mean time to repair.
    OspmMttr,
    /// VM mean time to failure.
    VmMttf,
    /// VM mean time to repair.
    VmMttr,
    /// VM boot time.
    VmStart,
    /// Backup-server MTTF.
    BackupMttf,
    /// Backup-server MTTR.
    BackupMttr,
    /// Network (NAS_NET) MTTF of one data center.
    NasMttf(usize),
    /// Network MTTR of one data center.
    NasMttr(usize),
    /// Disaster mean time of one data center.
    DisasterMttf(usize),
    /// Disaster recovery time of one data center.
    DisasterMttr(usize),
    /// Direct migration MTT on one link.
    DirectMtt(usize, usize),
    /// Backup restore MTT into one data center.
    BackupMtt(usize),
}

/// The family names (keys with data-center/link indices stripped) every
/// parameter key belongs to. A filter entry naming a family selects every
/// indexed instance (`"nas_mttf"` matches `nas_mttf_1`, `nas_mttf_2`, …).
pub const PARAMETER_FAMILIES: [&str; 13] = [
    "ospm_mttf",
    "ospm_mttr",
    "vm_mttf",
    "vm_mttr",
    "vm_start",
    "backup_mttf",
    "backup_mttr",
    "nas_mttf",
    "nas_mttr",
    "disaster_mttf",
    "disaster_mttr",
    "direct_mtt",
    "backup_mtt",
];

impl Parameter {
    /// The stable snake_case key used by catalogs, the CLI and the HTTP
    /// API. Data-center and link indices are 1-based, matching the paper's
    /// `DC1`/`DC2` naming.
    pub fn key(&self) -> String {
        match self {
            Parameter::OspmMttf => "ospm_mttf".into(),
            Parameter::OspmMttr => "ospm_mttr".into(),
            Parameter::VmMttf => "vm_mttf".into(),
            Parameter::VmMttr => "vm_mttr".into(),
            Parameter::VmStart => "vm_start".into(),
            Parameter::BackupMttf => "backup_mttf".into(),
            Parameter::BackupMttr => "backup_mttr".into(),
            Parameter::NasMttf(d) => format!("nas_mttf_{}", d + 1),
            Parameter::NasMttr(d) => format!("nas_mttr_{}", d + 1),
            Parameter::DisasterMttf(d) => format!("disaster_mttf_{}", d + 1),
            Parameter::DisasterMttr(d) => format!("disaster_mttr_{}", d + 1),
            Parameter::DirectMtt(i, j) => format!("direct_mtt_{}_{}", i + 1, j + 1),
            Parameter::BackupMtt(d) => format!("backup_mtt_{}", d + 1),
        }
    }

    /// The key without its indices — one of [`PARAMETER_FAMILIES`].
    pub fn family(&self) -> &'static str {
        match self {
            Parameter::OspmMttf => "ospm_mttf",
            Parameter::OspmMttr => "ospm_mttr",
            Parameter::VmMttf => "vm_mttf",
            Parameter::VmMttr => "vm_mttr",
            Parameter::VmStart => "vm_start",
            Parameter::BackupMttf => "backup_mttf",
            Parameter::BackupMttr => "backup_mttr",
            Parameter::NasMttf(_) => "nas_mttf",
            Parameter::NasMttr(_) => "nas_mttr",
            Parameter::DisasterMttf(_) => "disaster_mttf",
            Parameter::DisasterMttr(_) => "disaster_mttr",
            Parameter::DirectMtt(..) => "direct_mtt",
            Parameter::BackupMtt(_) => "backup_mtt",
        }
    }

    /// Parses a key produced by [`Parameter::key`] (indices are 1-based).
    pub fn from_key(key: &str) -> Option<Parameter> {
        let fixed = match key {
            "ospm_mttf" => Some(Parameter::OspmMttf),
            "ospm_mttr" => Some(Parameter::OspmMttr),
            "vm_mttf" => Some(Parameter::VmMttf),
            "vm_mttr" => Some(Parameter::VmMttr),
            "vm_start" => Some(Parameter::VmStart),
            "backup_mttf" => Some(Parameter::BackupMttf),
            "backup_mttr" => Some(Parameter::BackupMttr),
            _ => None,
        };
        if fixed.is_some() {
            return fixed;
        }
        // 1-based index suffix → 0-based data-center index. Only the
        // canonical spelling parses: usize::from_str alone would also
        // accept "+1" and "01", minting aliases of "nas_mttf_1" that pass
        // filter validation but never string-match the canonical key (and
        // would key cache entries differently for the same request).
        let parse_index = |s: &str| -> Option<usize> {
            let canonical = !s.is_empty()
                && s.bytes().all(|b| b.is_ascii_digit())
                && !(s.len() > 1 && s.starts_with('0'));
            if !canonical {
                return None;
            }
            s.parse::<usize>().ok()?.checked_sub(1)
        };
        let indexed = |prefix: &str| key.strip_prefix(prefix).and_then(parse_index);
        if let Some(d) = indexed("nas_mttf_") {
            return Some(Parameter::NasMttf(d));
        }
        if let Some(d) = indexed("nas_mttr_") {
            return Some(Parameter::NasMttr(d));
        }
        if let Some(d) = indexed("disaster_mttf_") {
            return Some(Parameter::DisasterMttf(d));
        }
        if let Some(d) = indexed("disaster_mttr_") {
            return Some(Parameter::DisasterMttr(d));
        }
        if let Some(d) = indexed("backup_mtt_") {
            return Some(Parameter::BackupMtt(d));
        }
        if let Some(rest) = key.strip_prefix("direct_mtt_") {
            let (i, j) = rest.split_once('_')?;
            return Some(Parameter::DirectMtt(parse_index(i)?, parse_index(j)?));
        }
        None
    }

    /// Whether a filter entry selects this parameter: an exact key match
    /// (`"nas_mttf_2"`) or a family match (`"nas_mttf"` selects every DC's
    /// NAS MTTF).
    pub fn matches_filter_entry(&self, entry: &str) -> bool {
        entry == self.family() || entry == self.key()
    }
}

/// Whether `entry` is a usable parameter-filter entry: a family name from
/// [`PARAMETER_FAMILIES`] or a fully indexed key ([`Parameter::from_key`]).
/// Layers that parse filters (catalogs, HTTP) reject anything else so a
/// typo fails loudly instead of silently matching nothing.
pub fn is_valid_filter_entry(entry: &str) -> bool {
    PARAMETER_FAMILIES.contains(&entry) || Parameter::from_key(entry).is_some()
}

impl std::fmt::Display for Parameter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parameter::OspmMttf => write!(f, "OSPM MTTF"),
            Parameter::OspmMttr => write!(f, "OSPM MTTR"),
            Parameter::VmMttf => write!(f, "VM MTTF"),
            Parameter::VmMttr => write!(f, "VM MTTR"),
            Parameter::VmStart => write!(f, "VM start time"),
            Parameter::BackupMttf => write!(f, "Backup MTTF"),
            Parameter::BackupMttr => write!(f, "Backup MTTR"),
            Parameter::NasMttf(d) => write!(f, "NAS_NET MTTF (DC {})", d + 1),
            Parameter::NasMttr(d) => write!(f, "NAS_NET MTTR (DC {})", d + 1),
            Parameter::DisasterMttf(d) => write!(f, "disaster mean time (DC {})", d + 1),
            Parameter::DisasterMttr(d) => write!(f, "DC recovery time (DC {})", d + 1),
            Parameter::DirectMtt(i, j) => write!(f, "MTT DC{} -> DC{}", i + 1, j + 1),
            Parameter::BackupMtt(d) => write!(f, "MTT backup -> DC{}", d + 1),
        }
    }
}

/// The sensitivity of availability to one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Which parameter was perturbed.
    pub parameter: Parameter,
    /// Its value in the base specification.
    pub base_value: f64,
    /// `∂ ln A / ∂ ln θ` (central difference).
    pub elasticity: f64,
    /// `∂ U / ∂ ln θ` where `U = 1 − A` — the unavailability shift per
    /// percent change, often easier to read for highly available systems.
    pub unavailability_shift: f64,
}

/// Every applicable parameter of `spec`. Parameters the spec does not
/// model (no backup server, no NAS component on some DC, no link between a
/// DC pair) are simply not enumerated.
pub fn applicable_parameters(spec: &CloudSystemSpec) -> Vec<Parameter> {
    let mut out = vec![
        Parameter::OspmMttf,
        Parameter::OspmMttr,
        Parameter::VmMttf,
        Parameter::VmMttr,
        Parameter::VmStart,
    ];
    if spec.backup.is_some() {
        out.push(Parameter::BackupMttf);
        out.push(Parameter::BackupMttr);
    }
    for (d, dc) in spec.data_centers.iter().enumerate() {
        if dc.nas_net.is_some() {
            out.push(Parameter::NasMttf(d));
            out.push(Parameter::NasMttr(d));
        }
        if dc.disaster.is_some() {
            out.push(Parameter::DisasterMttf(d));
            out.push(Parameter::DisasterMttr(d));
        }
        if dc.backup_inbound_mtt_hours.is_some() {
            out.push(Parameter::BackupMtt(d));
        }
    }
    for i in 0..spec.data_centers.len() {
        for j in 0..spec.data_centers.len() {
            if spec.direct_mtt_hours[i][j].is_some() {
                out.push(Parameter::DirectMtt(i, j));
            }
        }
    }
    out
}

/// The applicable parameters of `spec` selected by `filter` (each entry an
/// exact key or a family name; see [`Parameter::matches_filter_entry`]).
/// An empty filter selects everything. Entries that match nothing on this
/// spec — a `"backup_mttf"` filter on an architecture without a backup
/// server, an out-of-range DC index — select nothing rather than erroring,
/// so one filter can be applied across heterogeneous catalog scenarios.
pub fn filtered_parameters(spec: &CloudSystemSpec, filter: &[String]) -> Vec<Parameter> {
    let all = applicable_parameters(spec);
    if filter.is_empty() {
        return all;
    }
    all.into_iter()
        .filter(|p| filter.iter().any(|entry| p.matches_filter_entry(entry)))
        .collect()
}

/// Reads the current value of `param` in `spec`, or `None` if the spec
/// does not model that parameter (absent backup/NAS/disaster component,
/// out-of-range data-center index, missing link).
pub fn parameter_value(spec: &CloudSystemSpec, param: &Parameter) -> Option<f64> {
    match param {
        Parameter::OspmMttf => Some(spec.ospm.mttf_hours),
        Parameter::OspmMttr => Some(spec.ospm.mttr_hours),
        Parameter::VmMttf => Some(spec.vm.mttf_hours),
        Parameter::VmMttr => Some(spec.vm.mttr_hours),
        Parameter::VmStart => Some(spec.vm.start_hours),
        Parameter::BackupMttf => spec.backup.map(|b| b.mttf_hours),
        Parameter::BackupMttr => spec.backup.map(|b| b.mttr_hours),
        Parameter::NasMttf(d) => {
            spec.data_centers.get(*d).and_then(|dc| dc.nas_net).map(|c| c.mttf_hours)
        }
        Parameter::NasMttr(d) => {
            spec.data_centers.get(*d).and_then(|dc| dc.nas_net).map(|c| c.mttr_hours)
        }
        Parameter::DisasterMttf(d) => {
            spec.data_centers.get(*d).and_then(|dc| dc.disaster).map(|c| c.mttf_hours)
        }
        Parameter::DisasterMttr(d) => {
            spec.data_centers.get(*d).and_then(|dc| dc.disaster).map(|c| c.mttr_hours)
        }
        Parameter::DirectMtt(i, j) => {
            spec.direct_mtt_hours.get(*i).and_then(|row| row.get(*j)).copied().flatten()
        }
        Parameter::BackupMtt(d) => {
            spec.data_centers.get(*d).and_then(|dc| dc.backup_inbound_mtt_hours)
        }
    }
}

/// Returns `spec` with `param` multiplied by `factor`, or `None` if the
/// spec does not model that parameter — callers **skip** absent
/// parameters; nothing here panics on a mismatched architecture.
pub fn scale_parameter(
    spec: &CloudSystemSpec,
    param: &Parameter,
    factor: f64,
) -> Option<CloudSystemSpec> {
    use crate::params::ComponentParams;
    // Existence check up front: the arms below may then index freely.
    parameter_value(spec, param)?;
    let mut s = spec.clone();
    match param {
        Parameter::OspmMttf => {
            s.ospm = ComponentParams::new(s.ospm.mttf_hours * factor, s.ospm.mttr_hours)
        }
        Parameter::OspmMttr => {
            s.ospm = ComponentParams::new(s.ospm.mttf_hours, s.ospm.mttr_hours * factor)
        }
        Parameter::VmMttf => s.vm.mttf_hours *= factor,
        Parameter::VmMttr => s.vm.mttr_hours *= factor,
        Parameter::VmStart => s.vm.start_hours *= factor,
        Parameter::BackupMttf => {
            let b = s.backup.expect("checked above");
            s.backup = Some(ComponentParams::new(b.mttf_hours * factor, b.mttr_hours));
        }
        Parameter::BackupMttr => {
            let b = s.backup.expect("checked above");
            s.backup = Some(ComponentParams::new(b.mttf_hours, b.mttr_hours * factor));
        }
        Parameter::NasMttf(d) => {
            let c = s.data_centers[*d].nas_net.expect("checked above");
            s.data_centers[*d].nas_net =
                Some(ComponentParams::new(c.mttf_hours * factor, c.mttr_hours));
        }
        Parameter::NasMttr(d) => {
            let c = s.data_centers[*d].nas_net.expect("checked above");
            s.data_centers[*d].nas_net =
                Some(ComponentParams::new(c.mttf_hours, c.mttr_hours * factor));
        }
        Parameter::DisasterMttf(d) => {
            let c = s.data_centers[*d].disaster.expect("checked above");
            s.data_centers[*d].disaster =
                Some(ComponentParams::new(c.mttf_hours * factor, c.mttr_hours));
        }
        Parameter::DisasterMttr(d) => {
            let c = s.data_centers[*d].disaster.expect("checked above");
            s.data_centers[*d].disaster =
                Some(ComponentParams::new(c.mttf_hours, c.mttr_hours * factor));
        }
        Parameter::DirectMtt(i, j) => {
            let v = s.direct_mtt_hours[*i][*j].expect("checked above");
            s.direct_mtt_hours[*i][*j] = Some(v * factor);
        }
        Parameter::BackupMtt(d) => {
            let v = s.data_centers[*d].backup_inbound_mtt_hours.expect("checked above");
            s.data_centers[*d].backup_inbound_mtt_hours = Some(v * factor);
        }
    }
    Some(s)
}

/// Computes availability elasticities for `params` around an
/// already-known baseline availability, evaluating only the **perturbed**
/// models (two per parameter) on `threads` workers.
///
/// This is the sensitivity step of the unified analysis pipeline
/// ([`crate::CloudModel::evaluate_all_on`]), where the baseline
/// availability comes from the analysis set's shared steady-state solve —
/// the base point is **not** rebuilt or re-solved here.
///
/// Parameters absent from `spec` are skipped. Rows are sorted by
/// descending `|elasticity|`.
///
/// Perturbing a rate never changes the net's structure, so when the
/// caller offers the baseline's explored [`TangibleStructure`], every
/// perturbed job re-rates it instead of re-exploring — bit-identical
/// results (see [`crate::CloudModel::state_space_from`]), one exploration
/// for the whole study. With `None`, the first perturbed job explores and
/// publishes its structure for the rest.
///
/// # Errors
///
/// [`CloudError::BadSpec`] if `rel_step` is outside `(0, 1)` or the
/// baseline availability is not a probability; otherwise the first
/// model-evaluation error encountered.
pub fn sensitivity_with_baseline(
    spec: &CloudSystemSpec,
    params: &[Parameter],
    base_availability: f64,
    opts: &EvalOptions,
    rel_step: f64,
    threads: usize,
    structure: Option<&Arc<TangibleStructure>>,
) -> Result<Vec<SensitivityRow>> {
    if !(rel_step > 0.0 && rel_step < 1.0) {
        return Err(CloudError::BadSpec(format!(
            "sensitivity rel_step {rel_step} must be in (0, 1)"
        )));
    }
    // Only parameters the spec actually models contribute jobs.
    let params: Vec<&Parameter> =
        params.iter().filter(|p| parameter_value(spec, p).is_some()).collect();
    let registry = StructureRegistry::new();
    if let Some(s) = structure {
        registry.insert(s.fingerprint(), Arc::clone(s));
    }
    rows_around(spec, &params, base_availability, opts, rel_step, threads, &registry)
}

/// Steady-state availability of one spec, through the shared evaluation
/// path (re-rating `registry`'s structure when one matches).
fn steady_availability(
    spec: &CloudSystemSpec,
    opts: &EvalOptions,
    registry: &StructureRegistry,
) -> Result<f64> {
    let reports = evaluate_all_shared(spec, &[AnalysisRequest::SteadyState], opts, registry)?;
    Ok(first_steady_state(&reports).expect("steady state was requested").availability)
}

/// Evaluates the (up, down) perturbed specs of every parameter over
/// [`fan_out`] on `threads` workers, re-rating through `registry`, and
/// turns them into rows ranked by descending `|elasticity|`.
fn rows_around(
    spec: &CloudSystemSpec,
    params: &[&Parameter],
    base_availability: f64,
    opts: &EvalOptions,
    rel_step: f64,
    threads: usize,
    registry: &StructureRegistry,
) -> Result<Vec<SensitivityRow>> {
    if !(base_availability > 0.0 && base_availability <= 1.0) {
        return Err(CloudError::BadSpec(format!(
            "sensitivity baseline availability {base_availability} must be in (0, 1]"
        )));
    }
    let mut jobs = Vec::with_capacity(params.len() * 2);
    for p in params {
        jobs.push(scale_parameter(spec, p, 1.0 + rel_step).expect("parameter present"));
        jobs.push(scale_parameter(spec, p, 1.0 - rel_step).expect("parameter present"));
    }
    let avail = fan_out(jobs.len(), threads, |i| steady_availability(&jobs[i], opts, registry));
    let mut rows = Vec::with_capacity(params.len());
    for (k, p) in params.iter().enumerate() {
        let up = avail[2 * k].clone()?;
        let down = avail[2 * k + 1].clone()?;
        let dlna = (up - down) / base_availability;
        let dlnt = 2.0 * rel_step;
        rows.push(SensitivityRow {
            parameter: (*p).clone(),
            base_value: parameter_value(spec, p).expect("parameter present"),
            elasticity: dlna / dlnt,
            unavailability_shift: -(up - down) / dlnt,
        });
    }
    rows.sort_by(|a, b| b.elasticity.abs().total_cmp(&a.elasticity.abs()));
    Ok(rows)
}

/// Computes availability elasticities for every applicable parameter of
/// `spec` by central differences with relative step `rel_step` (e.g. 0.05
/// = ±5%), evaluating the perturbed models on `threads` workers.
///
/// Rows are sorted by descending `|elasticity|`.
///
/// # Errors
///
/// Propagates the first model-evaluation error encountered.
pub fn availability_sensitivity(
    spec: &CloudSystemSpec,
    opts: &EvalOptions,
    rel_step: f64,
    threads: usize,
) -> Result<Vec<SensitivityRow>> {
    assert!(rel_step > 0.0 && rel_step < 1.0, "rel_step must be in (0,1)");
    let owned = applicable_parameters(spec);
    let params: Vec<&Parameter> = owned.iter().collect();
    // The base point runs first and publishes its explored structure in
    // the study's registry: every perturbed job is a rate-only sibling, so
    // the whole study costs one exploration, with the 2·|params| perturbed
    // graphs re-rated from it (bit-identical to exploring each — see
    // [`crate::CloudModel::state_space_from`]).
    let registry = StructureRegistry::new();
    let base = steady_availability(spec, opts, &registry)?;
    rows_around(spec, &params, base, opts, rel_step, threads, &registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ComponentParams, VmParams};
    use crate::system::{DataCenterSpec, PmSpec};

    fn spec() -> CloudSystemSpec {
        CloudSystemSpec {
            ospm: ComponentParams::new(1000.0, 12.0),
            vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 0.1 },
            data_centers: vec![DataCenterSpec {
                label: "1".into(),
                pms: vec![PmSpec::hot(2, 2)],
                disaster: Some(ComponentParams::new(876_000.0, 8760.0)),
                nas_net: Some(ComponentParams::new(400_000.0, 4.0)),
                backup_inbound_mtt_hours: None,
            }],
            backup: None,
            direct_mtt_hours: vec![vec![None]],
            min_running_vms: 1,
            migration_threshold: 1,
        }
    }

    #[test]
    fn parameter_enumeration_and_roundtrip() {
        let s = spec();
        let params = applicable_parameters(&s);
        assert!(params.contains(&Parameter::OspmMttf));
        assert!(params.contains(&Parameter::DisasterMttf(0)));
        assert!(!params.iter().any(|p| matches!(p, Parameter::BackupMttf)));
        for p in &params {
            let v = parameter_value(&s, p).expect("applicable parameters have values");
            let scaled = scale_parameter(&s, p, 2.0).expect("applicable parameters scale");
            assert!((parameter_value(&scaled, p).unwrap() - 2.0 * v).abs() < 1e-9, "{p}");
        }
    }

    #[test]
    fn keys_round_trip_for_every_applicable_parameter() {
        let mut wide = spec();
        wide.backup = Some(ComponentParams::new(10_000.0, 2.0));
        wide.data_centers.push(DataCenterSpec {
            label: "2".into(),
            pms: vec![PmSpec::warm(2)],
            disaster: Some(ComponentParams::new(876_000.0, 8760.0)),
            nas_net: Some(ComponentParams::new(400_000.0, 4.0)),
            backup_inbound_mtt_hours: Some(2.0),
        });
        wide.direct_mtt_hours = vec![vec![None, Some(3.0)], vec![Some(3.0), None]];
        for p in applicable_parameters(&wide) {
            let key = p.key();
            assert_eq!(Parameter::from_key(&key), Some(p.clone()), "{key}");
            assert!(p.matches_filter_entry(&key));
            assert!(p.matches_filter_entry(p.family()));
            assert!(is_valid_filter_entry(&key));
            assert!(is_valid_filter_entry(p.family()));
        }
        assert_eq!(Parameter::from_key("direct_mtt_1_2"), Some(Parameter::DirectMtt(0, 1)));
        assert_eq!(Parameter::from_key("nas_mttf_0"), None, "indices are 1-based");
        assert_eq!(Parameter::from_key("vm_mtff"), None);
        // Only the canonical spelling parses — no sign/zero-prefixed
        // aliases of the same parameter (they would pass filter validation
        // yet never match the canonical key).
        assert_eq!(Parameter::from_key("nas_mttf_+1"), None);
        assert_eq!(Parameter::from_key("nas_mttf_01"), None);
        assert_eq!(Parameter::from_key("direct_mtt_+1_2"), None);
        assert_eq!(Parameter::from_key("direct_mtt_1_+2"), None);
        assert_eq!(Parameter::from_key("direct_mtt_01_2"), None);
        assert_eq!(Parameter::from_key("backup_mtt_"), None);
        assert_eq!(Parameter::from_key("nas_mttf_10"), Some(Parameter::NasMttf(9)));
        assert!(!is_valid_filter_entry("nas_mttf_01"));
        assert!(!is_valid_filter_entry("vm_mtff"));
        assert!(is_valid_filter_entry("direct_mtt"), "bare families are valid filters");
    }

    #[test]
    fn absent_parameters_are_skipped_not_panicked() {
        // The spec has no backup server, no second DC, no links.
        let s = spec();
        for p in [
            Parameter::BackupMttf,
            Parameter::BackupMttr,
            Parameter::NasMttf(5),
            Parameter::DisasterMttr(1),
            Parameter::BackupMtt(0),
            Parameter::DirectMtt(0, 0),
            Parameter::DirectMtt(3, 7),
        ] {
            assert_eq!(parameter_value(&s, &p), None, "{p}");
            assert!(scale_parameter(&s, &p, 1.1).is_none(), "{p}");
        }
        // A filter naming only absent parameters selects nothing (and the
        // sweep then produces zero rows) instead of failing.
        let none = filtered_parameters(&s, &["backup_mttf".to_string()]);
        assert!(none.is_empty());
        let rows = sensitivity_with_baseline(
            &s,
            &[Parameter::BackupMttf],
            0.99,
            &EvalOptions::default(),
            0.05,
            1,
            None,
        )
        .unwrap();
        assert!(rows.is_empty(), "absent parameters are skipped");
    }

    #[test]
    fn filters_select_by_key_and_family() {
        let s = spec();
        let by_key = filtered_parameters(&s, &["nas_mttr_1".to_string()]);
        assert_eq!(by_key, vec![Parameter::NasMttr(0)]);
        let by_family =
            filtered_parameters(&s, &["vm_mttf".to_string(), "disaster_mttf".to_string()]);
        assert_eq!(by_family, vec![Parameter::VmMttf, Parameter::DisasterMttf(0)]);
        let all = filtered_parameters(&s, &[]);
        assert_eq!(all, applicable_parameters(&s), "empty filter selects everything");
    }

    #[test]
    fn elasticity_signs_are_physical() {
        let s = spec();
        let rows = availability_sensitivity(&s, &EvalOptions::default(), 0.05, 2).unwrap();
        let get = |p: &Parameter| {
            rows.iter().find(|r| &r.parameter == p).expect("row exists").elasticity
        };
        // Longer MTTFs help; longer repair/boot times hurt.
        assert!(get(&Parameter::OspmMttf) > 0.0);
        assert!(get(&Parameter::DisasterMttf(0)) > 0.0);
        assert!(get(&Parameter::OspmMttr) < 0.0);
        assert!(get(&Parameter::DisasterMttr(0)) < 0.0);
        assert!(get(&Parameter::VmMttr) < 0.0);
    }

    #[test]
    fn infrastructure_dominates_vm_timing_for_single_dc() {
        // Unavailability here is split between the PM series (~1.2e-2) and
        // the disaster (~9.9e-3); VM repair/boot timing is orders of
        // magnitude less important. The ranking must reflect that.
        let s = spec();
        let rows = availability_sensitivity(&s, &EvalOptions::default(), 0.05, 2).unwrap();
        let top = &rows[0];
        assert!(
            matches!(
                top.parameter,
                Parameter::OspmMttf
                    | Parameter::OspmMttr
                    | Parameter::DisasterMttf(0)
                    | Parameter::DisasterMttr(0)
            ),
            "top parameter was {}",
            top.parameter
        );
        let rank_of =
            |p: &Parameter| rows.iter().position(|r| &r.parameter == p).expect("row exists");
        // Both infrastructure knobs outrank the VM boot time.
        assert!(rank_of(&Parameter::OspmMttf) < rank_of(&Parameter::VmStart));
        assert!(rank_of(&Parameter::DisasterMttf(0)) < rank_of(&Parameter::VmStart));
    }

    #[test]
    fn baseline_form_matches_full_sweep() {
        // sensitivity_with_baseline seeded with the true baseline must
        // reproduce availability_sensitivity bit for bit: same perturbed
        // evaluations, same ordering.
        let s = spec();
        let opts = EvalOptions::default();
        let full = availability_sensitivity(&s, &opts, 0.05, 2).unwrap();
        let base = steady_availability(&s, &opts, &StructureRegistry::new()).unwrap();
        let seeded = sensitivity_with_baseline(
            &s,
            &applicable_parameters(&s),
            base,
            &opts,
            0.05,
            2,
            None,
        )
        .unwrap();
        assert_eq!(full, seeded);
    }

    #[test]
    #[should_panic(expected = "rel_step")]
    fn bad_step_panics() {
        let _ = availability_sensitivity(&spec(), &EvalOptions::default(), 1.5, 1);
    }

    #[test]
    fn bad_step_and_baseline_are_errors_in_the_unified_form() {
        let s = spec();
        let params = applicable_parameters(&s);
        let opts = EvalOptions::default();
        for bad in [0.0, 1.0, -0.1, f64::NAN] {
            assert!(matches!(
                sensitivity_with_baseline(&s, &params, 0.99, &opts, bad, 1, None),
                Err(CloudError::BadSpec(_))
            ));
        }
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                sensitivity_with_baseline(&s, &params, bad, &opts, 0.05, 1, None),
                Err(CloudError::BadSpec(_))
            ));
        }
    }
}
