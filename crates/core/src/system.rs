//! Whole-system model assembly (the paper's Section IV-E, generalized).
//!
//! [`CloudSystemSpec`] describes a distributed IaaS deployment — data
//! centers with hot/warm physical machines, per-DC disaster and network
//! components, a backup server, and distance-derived migration times — and
//! [`CloudModel::build`] compiles it into one GSPN exactly following the
//! paper's block structure. The paper's Fig. 6 instance (two DCs × two PMs,
//! N = 4) is `CloudSystemSpec` with two symmetric data centers; the
//! generator supports any number of DCs and PMs.

use crate::analysis::{
    availability_curves_with, interval_probability, transient_probability_curve,
    AnalysisReport, AnalysisRequest, AvailabilityCurves,
};
use crate::blocks::{
    add_backup_transfer, add_direct_transfer, add_simple_component_named, add_vm_behavior,
    InfraRefs, SimpleComponent, TransferPath, VmBehavior,
};
use crate::error::{CloudError, Result};
use crate::metrics::{AvailabilityReport, EvalOptions};
use crate::params::{ComponentParams, VmParams};
use dtc_petri::expr::{BoolExpr, IntExpr};
use dtc_petri::model::{PetriNet, PetriNetBuilder, PlaceId};
use dtc_petri::reach::{
    explore_from_fingerprinted, Solution, TangibleGraph, TangibleStructure,
};
use dtc_sim::{Estimate, SimConfig, Simulator, TimingOverrides};
use std::sync::{Arc, OnceLock};

/// One physical machine.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PmSpec {
    /// VMs running on this PM at time zero (hot pool ⇒ > 0).
    pub initial_vms: u32,
    /// Maximum VMs this PM can host.
    pub capacity: u32,
}

impl PmSpec {
    /// A hot-pool PM (initially running `vms` VMs).
    pub fn hot(vms: u32, capacity: u32) -> Self {
        PmSpec { initial_vms: vms, capacity }
    }

    /// A warm-pool PM (powered, no VMs).
    pub fn warm(capacity: u32) -> Self {
        PmSpec { initial_vms: 0, capacity }
    }
}

/// One data center.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCenterSpec {
    /// Label used in place names (paper uses `1`, `2`).
    pub label: String,
    /// Physical machines (hot pool + warm pool).
    pub pms: Vec<PmSpec>,
    /// Disaster occurrence/recovery, if disasters are modeled for this DC.
    pub disaster: Option<ComponentParams>,
    /// Folded switch+router+storage network component, if modeled.
    pub nas_net: Option<ComponentParams>,
    /// Mean time to restore one VM image from the Backup Server *into* this
    /// DC (the paper's `MTT_BK1`/`MTT_BK2`), if a backup path exists.
    pub backup_inbound_mtt_hours: Option<f64>,
}

/// A whole distributed cloud system.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudSystemSpec {
    /// Folded OS+PM parameters (identical PMs, per the paper).
    pub ospm: ComponentParams,
    /// VM failure/repair/boot timing.
    pub vm: VmParams,
    /// The data centers.
    pub data_centers: Vec<DataCenterSpec>,
    /// Backup server component, if present.
    pub backup: Option<ComponentParams>,
    /// `direct_mtt_hours[i][j]` = mean time to migrate one VM image from DC
    /// `i` to DC `j` (`None` = no direct link).
    pub direct_mtt_hours: Vec<Vec<Option<f64>>>,
    /// Minimum running VMs for the service to be up (the paper's `k`).
    pub min_running_vms: u32,
    /// Migrate out of a DC when its operational PM count falls below this
    /// (the paper's `l`; Table IV uses 1).
    pub migration_threshold: u32,
}

impl CloudSystemSpec {
    /// Total VMs in the system (`N`).
    pub fn total_vms(&self) -> u32 {
        self.data_centers.iter().flat_map(|dc| dc.pms.iter()).map(|pm| pm.initial_vms).sum()
    }

    /// Total PMs across all DCs.
    pub fn total_pms(&self) -> usize {
        self.data_centers.iter().map(|dc| dc.pms.len()).sum()
    }

    fn validate(&self) -> Result<()> {
        if self.data_centers.is_empty() {
            return Err(CloudError::BadSpec("no data centers".into()));
        }
        for dc in &self.data_centers {
            if dc.pms.is_empty() {
                return Err(CloudError::BadSpec(format!(
                    "data center {} has no physical machines",
                    dc.label
                )));
            }
            for pm in &dc.pms {
                if pm.capacity == 0 {
                    return Err(CloudError::BadSpec("PM with zero capacity".into()));
                }
                if pm.initial_vms > pm.capacity {
                    return Err(CloudError::BadSpec(format!(
                        "PM initial VMs {} exceed capacity {}",
                        pm.initial_vms, pm.capacity
                    )));
                }
            }
            if dc.backup_inbound_mtt_hours.is_some() && self.backup.is_none() {
                return Err(CloudError::BadSpec(format!(
                    "data center {} has a backup restore path but no backup server is specified",
                    dc.label
                )));
            }
        }
        let d = self.data_centers.len();
        if self.direct_mtt_hours.len() != d
            || self.direct_mtt_hours.iter().any(|row| row.len() != d)
        {
            return Err(CloudError::BadSpec(format!(
                "direct_mtt_hours must be a {d}x{d} matrix"
            )));
        }
        for (i, row) in self.direct_mtt_hours.iter().enumerate() {
            if row[i].is_some() {
                return Err(CloudError::BadSpec(format!(
                    "direct_mtt_hours[{i}][{i}] must be None (no self-link)"
                )));
            }
            for mtt in row.iter().flatten() {
                if !(mtt.is_finite() && *mtt > 0.0) {
                    return Err(CloudError::BadSpec(format!("invalid MTT {mtt}")));
                }
            }
        }
        if self.min_running_vms > self.total_vms() {
            return Err(CloudError::BadSpec(format!(
                "k = {} exceeds the total number of VMs {}",
                self.min_running_vms,
                self.total_vms()
            )));
        }
        if self.migration_threshold == 0 {
            return Err(CloudError::BadSpec("migration threshold l must be >= 1".into()));
        }
        Ok(())
    }
}

/// Handles to the per-data-center subnets of a built model.
#[derive(Debug, Clone)]
pub struct DataCenterModel {
    /// The `FailedVMS` pool place of this DC.
    pub pool: PlaceId,
    /// Disaster component, if modeled.
    pub disaster: Option<SimpleComponent>,
    /// Network component, if modeled.
    pub nas_net: Option<SimpleComponent>,
    /// OSPM components, one per PM.
    pub ospms: Vec<SimpleComponent>,
    /// VM behavior blocks, one per PM.
    pub vms: Vec<VmBehavior>,
}

/// The small, copyable facts a compiled model keeps about its spec.
///
/// [`CloudModel`] used to retain a full clone of the [`CloudSystemSpec`];
/// storing only this summary lets [`CloudModel::build`] borrow the spec, so
/// the single-flight hot path ([`crate::sweep::evaluate_all_shared`])
/// performs no per-evaluation clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemSummary {
    /// Total VMs in the system (`N`).
    pub total_vms: u32,
    /// Minimum running VMs for the service to be up (`k`).
    pub min_running_vms: u32,
    /// Number of data centers.
    pub data_centers: usize,
    /// Physical machines across all DCs.
    pub total_pms: usize,
    /// Whether a backup server is modeled.
    pub has_backup: bool,
}

impl SystemSummary {
    /// Summarizes a specification.
    pub fn of(spec: &CloudSystemSpec) -> SystemSummary {
        SystemSummary {
            total_vms: spec.total_vms(),
            min_running_vms: spec.min_running_vms,
            data_centers: spec.data_centers.len(),
            total_pms: spec.total_pms(),
            has_backup: spec.backup.is_some(),
        }
    }
}

/// The compiled GSPN with handles and metric expressions.
#[derive(Debug, Clone)]
pub struct CloudModel {
    summary: SystemSummary,
    net: PetriNet,
    dcs: Vec<DataCenterModel>,
    backup: Option<SimpleComponent>,
    transfers: Vec<TransferPath>,
    backup_transfers: Vec<TransferPath>,
    /// [`CloudModel::net_fingerprint`], hashed on first use.
    fingerprint: OnceLock<u64>,
}

impl CloudModel {
    /// Compiles a specification into a GSPN.
    ///
    /// Takes the spec by reference: the model keeps only a
    /// [`SystemSummary`], so building never clones the (potentially large)
    /// specification.
    ///
    /// # Errors
    ///
    /// [`CloudError::BadSpec`] for structural problems;
    /// [`CloudError::Petri`] if net construction fails (e.g. duplicate
    /// labels).
    pub fn build(spec: &CloudSystemSpec) -> Result<Self> {
        spec.validate()?;
        let mut b = PetriNetBuilder::new();
        let mut dcs: Vec<DataCenterModel> = Vec::with_capacity(spec.data_centers.len());

        // Global PM numbering 1..=P, matching the paper's OSPM_1..OSPM_4.
        let mut pm_counter = 0usize;
        for dc in &spec.data_centers {
            let label = &dc.label;
            let disaster = dc.disaster.map(|p| {
                add_simple_component_named(
                    &mut b,
                    &format!("DC_UP{label}"),
                    &format!("DC_DOWN{label}"),
                    &format!("DISASTER{label}"),
                    &format!("DC_RECOVERY{label}"),
                    p,
                )
            });
            let nas_net = dc.nas_net.map(|p| {
                add_simple_component_named(
                    &mut b,
                    &format!("NAS_NET_UP{label}"),
                    &format!("NAS_NET_DOWN{label}"),
                    &format!("NAS_NET_F{label}"),
                    &format!("NAS_NET_R{label}"),
                    p,
                )
            });
            let pool = b.place(format!("FailedVMS{label}"), 0);
            let mut ospms = Vec::with_capacity(dc.pms.len());
            let mut vms = Vec::with_capacity(dc.pms.len());
            for pm in &dc.pms {
                pm_counter += 1;
                let ospm = add_simple_component_named(
                    &mut b,
                    &format!("OSPM_UP{pm_counter}"),
                    &format!("OSPM_DOWN{pm_counter}"),
                    &format!("OSPM_F{pm_counter}"),
                    &format!("OSPM_R{pm_counter}"),
                    spec.ospm,
                );
                let infra = InfraRefs {
                    ospm_up: ospm.up,
                    nas_net_up: nas_net.as_ref().map(|c| c.up),
                    dc_up: disaster.as_ref().map(|c| c.up),
                };
                let vmb = add_vm_behavior(
                    &mut b,
                    &pm_counter.to_string(),
                    pm.initial_vms,
                    pm.capacity,
                    spec.vm,
                    &infra,
                    pool,
                );
                ospms.push(ospm);
                vms.push(vmb);
            }
            dcs.push(DataCenterModel { pool, disaster, nas_net, ospms, vms });
        }

        let backup = spec.backup.map(|p| {
            add_simple_component_named(&mut b, "BKP_UP", "BKP_DOWN", "BKP_F", "BKP_R", p)
        });

        // Guard fragments per DC.
        let pm_up_sum =
            |dc: &DataCenterModel| IntExpr::tokens_sum(dc.ospms.iter().map(|c| c.up));
        // Source DC lost too many PMs (paper: all PMs down, l = 1).
        let pm_deficit =
            |dc: &DataCenterModel| pm_up_sum(dc).lt(spec.migration_threshold as i64);
        // Source storage readable: network and DC alive (conjuncts only for
        // modeled components).
        let src_readable = |dc: &DataCenterModel| {
            let mut parts = Vec::new();
            if let Some(n) = &dc.nas_net {
                parts.push(IntExpr::tokens(n.up).gt(0));
            }
            if let Some(d) = &dc.disaster {
                parts.push(IntExpr::tokens(d.up).gt(0));
            }
            if parts.is_empty() {
                BoolExpr::always()
            } else {
                BoolExpr::And(parts)
            }
        };
        let src_unreadable = |dc: &DataCenterModel| {
            let mut parts = Vec::new();
            if let Some(n) = &dc.nas_net {
                parts.push(IntExpr::tokens(n.up).eq(0));
            }
            if let Some(d) = &dc.disaster {
                parts.push(IntExpr::tokens(d.up).eq(0));
            }
            if parts.is_empty() {
                BoolExpr::Const(false)
            } else {
                BoolExpr::Or(parts)
            }
        };
        // Destination can host: some PM up, network up, DC up (the paper's
        // `NOT((#OSPM_UP3+#OSPM_UP4)=0 OR #NAS_NET_UP2=0 OR #DC_UP2=0)`).
        let dest_operational = |dc: &DataCenterModel| {
            let mut parts = vec![pm_up_sum(dc).gt(0)];
            if let Some(n) = &dc.nas_net {
                parts.push(IntExpr::tokens(n.up).gt(0));
            }
            if let Some(d) = &dc.disaster {
                parts.push(IntExpr::tokens(d.up).gt(0));
            }
            BoolExpr::And(parts)
        };

        let mut transfers = Vec::new();
        let mut backup_transfers = Vec::new();
        for i in 0..dcs.len() {
            for j in 0..dcs.len() {
                if i == j {
                    continue;
                }
                let (from, to) =
                    (spec.data_centers[i].label.clone(), spec.data_centers[j].label.clone());
                if let Some(mtt) = spec.direct_mtt_hours[i][j] {
                    let guard = pm_deficit(&dcs[i])
                        .and(src_readable(&dcs[i]))
                        .and(dest_operational(&dcs[j]));
                    transfers.push(add_direct_transfer(
                        &mut b,
                        &from,
                        &to,
                        dcs[i].pool,
                        dcs[j].pool,
                        mtt,
                        guard,
                    ));
                }
                if let (Some(bkp), Some(mtt)) =
                    (&backup, spec.data_centers[j].backup_inbound_mtt_hours)
                {
                    let unreadable = src_unreadable(&dcs[i]);
                    // A DC whose storage can never become unreadable has no
                    // use for the backup path.
                    if unreadable != BoolExpr::Const(false) {
                        let guard = IntExpr::tokens(bkp.up)
                            .gt(0)
                            .and(unreadable)
                            .and(dest_operational(&dcs[j]));
                        backup_transfers.push(add_backup_transfer(
                            &mut b,
                            &from,
                            &to,
                            dcs[i].pool,
                            dcs[j].pool,
                            mtt,
                            guard,
                        ));
                    }
                }
            }
        }

        let net = b.build()?;
        Ok(CloudModel {
            summary: SystemSummary::of(spec),
            net,
            dcs,
            backup,
            transfers,
            backup_transfers,
            fingerprint: OnceLock::new(),
        })
    }

    /// The compiled net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Key facts about the specification this model was compiled from.
    pub fn summary(&self) -> &SystemSummary {
        &self.summary
    }

    /// Per-data-center handles.
    pub fn data_centers(&self) -> &[DataCenterModel] {
        &self.dcs
    }

    /// Backup-server handle, if present.
    pub fn backup(&self) -> Option<&SimpleComponent> {
        self.backup.as_ref()
    }

    /// Direct-transfer paths.
    pub fn transfers(&self) -> &[TransferPath] {
        &self.transfers
    }

    /// Backup-restore paths.
    pub fn backup_transfers(&self) -> &[TransferPath] {
        &self.backup_transfers
    }

    /// All `VM_UP` places across the system.
    pub fn vm_up_places(&self) -> Vec<PlaceId> {
        self.dcs.iter().flat_map(|dc| dc.vms.iter().map(|v| v.vm_up)).collect()
    }

    /// The paper's availability predicate
    /// `P{#VM_UP1 + … + #VM_UPn >= k}`.
    pub fn availability_expr(&self) -> BoolExpr {
        IntExpr::tokens_sum(self.vm_up_places()).ge(self.summary.min_running_vms as i64)
    }

    /// Total running VMs as an integer expression.
    pub fn running_vms_expr(&self) -> IntExpr {
        IntExpr::tokens_sum(self.vm_up_places())
    }

    /// Explores the tangible state space (the expensive step; reuse the
    /// returned graph to evaluate several metrics). Records an `explore`
    /// stage span in the [`dtc_obs::global`] registry, annotated with the
    /// state/edge counts when a request trace is active.
    pub fn state_space(&self, opts: &EvalOptions) -> Result<TangibleGraph> {
        self.state_space_from(opts, None)
    }

    /// Structural fingerprint of the compiled net (see
    /// [`dtc_petri::structural_fingerprint`]): equal fingerprints mean
    /// rate-only siblings whose state spaces can be shared through
    /// [`CloudModel::state_space_from`]. Hashed once per model: the
    /// registry lookup and the re-rate decision below share it.
    pub fn net_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| dtc_petri::structural_fingerprint(&self.net))
    }

    /// Like [`CloudModel::state_space`], but when `structure` is offered
    /// and matches this model's net (same structural fingerprint), the
    /// graph is produced by re-rating the shared structure — bit-identical
    /// to a fresh exploration, without touching the state space. A
    /// mismatched structure falls back to full exploration.
    ///
    /// Records an `explore` stage span only when an exploration actually
    /// runs (`re_rate` otherwise), and folds the taken path into the
    /// [`crate::instrument`] counters, so batch harnesses can pin "one
    /// exploration per structural group".
    pub fn state_space_from(
        &self,
        opts: &EvalOptions,
        structure: Option<&Arc<TangibleStructure>>,
    ) -> Result<TangibleGraph> {
        // Take explore_from's decision up front so the span names what
        // actually happens.
        let fingerprint = self.net_fingerprint();
        let re_rating = structure.is_some_and(|s| s.can_re_rate(fingerprint, &opts.reach));
        let _span = dtc_obs::stage_span(if re_rating { "re_rate" } else { "explore" });
        let mut explore_stats = dtc_petri::ExploreStats::default();
        let graph = explore_from_fingerprinted(
            &self.net,
            fingerprint,
            &opts.reach,
            structure,
            &mut explore_stats,
        )?;
        crate::instrument::record_explore(&explore_stats);
        let stats = graph.stats();
        dtc_obs::trace::attr_int("states", stats.tangible_states as i64);
        dtc_obs::trace::attr_int("edges", stats.edges as i64);
        Ok(graph)
    }

    /// Builds the state space, solves for steady state, and summarizes the
    /// paper's dependability metrics.
    pub fn evaluate(&self, opts: &EvalOptions) -> Result<AvailabilityReport> {
        let graph = self.state_space(opts)?;
        self.evaluate_on(&graph, opts)
    }

    /// Like [`CloudModel::evaluate`] but reusing an existing state space.
    pub fn evaluate_on(
        &self,
        graph: &TangibleGraph,
        opts: &EvalOptions,
    ) -> Result<AvailabilityReport> {
        let sol = graph.solve_with(opts.method, &opts.solver)?;
        Ok(self.steady_report(graph, &sol))
    }

    /// Assembles the steady-state report from an existing solution.
    fn steady_report(&self, graph: &TangibleGraph, sol: &Solution<'_>) -> AvailabilityReport {
        AvailabilityReport::new(
            sol.probability(&self.availability_expr()),
            sol.expected(&self.running_vms_expr()),
            self.summary.total_vms,
            graph.stats(),
            *sol.stats(),
        )
    }

    /// Runs every requested analysis against **one** state-space
    /// construction — the unified entry point behind catalogs, the cache,
    /// the CLI and `POST /v2/evaluate`.
    ///
    /// Exploration (the expensive step: ~126k tangible states for the
    /// paper's case study) happens exactly once, and analyses that need the
    /// steady-state solution (`SteadyState`, `CapacityThresholds`, `Cost`,
    /// `Sensitivity`) share a single solve. Reports come back in request
    /// order.
    ///
    /// `spec` must be the specification this model was compiled from. It
    /// is consulted by analyses that rebuild perturbed variants of the
    /// system — today only `Sensitivity`, whose baseline point reuses the
    /// set's shared steady solve instead of re-building the base model.
    /// The model keeps only a [`SystemSummary`], so the mismatch guard is
    /// a structural sanity check (VM/PM/DC counts, backup presence), not a
    /// full comparison: passing a same-shaped spec with different *rates*
    /// is not detected and yields rows whose baseline belongs to the built
    /// model — don't do that.
    pub fn evaluate_all(
        &self,
        spec: &CloudSystemSpec,
        requests: &[AnalysisRequest],
        opts: &EvalOptions,
    ) -> Result<Vec<AnalysisReport>> {
        let graph = self.state_space(opts)?;
        self.evaluate_all_on(spec, &graph, requests, opts)
    }

    /// Like [`CloudModel::evaluate_all`] but reusing an existing state
    /// space.
    pub fn evaluate_all_on(
        &self,
        spec: &CloudSystemSpec,
        graph: &TangibleGraph,
        requests: &[AnalysisRequest],
        opts: &EvalOptions,
    ) -> Result<Vec<AnalysisReport>> {
        if SystemSummary::of(spec) != self.summary {
            return Err(CloudError::BadSpec(
                "evaluate_all was given a structurally different spec than the model was \
                 built from"
                    .into(),
            ));
        }
        let needs_steady = requests.iter().any(|r| {
            matches!(
                r,
                AnalysisRequest::SteadyState
                    | AnalysisRequest::CapacityThresholds
                    | AnalysisRequest::Cost { .. }
                    | AnalysisRequest::Sensitivity { .. }
            )
        });
        let steady_sol = if needs_steady {
            Some(graph.solve_with(opts.method, &opts.solver)?)
        } else {
            None
        };
        let steady = steady_sol.as_ref().map(|sol| self.steady_report(graph, sol));

        // One shared uniformization pass serves every `Transient` time
        // point and every `Interval` horizon in the set (one matrix build,
        // one power march), instead of one march per time point.
        let mut all_times: Vec<f64> = Vec::new();
        let mut all_horizons: Vec<f64> = Vec::new();
        for req in requests {
            match req {
                AnalysisRequest::Transient { time_points } => {
                    all_times.extend_from_slice(time_points)
                }
                AnalysisRequest::Interval { horizon_hours } => {
                    all_horizons.push(*horizon_hours)
                }
                _ => {}
            }
        }
        let curves = if all_times.is_empty() && all_horizons.is_empty() {
            AvailabilityCurves::default()
        } else {
            // The march fans out over `opts.solver.threads` deterministic
            // workers — a scheduling knob only, never part of cache keys.
            availability_curves_with(
                graph,
                &self.availability_expr(),
                &all_times,
                &all_horizons,
                opts.solver.threads,
            )?
        };
        let (mut next_time, mut next_horizon) = (0usize, 0usize);

        let mut out = Vec::with_capacity(requests.len());
        for req in requests {
            out.push(match req {
                AnalysisRequest::SteadyState => {
                    AnalysisReport::SteadyState(steady.expect("steady solve ran"))
                }
                AnalysisRequest::Transient { time_points } => {
                    let availability =
                        curves.point[next_time..next_time + time_points.len()].to_vec();
                    next_time += time_points.len();
                    AnalysisReport::Transient { time_points: time_points.clone(), availability }
                }
                AnalysisRequest::Interval { horizon_hours } => {
                    let availability = curves.interval[next_horizon];
                    next_horizon += 1;
                    AnalysisReport::Interval { horizon_hours: *horizon_hours, availability }
                }
                AnalysisRequest::Mttsf => AnalysisReport::Mttsf {
                    hours: dtc_obs::span!("mttsf", self.mean_time_to_service_failure(graph)?),
                },
                AnalysisRequest::CapacityThresholds => AnalysisReport::CapacityThresholds {
                    availability: self
                        .threshold_curve(graph, steady_sol.as_ref().expect("steady solve ran")),
                },
                AnalysisRequest::Cost { model } => AnalysisReport::Cost {
                    breakdown: model
                        .annual_cost_for(&self.summary, &steady.expect("steady solve ran")),
                },
                AnalysisRequest::Simulation { batches, seed } => {
                    // No silent clamping: the requested batch count is part
                    // of the cache identity, so execution must honor it.
                    if *batches < 2 {
                        return Err(CloudError::BadSpec(
                            "simulation needs at least 2 batches for a confidence interval"
                                .into(),
                        ));
                    }
                    let cfg = SimConfig {
                        replications: *batches as usize,
                        seed: *seed,
                        ..SimConfig::default()
                    };
                    let est = dtc_obs::span!(
                        "simulation",
                        self.simulate_availability(&cfg, &TimingOverrides::new())?
                    );
                    AnalysisReport::Simulation {
                        mean: est.mean,
                        half_width: est.half_width,
                        replications: est.replications,
                        confidence: est.confidence,
                    }
                }
                AnalysisRequest::Sensitivity { parameters, rel_step } => {
                    // The baseline availability comes from the set's shared
                    // steady solve — only the perturbed models (two per
                    // parameter) are built and solved here.
                    let base =
                        steady.as_ref().expect("steady solve ran for sensitivity").availability;
                    let params = crate::sensitivity::filtered_parameters(spec, parameters);
                    let _span = dtc_obs::stage_span("sensitivity");
                    // The perturbed jobs are rate-only siblings of this
                    // model, so they re-rate the already-explored structure
                    // instead of rebuilding the state space per job.
                    let rows = crate::sensitivity::sensitivity_with_baseline(
                        spec,
                        &params,
                        base,
                        opts,
                        *rel_step,
                        opts.resolved_sweep_threads(),
                        Some(graph.structure()),
                    )?;
                    AnalysisReport::Sensitivity { rel_step: *rel_step, rows }
                }
            });
        }
        Ok(out)
    }

    /// Estimates availability by discrete-event simulation (optionally with
    /// non-exponential timing overrides) — the cross-validation path.
    pub fn simulate_availability(
        &self,
        cfg: &SimConfig,
        overrides: &TimingOverrides,
    ) -> Result<Estimate> {
        let sim = Simulator::with_overrides(&self.net, overrides)?;
        Ok(sim.steady_probability(&self.availability_expr(), cfg)?)
    }

    /// Mean time to first service failure (the whole-system MTTF): the
    /// expected time, starting from the fully-up initial marking, until the
    /// number of running VMs first drops below `k`.
    ///
    /// Computed by marking every service-down tangible state absorbing and
    /// solving the sparse first-passage system iteratively, so it scales to
    /// the full case-study graphs.
    pub fn mean_time_to_service_failure(&self, graph: &TangibleGraph) -> Result<f64> {
        let expr = self.availability_expr();
        let down: Vec<bool> = graph
            .states()
            .iter()
            .map(|m| !expr.eval(&|p: dtc_petri::PlaceId| m[p.index()]))
            .collect();
        let tau = dtc_markov::mean_time_to_absorption_iterative(
            graph.ctmc(),
            &down,
            &dtc_markov::SolverOptions::default(),
        )
        .map_err(dtc_petri::PetriError::from)?;
        Ok(graph.initial_distribution().iter().map(|&(i, p)| p * tau[i]).sum())
    }

    /// Availability for **every** service threshold `k = 0..=N` from a
    /// single steady-state solve: entry `k` is `P{running VMs ≥ k}`.
    ///
    /// Useful for capacity planning — the paper fixes `k = 2`, but the
    /// whole curve costs nothing extra once the chain is solved.
    pub fn availability_by_threshold(&self, graph: &TangibleGraph) -> Result<Vec<f64>> {
        let sol = graph.solve()?;
        Ok(self.threshold_curve(graph, &sol))
    }

    /// The threshold curve from an existing steady-state solution.
    fn threshold_curve(&self, graph: &TangibleGraph, sol: &Solution<'_>) -> Vec<f64> {
        let n = self.summary.total_vms as usize;
        let running = self.running_vms_expr();
        // Tally P{running = j} once, then suffix-sum.
        let mut mass = vec![0.0f64; n + 1];
        for (m, p) in graph.states().iter().zip(sol.probabilities()) {
            let j = running.value(&|q: dtc_petri::PlaceId| m[q.index()]) as usize;
            mass[j.min(n)] += p;
        }
        let mut out = vec![0.0f64; n + 1];
        let mut acc = 0.0;
        for k in (0..=n).rev() {
            acc += mass[k];
            out[k] = acc.min(1.0);
        }
        out
    }

    /// Point availability `A(t)` at each requested time, starting from the
    /// initial marking (all components up, VMs on the hot pool).
    ///
    /// The curve starts at 1 and relaxes toward the steady-state
    /// availability; its shape shows how quickly the deployment reaches its
    /// long-run regime.
    pub fn transient_availability(
        &self,
        graph: &TangibleGraph,
        times: &[f64],
    ) -> Result<Vec<f64>> {
        transient_probability_curve(graph, &self.availability_expr(), times)
    }

    /// Expected interval availability over `[0, horizon]` hours — the
    /// SLA-window metric (`horizon = 8760` gives "expected uptime fraction
    /// in the first year of operation").
    pub fn interval_availability(
        &self,
        graph: &TangibleGraph,
        horizon_hours: f64,
    ) -> Result<f64> {
        interval_probability(graph, &self.availability_expr(), horizon_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PaperParams;

    fn tiny_spec() -> CloudSystemSpec {
        // 1 DC, 1 PM, 2 VMs, no disaster/network/backup: pure PM+VM model.
        CloudSystemSpec {
            ospm: ComponentParams::new(1000.0, 12.0),
            vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 1.0 / 12.0 },
            data_centers: vec![DataCenterSpec {
                label: "1".into(),
                pms: vec![PmSpec::hot(2, 2)],
                disaster: None,
                nas_net: None,
                backup_inbound_mtt_hours: None,
            }],
            backup: None,
            direct_mtt_hours: vec![vec![None]],
            min_running_vms: 2,
            migration_threshold: 1,
        }
    }

    fn two_dc_spec() -> CloudSystemSpec {
        let p = PaperParams::table_vi();
        let mk_dc = |label: &str, hot: bool| DataCenterSpec {
            label: label.into(),
            pms: vec![if hot { PmSpec::hot(2, 2) } else { PmSpec::warm(2) }],
            disaster: Some(p.disaster(100.0)),
            nas_net: Some(p.nas_net_folded().unwrap()),
            backup_inbound_mtt_hours: Some(2.0),
        };
        CloudSystemSpec {
            ospm: p.ospm_folded().unwrap(),
            vm: p.vm_params(),
            data_centers: vec![mk_dc("1", true), mk_dc("2", false)],
            backup: Some(p.backup),
            direct_mtt_hours: vec![vec![None, Some(3.0)], vec![Some(3.0), None]],
            min_running_vms: 2,
            migration_threshold: 1,
        }
    }

    #[test]
    fn tiny_model_builds_and_solves() {
        let model = CloudModel::build(&tiny_spec()).unwrap();
        let report = model.evaluate(&EvalOptions::default()).unwrap();
        // Bound: can't beat the PM's own availability; should stay close.
        let a_pm = 1000.0 / 1012.0;
        assert!(report.availability < a_pm);
        assert!(report.availability > a_pm - 0.01, "{}", report.availability);
        assert!(report.nines > 1.0);
        assert!(report.tangible_states > 0);
        assert!(report.expected_running_vms > 1.9);
    }

    #[test]
    fn paper_names_present_in_two_dc_model() {
        let model = CloudModel::build(&two_dc_spec()).unwrap();
        let net = model.net();
        for name in [
            "OSPM_UP1",
            "OSPM_UP2",
            "DC_UP1",
            "DC_UP2",
            "NAS_NET_UP1",
            "NAS_NET_UP2",
            "BKP_UP",
            "FailedVMS1",
            "FailedVMS2",
            "VM_UP1",
            "TRP_12",
            "TBP_21",
        ] {
            assert!(net.place(name).is_some(), "missing place {name}");
        }
        for name in ["DISASTER1", "TRI_12", "TRE_21", "TBI_12", "TBE_12", "VM_Subs1"] {
            assert!(net.transition(name).is_some(), "missing transition {name}");
        }
    }

    #[test]
    fn two_dc_beats_one_dc_availability() {
        // The paper's core claim: a second (warm) DC lifts availability
        // under disasters.
        let two = CloudModel::build(&two_dc_spec()).unwrap();
        let report_two = two.evaluate(&EvalOptions::default()).unwrap();

        let p = PaperParams::table_vi();
        let one_spec = CloudSystemSpec {
            ospm: p.ospm_folded().unwrap(),
            vm: p.vm_params(),
            data_centers: vec![DataCenterSpec {
                label: "1".into(),
                pms: vec![PmSpec::hot(2, 2)],
                disaster: Some(p.disaster(100.0)),
                nas_net: Some(p.nas_net_folded().unwrap()),
                backup_inbound_mtt_hours: None,
            }],
            backup: None,
            direct_mtt_hours: vec![vec![None]],
            min_running_vms: 2,
            migration_threshold: 1,
        };
        let one = CloudModel::build(&one_spec).unwrap();
        let report_one = one.evaluate(&EvalOptions::default()).unwrap();
        assert!(
            report_two.availability > report_one.availability,
            "two-DC {} should beat one-DC {}",
            report_two.availability,
            report_one.availability
        );
        // One-DC, one-PM with disasters: disaster term (~0.9901) times the
        // PM series (~0.9879) puts it near 0.978.
        assert!((report_one.availability - 0.978).abs() < 0.005, "{}", report_one.availability);
        // The warm second DC should lift availability past the disaster
        // ceiling of a single site.
        assert!(report_two.availability > 0.9901, "{}", report_two.availability);
    }

    #[test]
    fn vm_tokens_conserved_across_state_space() {
        let model = CloudModel::build(&two_dc_spec()).unwrap();
        let graph = model.state_space(&EvalOptions::default()).unwrap();
        let n = model.summary().total_vms;
        // Collect every place that can hold VM tokens.
        let mut token_places: Vec<PlaceId> = model.vm_up_places();
        for dc in model.data_centers() {
            token_places.push(dc.pool);
            for v in &dc.vms {
                token_places.push(v.vm_down);
                token_places.push(v.vm_stg);
            }
        }
        for t in model.transfers().iter().chain(model.backup_transfers()) {
            token_places.push(t.in_flight);
        }
        for m in graph.states() {
            let total: u32 = token_places.iter().map(|p| m[p.index()]).sum();
            assert_eq!(total, n, "token leak in marking {m:?}");
        }
    }

    #[test]
    fn bad_specs_rejected() {
        let mut s = tiny_spec();
        s.data_centers.clear();
        assert!(matches!(CloudModel::build(&s), Err(CloudError::BadSpec(_))));

        let mut s = tiny_spec();
        s.min_running_vms = 10;
        assert!(matches!(CloudModel::build(&s), Err(CloudError::BadSpec(_))));

        let mut s = tiny_spec();
        s.direct_mtt_hours = vec![vec![Some(1.0)]];
        assert!(matches!(CloudModel::build(&s), Err(CloudError::BadSpec(_))));

        let mut s = tiny_spec();
        s.data_centers[0].backup_inbound_mtt_hours = Some(1.0);
        assert!(matches!(CloudModel::build(&s), Err(CloudError::BadSpec(_))));

        let mut s = tiny_spec();
        s.migration_threshold = 0;
        assert!(matches!(CloudModel::build(&s), Err(CloudError::BadSpec(_))));
    }

    #[test]
    fn system_mttf_consistent_with_availability() {
        // For an (approximately) alternating-renewal system,
        // A ≈ MTTF / (MTTF + MDT): check the MTTF lands in a band implied
        // by availability and plausible repair times.
        let model = CloudModel::build(&tiny_spec()).unwrap();
        let graph = model.state_space(&EvalOptions::default()).unwrap();
        let mttf = model.mean_time_to_service_failure(&graph).unwrap();
        // k = 2 of 2 VMs on one PM: the first VM or PM failure kills
        // service, so the time to first outage is min(VM, VM, OSPM) with
        // tiny_spec's OSPM MTTF of 1000 h: rate = 2/2880 + 1/1000.
        let expect = 1.0 / (2.0 / 2880.0 + 1.0 / 1000.0);
        assert!(
            (mttf - expect).abs() / expect < 1e-6,
            "MTTF {mttf} vs competing-risk value {expect}"
        );
    }

    #[test]
    fn two_dc_raises_availability_not_mttf() {
        // The warm DC does not delay the *first* outage (the migration
        // itself is an outage when all VMs were in DC1) — it shortens the
        // repair. MTTF should be essentially the single-DC value.
        let one = CloudModel::build(&tiny_spec()).unwrap();
        let g1 = one.state_space(&EvalOptions::default()).unwrap();
        let two = CloudModel::build(&two_dc_spec()).unwrap();
        let g2 = two.state_space(&EvalOptions::default()).unwrap();
        let mttf_one = one.mean_time_to_service_failure(&g1).unwrap();
        let mttf_two = two.mean_time_to_service_failure(&g2).unwrap();
        // Both in the hundreds of hours; within 2x of each other.
        assert!(mttf_one > 100.0 && mttf_two > 100.0);
        assert!(
            mttf_two < mttf_one * 2.0 && mttf_two > mttf_one / 2.0,
            "{mttf_one} vs {mttf_two}"
        );
    }

    #[test]
    fn availability_by_threshold_is_monotone_and_consistent() {
        let model = CloudModel::build(&tiny_spec()).unwrap();
        let graph = model.state_space(&EvalOptions::default()).unwrap();
        let curve = model.availability_by_threshold(&graph).unwrap();
        // N = 2 VMs -> entries for k = 0, 1, 2.
        assert_eq!(curve.len(), 3);
        assert!((curve[0] - 1.0).abs() < 1e-12, "k=0 is always satisfied");
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "monotone in k: {curve:?}");
        }
        // Entry k=2 must equal the spec's evaluated availability (k=2).
        let report = model.evaluate_on(&graph, &EvalOptions::default()).unwrap();
        assert!((curve[2] - report.availability).abs() < 1e-10);
    }

    #[test]
    fn transient_availability_decays_to_steady_state() {
        let model = CloudModel::build(&tiny_spec()).unwrap();
        let graph = model.state_space(&EvalOptions::default()).unwrap();
        let steady = model.evaluate_on(&graph, &EvalOptions::default()).unwrap().availability;
        let times = [0.0, 10.0, 100.0, 1000.0, 100_000.0];
        let curve = model.transient_availability(&graph, &times).unwrap();
        assert!((curve[0] - 1.0).abs() < 1e-9, "starts fully up: {curve:?}");
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "monotone decay: {curve:?}");
        }
        assert!((curve[4] - steady).abs() < 1e-6, "{} vs {steady}", curve[4]);
    }

    #[test]
    fn interval_availability_brackets_point_values() {
        let model = CloudModel::build(&tiny_spec()).unwrap();
        let graph = model.state_space(&EvalOptions::default()).unwrap();
        let steady = model.evaluate_on(&graph, &EvalOptions::default()).unwrap().availability;
        let year = model.interval_availability(&graph, 8760.0).unwrap();
        // Starting all-up, the first-year average beats steady state but is
        // below 1.
        assert!(year > steady, "{year} vs steady {steady}");
        assert!(year < 1.0);
        let long = model.interval_availability(&graph, 5e6).unwrap();
        assert!((long - steady).abs() < 1e-4, "{long} vs {steady}");
    }

    #[test]
    fn simulation_cross_validates_numeric() {
        let model = CloudModel::build(&tiny_spec()).unwrap();
        let report = model.evaluate(&EvalOptions::default()).unwrap();
        let cfg = SimConfig {
            warmup: 2_000.0,
            horizon: 150_000.0,
            replications: 8,
            seed: 13,
            confidence: 0.99,
        };
        let est = model.simulate_availability(&cfg, &TimingOverrides::new()).unwrap();
        assert!(
            est.covers(report.availability),
            "simulation CI {:?} misses numeric {}",
            est.interval(),
            report.availability
        );
    }

    #[test]
    fn evaluate_all_steady_state_is_bit_identical_to_evaluate() {
        // The golden contract of the unified API: routing a steady-state
        // request through `evaluate_all` must reproduce `evaluate` exactly
        // (same solver path, same rounding), not merely approximately.
        let spec = tiny_spec();
        let model = CloudModel::build(&spec).unwrap();
        let opts = EvalOptions::default();
        let direct = model.evaluate(&opts).unwrap();
        let unified =
            model.evaluate_all(&spec, &[AnalysisRequest::SteadyState], &opts).unwrap();
        assert_eq!(unified.len(), 1);
        assert_eq!(unified[0], AnalysisReport::SteadyState(direct));
    }

    #[test]
    fn evaluate_all_union_matches_single_metric_calls() {
        let spec = tiny_spec();
        let model = CloudModel::build(&spec).unwrap();
        let opts = EvalOptions::default();
        let graph = model.state_space(&opts).unwrap();
        let requests = [
            AnalysisRequest::SteadyState,
            AnalysisRequest::Mttsf,
            AnalysisRequest::CapacityThresholds,
            AnalysisRequest::Interval { horizon_hours: 8760.0 },
            AnalysisRequest::Transient { time_points: vec![0.0, 100.0] },
            AnalysisRequest::Cost { model: crate::economics::CostModel::default() },
        ];
        let reports = model.evaluate_all_on(&spec, &graph, &requests, &opts).unwrap();
        assert_eq!(reports.len(), requests.len());
        for (req, rep) in requests.iter().zip(&reports) {
            assert_eq!(req.kind(), rep.kind(), "reports come back in request order");
        }
        let steady = crate::analysis::first_steady_state(&reports).unwrap();
        match &reports[1] {
            AnalysisReport::Mttsf { hours } => {
                let direct = model.mean_time_to_service_failure(&graph).unwrap();
                assert!((hours - direct).abs() < 1e-12);
            }
            other => panic!("expected mttsf, got {other:?}"),
        }
        match &reports[2] {
            AnalysisReport::CapacityThresholds { availability } => {
                assert_eq!(availability.len(), model.summary().total_vms as usize + 1);
                // Entry k (the spec's threshold) agrees with the steady report.
                let k = model.summary().min_running_vms as usize;
                assert!((availability[k] - steady.availability).abs() < 1e-10);
            }
            other => panic!("expected capacity curve, got {other:?}"),
        }
        match &reports[4] {
            AnalysisReport::Transient { availability, .. } => {
                assert!((availability[0] - 1.0).abs() < 1e-9, "starts fully up");
            }
            other => panic!("expected transient curve, got {other:?}"),
        }
        match &reports[5] {
            AnalysisReport::Cost { breakdown } => {
                assert!(breakdown.total() > 0.0);
            }
            other => panic!("expected cost, got {other:?}"),
        }
    }

    #[test]
    fn traced_sensitivity_holds_the_perturbed_solves() {
        // The perturbed jobs run on fan-out workers; the caller's trace
        // rides into them, so their solves nest under the `sensitivity`
        // span instead of vanishing from the request's tree.
        use dtc_obs::trace::{install, TraceContext, TraceId};
        let spec = tiny_spec();
        let model = CloudModel::build(&spec).unwrap();
        let opts = EvalOptions { sweep_threads: 2, ..EvalOptions::default() };
        let requests = [
            AnalysisRequest::SteadyState,
            AnalysisRequest::Sensitivity {
                parameters: vec!["ospm_mttr".into()],
                rel_step: 0.05,
            },
        ];
        let ctx = TraceContext::new(TraceId::generate());
        {
            let _installed = install(&ctx);
            model.evaluate_all(&spec, &requests, &opts).unwrap();
        }
        let snapshot = ctx.snapshot();
        let sensitivity = snapshot
            .spans
            .iter()
            .position(|s| s.name == "sensitivity")
            .expect("sensitivity span recorded");
        let total = snapshot.spans.iter().filter(|s| s.name == "stationary_solve").count();
        assert_eq!(total, 3, "one shared steady solve plus two perturbed solves");
        let perturbed = snapshot
            .spans
            .iter()
            .filter(|s| s.name == "stationary_solve")
            .filter(|s| {
                std::iter::successors(s.parent, |&p| snapshot.spans[p].parent)
                    .any(|p| p == sensitivity)
            })
            .count();
        assert_eq!(perturbed, 2, "both perturbed solves sit under the sensitivity span");
    }

    #[test]
    fn evaluate_all_sensitivity_matches_standalone_sweep() {
        // The unified pipeline's sensitivity rows must be bit-identical to
        // the standalone sweep: same baseline (the shared steady solve
        // produces the exact availability `availability_sensitivity`
        // computes itself), same perturbed evaluations, same ranking.
        let spec = tiny_spec();
        let model = CloudModel::build(&spec).unwrap();
        let opts = EvalOptions::default();
        let reports = model
            .evaluate_all(
                &spec,
                &[AnalysisRequest::SteadyState, AnalysisRequest::default_sensitivity()],
                &opts,
            )
            .unwrap();
        let standalone =
            crate::sensitivity::availability_sensitivity(&spec, &opts, 0.05, 2).unwrap();
        match &reports[1] {
            AnalysisReport::Sensitivity { rel_step, rows } => {
                assert_eq!(*rel_step, 0.05);
                assert_eq!(*rows, standalone);
            }
            other => panic!("expected sensitivity, got {other:?}"),
        }

        // A filter narrows the rows without changing their values.
        let reports = model
            .evaluate_all(
                &spec,
                &[AnalysisRequest::Sensitivity {
                    parameters: vec!["ospm_mttr".into()],
                    rel_step: 0.05,
                }],
                &opts,
            )
            .unwrap();
        match &reports[0] {
            AnalysisReport::Sensitivity { rows, .. } => {
                assert_eq!(rows.len(), 1);
                let standalone_row = standalone
                    .iter()
                    .find(|r| r.parameter == crate::sensitivity::Parameter::OspmMttr)
                    .unwrap();
                assert_eq!(&rows[0], standalone_row);
            }
            other => panic!("expected sensitivity, got {other:?}"),
        }

        // A bad step surfaces as an error, not a panic.
        let bad = model.evaluate_all(
            &spec,
            &[AnalysisRequest::Sensitivity { parameters: vec![], rel_step: 2.0 }],
            &opts,
        );
        assert!(matches!(bad, Err(CloudError::BadSpec(_))));
    }

    #[test]
    fn evaluate_all_rejects_a_mismatched_spec() {
        let spec = tiny_spec();
        let model = CloudModel::build(&spec).unwrap();
        let other = two_dc_spec();
        assert!(matches!(
            model.evaluate_all(
                &other,
                &[AnalysisRequest::SteadyState],
                &EvalOptions::default()
            ),
            Err(CloudError::BadSpec(_))
        ));
    }

    #[test]
    fn summary_reflects_the_spec() {
        let model = CloudModel::build(&two_dc_spec()).unwrap();
        let s = model.summary();
        assert_eq!(s.total_vms, 2);
        assert_eq!(s.min_running_vms, 2);
        assert_eq!(s.data_centers, 2);
        assert_eq!(s.total_pms, 2);
        assert!(s.has_backup);
    }
}
