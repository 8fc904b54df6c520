//! # dtc-core — dependability models for disaster-tolerant clouds
//!
//! Reproduction of *"Dependability Models for Designing Disaster Tolerant
//! Cloud Computing Systems"* (Silva, Maciel, Tavares, Zimmermann — DSN 2013):
//! hierarchical RBD + GSPN availability models for IaaS clouds deployed
//! across geographically distributed data centers, under disaster occurrence
//! and distance-dependent VM migration times.
//!
//! The crate provides:
//!
//! * the paper's SPN building blocks ([`blocks`]): `SIMPLE_COMPONENT`,
//!   `VM_BEHAVIOR`, and the transmission component,
//! * RBD → SPN parameter folding ([`params`], via [`dtc_rbd`]),
//! * a whole-system compiler ([`system`]) from a [`CloudSystemSpec`]
//!   (data centers, hot/warm PM pools, disasters, backup server, migration
//!   matrix) to a solvable GSPN,
//! * dependability metrics ([`metrics`]): availability, number of nines,
//!   downtime, capacity-oriented availability,
//! * the paper's full case study ([`scenarios`]): Table VII rows and the
//!   Figure 7 sweep,
//! * guarded evaluation and the shared worker fan-out ([`sweep`]).
//!
//! # Quickstart
//!
//! The full two-DC case-study model has ~126 000 tangible states; build it
//! in release mode (it is exercised end-to-end by the workspace integration
//! tests and the `table7`/`fig7` binaries):
//!
//! ```no_run
//! use dtc_core::prelude::*;
//!
//! // Two data centers 900 km apart, Table VI parameters.
//! let cs = CaseStudy::paper();
//! let spec = cs.two_dc_spec(&dtc_geo::BRASILIA, 0.35, 100.0);
//! let model = CloudModel::build(&spec)?;
//! let report = model.evaluate(&EvalOptions::default())?;
//! assert!(report.availability > 0.99);
//!
//! // Or run several analyses against one state-space construction:
//! let reports = model.evaluate_all(
//!     &spec,
//!     &[AnalysisRequest::SteadyState, AnalysisRequest::Mttsf],
//!     &EvalOptions::default(),
//! )?;
//! assert_eq!(reports.len(), 2);
//! # Ok::<(), dtc_core::CloudError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod blocks;
pub mod economics;
pub mod error;
pub mod instrument;
pub mod metrics;
pub mod params;
pub mod scenarios;
pub mod sensitivity;
pub mod slo;
pub mod sweep;
pub mod system;

pub use analysis::{AnalysisReport, AnalysisRequest};
pub use economics::{CostBreakdown, CostModel};
pub use error::{CloudError, Result};
pub use metrics::{AvailabilityReport, EvalOptions};
pub use params::{ComponentParams, PaperParams, VmParams};
pub use scenarios::CaseStudy;
pub use slo::{SloTarget, DESIGN_SEARCH_KIND};
pub use system::{CloudModel, CloudSystemSpec, DataCenterSpec, PmSpec, SystemSummary};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::analysis::{
        availability_curves, availability_curves_with, first_steady_state,
        interval_probability, transient_probability_curve, AnalysisReport, AnalysisRequest,
        AvailabilityCurves,
    };
    pub use crate::blocks::{
        add_backup_transfer, add_direct_transfer, add_simple_component,
        add_simple_component_named, add_vm_behavior, InfraRefs,
    };
    pub use crate::economics::{CostBreakdown, CostModel};
    pub use crate::metrics::{AvailabilityReport, EvalOptions};
    pub use crate::params::{
        downtime_hours_per_year, nines, ComponentParams, PaperParams, VmParams,
    };
    pub use crate::scenarios::{
        figure7_scenarios, table_vii_scenarios, CaseStudy, Fig7Point, Scenario,
    };
    pub use crate::sensitivity::{
        availability_sensitivity, filtered_parameters, sensitivity_with_baseline, Parameter,
        SensitivityRow,
    };
    pub use crate::slo::{SloTarget, DESIGN_SEARCH_KIND};
    pub use crate::sweep::{evaluate_all_guarded, evaluate_all_shared, StructureRegistry};
    pub use crate::system::{
        CloudModel, CloudSystemSpec, DataCenterSpec, PmSpec, SystemSummary,
    };
    pub use crate::{CloudError, Result};
}
