//! # dtc-petri — generalized stochastic Petri nets
//!
//! The SPN formalism used by *"Dependability Models for Designing Disaster
//! Tolerant Cloud Computing Systems"* (Silva et al., DSN 2013): exponential
//! timed transitions with single/infinite/k-server semantics, immediate
//! transitions with weights and priorities, inhibitor arcs, and
//! marking-dependent guards written in the paper's `#place` notation.
//!
//! The analysis pipeline mirrors the Mercury/TimeNET tools the paper used:
//! tangible reachability exploration with on-the-fly vanishing-marking
//! elimination ([`reach::explore`]), export to a CTMC (solved by
//! [`dtc_markov`]), and metric evaluation `P{expr}` / `E{#p}` over the
//! steady-state distribution (transient curves march the exported CTMC
//! through [`dtc_markov::curve`]).
//!
//! # Example: the paper's SIMPLE_COMPONENT
//!
//! ```
//! use dtc_petri::model::{PetriNetBuilder, ServerSemantics};
//! use dtc_petri::expr::IntExpr;
//! use dtc_petri::reach::{explore, ReachOptions};
//!
//! let mut b = PetriNetBuilder::new();
//! let on = b.place("X_ON", 1);
//! let off = b.place("X_OFF", 0);
//! b.timed_delay("X_Failure", 4000.0, ServerSemantics::Single).input(on).output(off).done();
//! b.timed_delay("X_Repair", 1.0, ServerSemantics::Single).input(off).output(on).done();
//! let net = b.build()?;
//!
//! let graph = explore(&net, &ReachOptions::default())?;
//! let solution = graph.solve()?;
//! let availability = solution.probability(&IntExpr::tokens(on).gt(0));
//! assert!((availability - 4000.0 / 4001.0).abs() < 1e-10);
//! # Ok::<(), dtc_petri::PetriError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod display;
pub mod dot;
pub mod error;
pub mod expr;
pub mod invariants;
pub mod model;
pub mod reach;

pub use display::NetDisplay;
pub use dot::to_dot;
pub use error::{PetriError, Result};
pub use expr::{BoolExpr, CmpOp, IntExpr};
pub use invariants::{
    check_invariants, incidence_matrix, place_invariants, transition_invariants, Invariant,
    InvariantError,
};
pub use model::{
    Marking, PetriNet, PetriNetBuilder, PlaceId, ServerSemantics, Transition,
    TransitionBuilder, TransitionId, TransitionKind,
};
pub use reach::{
    explore, explore_from, explore_from_fingerprinted, structural_fingerprint, ExploreStats,
    ReachOptions, ReachStats, Solution, TangibleGraph, TangibleStructure, VanishingPolicy,
};
