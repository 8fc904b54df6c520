//! # dtcloud — disaster-tolerant cloud dependability models
//!
//! A Rust reproduction of *"Dependability Models for Designing Disaster
//! Tolerant Cloud Computing Systems"* (Bruno Silva, Paulo Maciel, Eduardo
//! Tavares, Armin Zimmermann — DSN 2013).
//!
//! The paper evaluates the availability of IaaS clouds deployed across
//! geographically distributed data centers, accounting for disasters and for
//! VM migration times that grow with distance. Its method is hierarchical:
//! Reliability Block Diagrams fold component chains into equivalent
//! MTTF/MTTR pairs, which parameterize Generalized Stochastic Petri Net
//! blocks composed into a full-system model solved as a CTMC.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`obs`] | dependency-free metrics/tracing: counters, histograms, spans, Prometheus exposition |
//! | [`markov`] | sparse CTMC solvers (steady-state, transient, absorbing) |
//! | [`petri`] | GSPN modeling, reachability, vanishing-marking elimination |
//! | [`rbd`] | reliability block diagrams and MTTF/MTTR folding |
//! | [`sim`] | discrete-event GSPN simulation with confidence intervals |
//! | [`geo`] | case-study cities, distances, PingER-style throughput |
//! | [`core`] | the paper's blocks, system compiler, metrics and case study |
//! | [`engine`] | declarative scenario catalogs, content-addressed evaluation cache, `dtc` CLI |
//! | [`search`] | SLO-driven design search: feasible set, cost/availability Pareto frontier, break-even disaster rates |
//! | [`serve`] | concurrent HTTP evaluation service with single-flight caching + loadgen |
//!
//! The paper's tables and figures are regenerated by the `dtc-bench`
//! binaries (`table7`, `fig7`, …). The benchmark is `perfbench/`, a
//! standalone package with its own cargo workspace that drives these
//! crates end to end (see `perfbench/README.md`).
//!
//! # Example
//!
//! ```
//! use dtcloud::core::prelude::*;
//!
//! // The paper's SIMPLE_COMPONENT, straight from Table VI's OS row.
//! let mut b = dtcloud::petri::PetriNetBuilder::new();
//! let os = add_simple_component(&mut b, "OS", ComponentParams::new(4000.0, 1.0));
//! let net = b.build()?;
//! let graph = dtcloud::petri::explore(&net, &Default::default())?;
//! let sol = graph.solve()?;
//! let avail = sol.probability(&dtcloud::petri::IntExpr::tokens(os.up).gt(0));
//! assert!((avail - 4000.0 / 4001.0).abs() < 1e-10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dtc_core as core;
pub use dtc_engine as engine;
pub use dtc_geo as geo;
pub use dtc_markov as markov;
pub use dtc_obs as obs;
pub use dtc_petri as petri;
pub use dtc_rbd as rbd;
pub use dtc_search as search;
pub use dtc_serve as serve;
pub use dtc_sim as sim;
