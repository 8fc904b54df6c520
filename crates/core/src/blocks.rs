//! The paper's SPN building blocks (Section IV).
//!
//! Three generators add subnets to a shared [`PetriNetBuilder`]:
//!
//! * [`add_simple_component`] — Fig. 2 / Table I: a two-state repairable
//!   component (`X_ON`/`X_OFF`, exponential failure and repair, single
//!   server).
//! * [`add_vm_behavior`] — Fig. 3 / Tables II–III: the VMs hosted by one
//!   physical machine, with immediate flush-to-pool on infrastructure
//!   failure and immediate adoption from the pool under capacity.
//! * [`add_direct_transfer`] / [`add_backup_transfer`] — Fig. 4 / Tables
//!   IV–V: inter-data-center VM migration and Backup-Server restore paths.
//!
//! Guard expressions are built by [`infra_down_expr`]/[`infra_up_expr`] in
//! exactly the shape of the paper's Table II, and render identically through
//! [`dtc_petri::NetDisplay`].

use crate::params::{ComponentParams, VmParams};
use dtc_petri::expr::{BoolExpr, IntExpr};
use dtc_petri::model::{PetriNetBuilder, PlaceId, ServerSemantics, TransitionId};

/// Handle to a generated SIMPLE_COMPONENT subnet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleComponent {
    /// The `X_UP` place (1 token initially).
    pub up: PlaceId,
    /// The `X_DOWN` place.
    pub down: PlaceId,
    /// The failure transition.
    pub fail: TransitionId,
    /// The repair transition.
    pub repair: TransitionId,
}

/// Adds a SIMPLE_COMPONENT named `X` (places `X_UP`, `X_DOWN`; transitions
/// `X_Failure`, `X_Repair`), both transitions exponential single-server, as
/// in the paper's Fig. 2 and Table I.
pub fn add_simple_component(
    b: &mut PetriNetBuilder,
    name: &str,
    params: ComponentParams,
) -> SimpleComponent {
    add_simple_component_named(
        b,
        &format!("{name}_UP"),
        &format!("{name}_DOWN"),
        &format!("{name}_Failure"),
        &format!("{name}_Repair"),
        params,
    )
}

/// [`add_simple_component`] with every place/transition name spelled out,
/// so composed models can reproduce the paper's exact identifiers
/// (`OSPM_UP1`, `DC_UP2`, `DISASTER1`, …).
pub fn add_simple_component_named(
    b: &mut PetriNetBuilder,
    up_name: &str,
    down_name: &str,
    fail_name: &str,
    repair_name: &str,
    params: ComponentParams,
) -> SimpleComponent {
    let up = b.place(up_name, 1);
    let down = b.place(down_name, 0);
    let fail = b
        .timed_delay(fail_name, params.mttf_hours, ServerSemantics::Single)
        .input(up)
        .output(down)
        .done();
    let repair = b
        .timed_delay(repair_name, params.mttr_hours, ServerSemantics::Single)
        .input(down)
        .output(up)
        .done();
    SimpleComponent { up, down, fail, repair }
}

/// References to the infrastructure a PM's VMs depend on. `None` entries
/// drop the corresponding conjunct from the guards (e.g. a model without
/// disasters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfraRefs {
    /// `OSPM_UP` place of the hosting physical machine.
    pub ospm_up: PlaceId,
    /// `NAS_NET_UP` place of the data center's network, if modeled.
    pub nas_net_up: Option<PlaceId>,
    /// `DC_UP` place of the data center's disaster component, if modeled.
    pub dc_up: Option<PlaceId>,
}

/// Table II guard: `(#OSPM_UP=0) OR (#NAS_NET_UP=0) OR (#DC_UP=0)`.
pub fn infra_down_expr(infra: &InfraRefs) -> BoolExpr {
    let mut parts = vec![IntExpr::tokens(infra.ospm_up).eq(0)];
    if let Some(p) = infra.nas_net_up {
        parts.push(IntExpr::tokens(p).eq(0));
    }
    if let Some(p) = infra.dc_up {
        parts.push(IntExpr::tokens(p).eq(0));
    }
    BoolExpr::Or(parts)
}

/// Table II guard: `(#OSPM_UP>0) AND (#NAS_NET_UP>0) AND (#DC_UP>0)`.
pub fn infra_up_expr(infra: &InfraRefs) -> BoolExpr {
    let mut parts = vec![IntExpr::tokens(infra.ospm_up).gt(0)];
    if let Some(p) = infra.nas_net_up {
        parts.push(IntExpr::tokens(p).gt(0));
    }
    if let Some(p) = infra.dc_up {
        parts.push(IntExpr::tokens(p).gt(0));
    }
    BoolExpr::And(parts)
}

/// Handle to a generated VM_BEHAVIOR subnet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmBehavior {
    /// Operational VMs (`VM_UP`).
    pub vm_up: PlaceId,
    /// Failed VMs awaiting repair (`VM_DOWN`).
    pub vm_down: PlaceId,
    /// Repaired/adopted VMs booting (`VM_STG`, merging the paper's
    /// `VM_RDY`/`VM_STRTD` — see "Reconstruction choices" in
    /// `docs/ARCHITECTURE.md`).
    pub vm_stg: PlaceId,
    /// VM failure transition (infinite server).
    pub vm_f: TransitionId,
    /// VM repair transition (infinite server).
    pub vm_r: TransitionId,
    /// VM start transition (single server).
    pub vm_strt: TransitionId,
    /// Immediate adoption from the pool (`VM_Subs`).
    pub vm_subs: TransitionId,
}

/// Adds a VM_BEHAVIOR subnet for one physical machine.
///
/// * `suffix` — instance label, e.g. `"1"` (names become `VM_UP1` etc.).
/// * `initial_vms` — tokens initially in `VM_UP` (the PM's hot VMs).
/// * `capacity` — maximum VMs this PM hosts; enforced as a guard on
///   `VM_Subs` (`#VM_UP + #VM_DOWN + #VM_STG < capacity`).
/// * `pool` — the data center's `FailedVMS` pool place.
///
/// # Panics
///
/// Panics if `initial_vms > capacity` or `capacity == 0`.
pub fn add_vm_behavior(
    b: &mut PetriNetBuilder,
    suffix: &str,
    initial_vms: u32,
    capacity: u32,
    vm: VmParams,
    infra: &InfraRefs,
    pool: PlaceId,
) -> VmBehavior {
    assert!(capacity > 0, "PM capacity must be positive");
    assert!(
        initial_vms <= capacity,
        "initial VMs ({initial_vms}) exceed capacity ({capacity})"
    );
    let vm_up = b.place(format!("VM_UP{suffix}"), initial_vms);
    let vm_down = b.place(format!("VM_DOWN{suffix}"), 0);
    let vm_stg = b.place(format!("VM_STG{suffix}"), 0);

    let vm_f = b
        .timed_delay(format!("VM_F{suffix}"), vm.mttf_hours, ServerSemantics::Infinite)
        .input(vm_up)
        .output(vm_down)
        .done();
    let vm_r = b
        .timed_delay(format!("VM_R{suffix}"), vm.mttr_hours, ServerSemantics::Infinite)
        .input(vm_down)
        .output(vm_stg)
        .done();
    let vm_strt = b
        .timed_delay(format!("VM_STRT{suffix}"), vm.start_hours, ServerSemantics::Single)
        .input(vm_stg)
        .output(vm_up)
        .done();

    let down = infra_down_expr(infra);
    b.immediate(format!("FPM_UP{suffix}")).input(vm_up).output(pool).guard(down.clone()).done();
    b.immediate(format!("FPM_DW{suffix}"))
        .input(vm_down)
        .output(pool)
        .guard(down.clone())
        .done();
    b.immediate(format!("FPM_ST{suffix}")).input(vm_stg).output(pool).guard(down).done();

    let capacity_free = IntExpr::tokens_sum([vm_up, vm_down, vm_stg]).lt(capacity as i64);
    let vm_subs = b
        .immediate(format!("VM_Subs{suffix}"))
        .input(pool)
        .output(vm_stg)
        .guard(infra_up_expr(infra).and(capacity_free))
        .done();

    VmBehavior { vm_up, vm_down, vm_stg, vm_f, vm_r, vm_strt, vm_subs }
}

/// Handle to one direction of a transfer path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPath {
    /// In-flight place (`TRP_ij` / `TBP_ij`).
    pub in_flight: PlaceId,
    /// The immediate enabling transition (`TRI_ij` / `TBI_ij`).
    pub start: TransitionId,
    /// The exponential transfer transition (`TRE_ij` / `TBE_ij`).
    pub transfer: TransitionId,
}

/// Adds the direct data-center-to-data-center migration path `i → j`
/// (paper transitions `TRI_ij` + `TRE_ij`): an immediate guarded move from
/// `pool_from` into an in-flight place, then an exponential transfer with
/// mean `mtt_hours` (single server — transfers are serialized on the link)
/// into `pool_to`.
pub fn add_direct_transfer(
    b: &mut PetriNetBuilder,
    from: &str,
    to: &str,
    pool_from: PlaceId,
    pool_to: PlaceId,
    mtt_hours: f64,
    guard: BoolExpr,
) -> TransferPath {
    let in_flight = b.place(format!("TRP_{from}{to}"), 0);
    let start = b
        .immediate(format!("TRI_{from}{to}"))
        .input(pool_from)
        .output(in_flight)
        .guard(guard)
        .done();
    let transfer = b
        .timed_delay(format!("TRE_{from}{to}"), mtt_hours, ServerSemantics::Single)
        .input(in_flight)
        .output(pool_to)
        .done();
    TransferPath { in_flight, start, transfer }
}

/// Adds the Backup-Server restore path into data center `j` (paper
/// transitions `TBI_ij` + `TBE_ij`), used when the source data center's
/// storage is unreadable (disaster or network failure): the Backup Server
/// pushes its copy of each image to the destination with mean `mtt_hours`.
pub fn add_backup_transfer(
    b: &mut PetriNetBuilder,
    from: &str,
    to: &str,
    pool_from: PlaceId,
    pool_to: PlaceId,
    mtt_hours: f64,
    guard: BoolExpr,
) -> TransferPath {
    let in_flight = b.place(format!("TBP_{from}{to}"), 0);
    let start = b
        .immediate(format!("TBI_{from}{to}"))
        .input(pool_from)
        .output(in_flight)
        .guard(guard)
        .done();
    let transfer = b
        .timed_delay(format!("TBE_{from}{to}"), mtt_hours, ServerSemantics::Single)
        .input(in_flight)
        .output(pool_to)
        .done();
    TransferPath { in_flight, start, transfer }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_petri::reach::{explore, ReachOptions};

    fn vm_params() -> VmParams {
        VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 1.0 / 12.0 }
    }

    #[test]
    fn simple_component_availability_matches_closed_form() {
        let mut b = PetriNetBuilder::new();
        let c = add_simple_component(&mut b, "DC", ComponentParams::new(876_000.0, 8760.0));
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        let sol = g.solve().unwrap();
        let a = sol.probability(&IntExpr::tokens(c.up).gt(0));
        assert!((a - 100.0 / 101.0).abs() < 1e-10);
    }

    #[test]
    fn guard_expressions_render_like_the_paper() {
        let mut b = PetriNetBuilder::new();
        let ospm = add_simple_component(&mut b, "OSPM1", ComponentParams::new(100.0, 1.0));
        let nas = add_simple_component(&mut b, "NAS_NET1", ComponentParams::new(100.0, 1.0));
        let dc = add_simple_component(&mut b, "DC1", ComponentParams::new(100.0, 1.0));
        let infra =
            InfraRefs { ospm_up: ospm.up, nas_net_up: Some(nas.up), dc_up: Some(dc.up) };
        let net_b = infra_down_expr(&infra);
        let pool = b.place("POOL", 0);
        let _ = pool;
        let net = b.build().unwrap();
        let shown = net.display_expr(&net_b).to_string();
        assert_eq!(shown, "((#OSPM1_UP=0) OR (#NAS_NET1_UP=0) OR (#DC1_UP=0))");
    }

    #[test]
    fn vm_behavior_flushes_on_infra_failure() {
        // One PM with infra; in every tangible state with OSPM down, the VM
        // places must be empty (tokens flushed to the pool).
        let mut b = PetriNetBuilder::new();
        let ospm = add_simple_component(&mut b, "OSPM1", ComponentParams::new(1000.0, 12.0));
        let pool = b.place("POOL_1", 0);
        let infra = InfraRefs { ospm_up: ospm.up, nas_net_up: None, dc_up: None };
        let vmb = add_vm_behavior(&mut b, "1", 2, 2, vm_params(), &infra, pool);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        for m in g.states() {
            let ospm_down = m[ospm.up.index()] == 0;
            if ospm_down {
                assert_eq!(m[vmb.vm_up.index()], 0, "VM_UP tokens on dead PM: {m:?}");
                assert_eq!(m[vmb.vm_down.index()], 0);
                assert_eq!(m[vmb.vm_stg.index()], 0);
                assert_eq!(m[pool.index()], 2);
            }
            // Token conservation.
            let total = m[vmb.vm_up.index()]
                + m[vmb.vm_down.index()]
                + m[vmb.vm_stg.index()]
                + m[pool.index()];
            assert_eq!(total, 2);
        }
        // Availability of >=1 VM is below the PM's own availability.
        let sol = g.solve().unwrap();
        let a_vm = sol.probability(&IntExpr::tokens(vmb.vm_up).ge(1));
        let a_pm = sol.probability(&IntExpr::tokens(ospm.up).gt(0));
        assert!(a_vm < a_pm);
        assert!(a_vm > 0.97, "sanity: {a_vm}");
    }

    #[test]
    fn capacity_guard_blocks_adoption() {
        // Two PMs share a pool; PM1 starts with 2 VMs (at capacity), PM2
        // empty with capacity 1. Initial marking resolution must keep pool
        // tokens only when no capacity anywhere.
        let mut b = PetriNetBuilder::new();
        let ospm1 = add_simple_component(&mut b, "OSPM1", ComponentParams::new(1000.0, 12.0));
        let ospm2 = add_simple_component(&mut b, "OSPM2", ComponentParams::new(1000.0, 12.0));
        let pool = b.place("POOL_1", 3);
        let infra1 = InfraRefs { ospm_up: ospm1.up, nas_net_up: None, dc_up: None };
        let infra2 = InfraRefs { ospm_up: ospm2.up, nas_net_up: None, dc_up: None };
        let vmb1 = add_vm_behavior(&mut b, "1", 0, 2, vm_params(), &infra1, pool);
        let vmb2 = add_vm_behavior(&mut b, "2", 0, 1, vm_params(), &infra2, pool);
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        for m in g.states() {
            let pm1 = m[vmb1.vm_up.index()] + m[vmb1.vm_down.index()] + m[vmb1.vm_stg.index()];
            let pm2 = m[vmb2.vm_up.index()] + m[vmb2.vm_down.index()] + m[vmb2.vm_stg.index()];
            assert!(pm1 <= 2, "PM1 over capacity: {m:?}");
            assert!(pm2 <= 1, "PM2 over capacity: {m:?}");
            // Pool non-empty only if every live PM is full.
            if m[pool.index()] > 0 {
                let pm1_can = m[ospm1.up.index()] > 0 && pm1 < 2;
                let pm2_can = m[ospm2.up.index()] > 0 && pm2 < 1;
                assert!(!pm1_can && !pm2_can, "pool tokens with free capacity: {m:?}");
            }
        }
    }

    #[test]
    fn direct_transfer_moves_pool_tokens() {
        // Pool tokens drain through the in-flight place when the guard holds.
        let mut b = PetriNetBuilder::new();
        let src = b.place("POOL_1", 2);
        let dst = b.place("POOL_2", 0);
        let gate = add_simple_component(&mut b, "GATE", ComponentParams::new(10.0, 10.0));
        let path = add_direct_transfer(
            &mut b,
            "1",
            "2",
            src,
            dst,
            5.0,
            IntExpr::tokens(gate.up).eq(0),
        );
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        let sol = g.solve().unwrap();
        // Tokens end up in POOL_2 eventually (no way back), so steady state
        // has everything in dst.
        assert!((sol.expected_tokens(dst) - 2.0).abs() < 1e-6);
        assert!(sol.expected_tokens(src).abs() < 1e-9);
        assert!(sol.expected_tokens(path.in_flight).abs() < 1e-9);
    }

    #[test]
    fn transfer_is_single_server() {
        // With 2 tokens in flight the transfer rate must stay 1/mtt (ss),
        // not 2/mtt: verify via the generator matrix of a tiny net.
        let mut b = PetriNetBuilder::new();
        let src = b.place("S", 2);
        let dst = b.place("D", 0);
        b.timed_delay("TRE", 4.0, ServerSemantics::Single).input(src).output(dst).done();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        let idx2 = g.state_index(&[2, 0]).unwrap();
        let idx1 = g.state_index(&[1, 1]).unwrap();
        let q = g.ctmc().generator();
        assert!((q.get(idx2, idx1) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn overfull_pm_panics() {
        let mut b = PetriNetBuilder::new();
        let ospm = add_simple_component(&mut b, "OSPM1", ComponentParams::new(1.0, 1.0));
        let pool = b.place("POOL", 0);
        let infra = InfraRefs { ospm_up: ospm.up, nas_net_up: None, dc_up: None };
        add_vm_behavior(&mut b, "1", 3, 2, vm_params(), &infra, pool);
    }
}
