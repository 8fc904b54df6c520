//! Character-level fidelity of the generated guard expressions against the
//! paper's Tables II and IV (with the two reconstruction choices listed
//! in `docs/ARCHITECTURE.md`: `VM_RDY`/`VM_STRTD` merged into `VM_STG`,
//! and the `TRI_21` guard typo corrected). `describe_models` prints
//! these; this test pins them so refactors cannot silently change the
//! model.

use dtcloud::core::prelude::*;
use dtcloud::geo::BRASILIA;

fn paper_model() -> CloudModel {
    let cs = CaseStudy::paper();
    CloudModel::build(&cs.two_dc_spec(&BRASILIA, 0.35, 100.0)).expect("builds")
}

fn guard_of(model: &CloudModel, transition: &str) -> String {
    let net = model.net();
    let t =
        net.transition(transition).unwrap_or_else(|| panic!("transition {transition} exists"));
    net.display_expr(&net.transition_def(t).guard).to_string()
}

#[test]
fn table_ii_vm_behavior_guards() {
    let model = paper_model();
    // Flush guards: failure of physical machine or infrastructure.
    for pm in 1..=4 {
        let dc = if pm <= 2 { 1 } else { 2 };
        let expect = format!("((#OSPM_UP{pm}=0) OR (#NAS_NET_UP{dc}=0) OR (#DC_UP{dc}=0))");
        for prefix in ["FPM_UP", "FPM_DW", "FPM_ST"] {
            assert_eq!(guard_of(&model, &format!("{prefix}{pm}")), expect);
        }
        // Adoption guard: infrastructure working AND capacity available.
        let subs = guard_of(&model, &format!("VM_Subs{pm}"));
        assert!(subs.starts_with(&format!(
            "((#OSPM_UP{pm}>0) AND (#NAS_NET_UP{dc}>0) AND (#DC_UP{dc}>0)"
        )));
        assert!(subs.contains(&format!("((#VM_UP{pm} + #VM_DOWN{pm} + #VM_STG{pm})<2)")));
    }
}

#[test]
fn table_iv_transmission_guards() {
    let model = paper_model();
    // TRI_12: all DC1 PMs down, source readable, destination operational.
    assert_eq!(
        guard_of(&model, "TRI_12"),
        "(((#OSPM_UP1 + #OSPM_UP2)<1) AND ((#NAS_NET_UP1>0) AND (#DC_UP1>0)) AND \
         (((#OSPM_UP3 + #OSPM_UP4)>0) AND (#NAS_NET_UP2>0) AND (#DC_UP2>0)))"
    );
    // TRI_21 is the symmetric guard (the paper's #DC_UP2=1 typo corrected).
    assert_eq!(
        guard_of(&model, "TRI_21"),
        "(((#OSPM_UP3 + #OSPM_UP4)<1) AND ((#NAS_NET_UP2>0) AND (#DC_UP2>0)) AND \
         (((#OSPM_UP1 + #OSPM_UP2)>0) AND (#NAS_NET_UP1>0) AND (#DC_UP1>0)))"
    );
    // TBI_12: backup up, DC1 storage unreadable, DC2 operational.
    assert_eq!(
        guard_of(&model, "TBI_12"),
        "((#BKP_UP>0) AND ((#NAS_NET_UP1=0) OR (#DC_UP1=0)) AND \
         (((#OSPM_UP3 + #OSPM_UP4)>0) AND (#NAS_NET_UP2>0) AND (#DC_UP2>0)))"
    );
    assert_eq!(
        guard_of(&model, "TBI_21"),
        "((#BKP_UP>0) AND ((#NAS_NET_UP2=0) OR (#DC_UP2=0)) AND \
         (((#OSPM_UP1 + #OSPM_UP2)>0) AND (#NAS_NET_UP1>0) AND (#DC_UP1>0)))"
    );
}

#[test]
fn table_iii_and_v_transition_attributes() {
    use dtcloud::petri::{ServerSemantics, TransitionKind};
    let model = paper_model();
    let net = model.net();
    let kind =
        |name: &str| net.transition_def(net.transition(name).expect("transition")).kind.clone();
    // VM_F/VM_R infinite server; VM_STRT single server (Table III).
    for pm in 1..=4 {
        match kind(&format!("VM_F{pm}")) {
            TransitionKind::Timed { rate, semantics } => {
                assert!((1.0 / rate - 2880.0).abs() < 1e-9);
                assert_eq!(semantics, ServerSemantics::Infinite);
            }
            other => panic!("VM_F{pm} not timed: {other:?}"),
        }
        match kind(&format!("VM_STRT{pm}")) {
            TransitionKind::Timed { rate, semantics } => {
                assert!((1.0 / rate - 1.0 / 12.0).abs() < 1e-9);
                assert_eq!(semantics, ServerSemantics::Single);
            }
            other => panic!("VM_STRT{pm} not timed: {other:?}"),
        }
    }
    // Transfers single-server with equal MTT both directions (Table V).
    let (tre12, tre21) = (kind("TRE_12"), kind("TRE_21"));
    match (tre12, tre21) {
        (
            TransitionKind::Timed { rate: r12, semantics: s12 },
            TransitionKind::Timed { rate: r21, semantics: s21 },
        ) => {
            assert!((r12 - r21).abs() < 1e-12, "MTT_DCS symmetric");
            assert_eq!(s12, ServerSemantics::Single);
            assert_eq!(s21, ServerSemantics::Single);
        }
        other => panic!("transfers not timed: {other:?}"),
    }
    // Backup restores differ per destination (São Paulo is nearer to Rio).
    match (kind("TBE_21"), kind("TBE_12")) {
        (
            TransitionKind::Timed { rate: into_dc1, .. },
            TransitionKind::Timed { rate: into_dc2, .. },
        ) => {
            assert!(into_dc1 > into_dc2, "restore into Rio (closer to backup) must be faster");
        }
        other => panic!("backup transfers not timed: {other:?}"),
    }
}

#[test]
fn availability_metric_matches_section_iv_e() {
    let model = paper_model();
    let shown = model.net().display_expr(&model.availability_expr()).to_string();
    assert_eq!(
        shown, "((#VM_UP1 + #VM_UP2 + #VM_UP3 + #VM_UP4)>=2)",
        "the paper's P{{#VM_UP1+#VM_UP2+#VM_UP3+#VM_UP4 >= k}} with k = 2"
    );
}
