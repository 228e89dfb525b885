//! Acceptance pin for `repro analyze`: on the naive LNNI user module,
//! context discovery hoists 7 of the 8 module statements, one of them
//! (`capacity = served + 4096`) by constant folding through the mutated
//! counter, and the CLI prints exactly that.

use vine_lang::ast::StmtKind;

const WORK: [&str; 2] = ["classify", "remaining"];

fn module_statement_count(src: &str) -> usize {
    vine_lang::parse(src)
        .unwrap()
        .iter()
        .filter(|s| !matches!(s.kind, StmtKind::FuncDef(_)))
        .count()
}

#[test]
fn flow_hoists_seven_of_eight_on_lnni_user() {
    let src = vine_apps::lnni::LNNI_USER_SOURCE;
    assert_eq!(module_statement_count(src), 8);
    let flow = vine_flow::discover(src, &WORK).unwrap();
    assert_eq!(flow.hoisted.len(), 7, "{:?}", flow.hoisted);
    assert_eq!(flow.folded, 1);
    assert_eq!(flow.context.residue, vec!["served = 0;".to_string()]);
    assert!(flow
        .hoisted
        .iter()
        .any(|h| h.source == "capacity = 4096;" && h.folded_from.is_some()));
    assert!(flow.context.provides.contains(&"capacity".to_string()));
    assert!(!flow.context.provides.contains(&"served".to_string()));
}

#[test]
fn repro_analyze_prints_fold_and_checks_clean() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["analyze", "--check"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run repro analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repro analyze --check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("== lnni-user =="), "{stdout}");
    assert!(stdout.contains("== examol =="), "{stdout}");
    let lnni = stdout.split("== lnni-user ==").nth(1).unwrap();
    let section = lnni.split("\n\n").next().unwrap();
    assert!(
        section.contains("flow:      hoisted 7/8 (1 folded), residue 1\n"),
        "{section}"
    );
    assert!(
        section.contains("fold:  capacity = 4096;  <-  capacity = (served + 4096);"),
        "no fold annotation:\n{section}"
    );
}
