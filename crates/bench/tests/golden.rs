//! Golden output: `repro all --scale 0.02 --jobs 1` must print exactly the
//! committed `tests/golden/repro_all_scale_0.02.txt`. Every section of the
//! reproduction is deterministic, so any byte of drift is a behaviour
//! change that must be made on purpose: regenerate the file with
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all --scale 0.02 --jobs 1 \
//!     > crates/bench/tests/golden/repro_all_scale_0.02.txt
//! ```
//!
//! and say why in the change that does it.

const GOLDEN: &str = include_str!("golden/repro_all_scale_0.02.txt");

#[test]
fn repro_all_matches_golden_output() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "0.02", "--jobs", "1"])
        .output()
        .expect("run repro all");
    assert!(
        out.status.success(),
        "repro all failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    if stdout != GOLDEN {
        let line = stdout
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| stdout.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "repro all --scale 0.02 drifted from the golden file at line {}:\n  now:    {:?}\n  golden: {:?}",
            line + 1,
            stdout.lines().nth(line),
            GOLDEN.lines().nth(line)
        );
    }
}
