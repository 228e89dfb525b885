//! `vine-e2e`: the end-to-end benchmark of vine-rs. One process drives
//! the public crate APIs under a seeded workload, checks every result
//! against an interpreter replay, and prints end-to-end metrics (tracing
//! off) or per-layer metrics (tracing on) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path vine-e2e/Cargo.toml -- \
//!     --workload lnni-inproc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` there and
//! refuses to print a metric that file does not declare.

mod apps;
mod gen;
mod live;
mod proc;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use apps::Shape;
use live::Substrate;
use report::{Declared, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::Measured;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LnniInproc,
    LnniTcp,
    LnniStateless,
    ExamolDag,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LnniInproc,
        Workload::LnniTcp,
        Workload::LnniStateless,
        Workload::ExamolDag,
    ];

    /// Whether `BENCHMARK.json` declares this workload. `lnni-stateless`
    /// strands units at random (see README, "Known defects"), so two runs
    /// of the same code do not fail the same number of units; it stays
    /// runnable by hand to show the defect until the program is fixed.
    pub fn in_benchmark(self) -> bool {
        self != Workload::LnniStateless
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LnniInproc => "lnni-inproc",
            Workload::LnniTcp => "lnni-tcp",
            Workload::LnniStateless => "lnni-stateless",
            Workload::ExamolDag => "examol-dag",
        }
    }

    fn run(self, seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
        match self {
            Workload::LnniInproc => {
                workloads::lnni(Substrate::InProc, Shape::Library, seed, seconds, traced)
            }
            Workload::LnniTcp => {
                workloads::lnni(Substrate::Tcp, Shape::Library, seed, seconds, traced)
            }
            Workload::LnniStateless => {
                workloads::lnni(Substrate::InProc, Shape::Task, seed, seconds, traced)
            }
            Workload::ExamolDag => workloads::examol_dag(seed, seconds, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// End-to-end values must all be measured and positive.
fn check_end_to_end(m: &Measured) -> Result<(), String> {
    for (name, _) in END_TO_END {
        match m.values.get(name) {
            Some(v) if *v > 0.0 && v.is_finite() => {}
            other => return Err(format!("end-to-end metric {name} not measured: {other:?}")),
        }
    }
    Ok(())
}

fn print_phases(workload: Workload, m: &Measured) {
    eprintln!(
        "# {} phases: attempted / succeeded / failed / mismatched",
        workload.name()
    );
    for (phase, t) in &m.phases {
        eprintln!(
            "#   {phase:<11} {:>8} {:>8} {:>6} {:>6}",
            t.attempted, t.succeeded, t.failed, t.mismatched
        );
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the working directory: {e}"))?;
    let declared = Declared::parse(&declared)?;
    declared.check()?;
    let is_declared = declared.workloads.iter().any(|w| w == args.workload.name());
    if is_declared != args.workload.in_benchmark() {
        return Err(format!(
            "{} is {}declared in BENCHMARK.json",
            args.workload.name(),
            if is_declared { "" } else { "not " }
        ));
    }
    if !is_declared {
        eprintln!(
            "# {} is not part of the benchmark: it strands units at random (README, \"Known defects\")",
            args.workload.name()
        );
    }

    if !args.trace {
        let m = measure(args.workload, args.seed, args.seconds, false)?;
        let tally = m.tally();
        let metrics = report::metrics_json(END_TO_END, &m.values)?;
        return Ok(report::result_line(
            m.correct(),
            tally.attempted,
            tally.failed,
            &metrics,
        ));
    }

    // a traced run measures the workload twice, untraced then traced, each
    // for half the time, so the two sets of end-to-end figures side by side
    // show what tracing costs
    let half = args.seconds / 2.0;
    let untraced = measure(args.workload, args.seed, half, false)?;
    let mut traced = measure(args.workload, args.seed, half, true)?;
    eprintln!("# end-to-end over {half} s each: untraced, traced");
    for (name, unit) in END_TO_END {
        let (u, t) = (untraced.values[name], traced.values[name]);
        eprintln!(
            "#   {name:<24} {u:>14.3} {t:>14.3} {unit:<5} {:+6.1}%",
            (t / u - 1.0) * 100.0
        );
        let twin = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("traced.") == Some(name))
            .expect("every end-to-end metric has a traced twin");
        traced.values.insert(twin, t);
    }
    traced.values.insert(
        "tracing.throughput_overhead_pct",
        (untraced.values["throughput_ups"] / traced.values["throughput_ups"] - 1.0) * 100.0,
    );
    eprint!("{}", traced.spans);
    let metrics = report::metrics_json(PER_LAYER, &traced.values)?;
    let mut tally = untraced.tally();
    tally.add(traced.tally());
    let correct = untraced.correct() && traced.correct();
    Ok(report::result_line(
        correct,
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

/// One pass over a workload, with its phase counts on stderr.
fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Measured, String> {
    proc::reset_peak_rss();
    let m = workload.run(seed, seconds, traced)?;
    print_phases(workload, &m);
    check_end_to_end(&m)?;
    Ok(m)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vine-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
