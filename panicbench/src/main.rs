//! Command line: `panicbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` prints a human-readable report and, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `panicbench --print-digests` prints the digest table of
//! `src/digests.rs` for the recorded seeds.

use std::fmt::Write as _;
use std::process::ExitCode;

use panicbench::run::{run, RunResult, Settings};
use panicbench::sims::{self, Workload};
use panicbench::spans::Spans;

const USAGE: &str = "usage: panicbench --workload <nic_knee|nic_sparse|kvs_mix|rack_ring> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] | --print-digests";

fn parse(args: &[String]) -> Result<Option<Settings>, String> {
    if args.iter().any(|a| a == "--print-digests") {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, panicbench::DEFAULT_SEED, 15.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| *v > 0.0 && v.is_finite())
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

/// The result as the one-line JSON object the last line carries.
fn json(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, (name, m)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_digests() {
    for seed in [panicbench::DEFAULT_SEED, 2] {
        for w in Workload::ALL {
            let mut sim = sims::build(w, seed, panicbench::run::THREADS);
            let mut spans = Spans::new(false);
            sim.advance(w.shape().horizon(), &mut spans);
            let d = format!("{:016x}", sim.finish().digest);
            println!(
                "    (\"{}\", {seed}, 0x{}_{}_{}_{}),",
                w.name(),
                &d[0..4],
                &d[4..8],
                &d[8..12],
                &d[12..16]
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(Some(s)) => s,
        Ok(None) => {
            print_digests();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = run(&settings);
    for line in &r.lines {
        println!("{line}");
    }
    if let Some(why) = &r.refused {
        eprintln!("refusing to report: {why}");
        return ExitCode::from(3);
    }
    for (name, m) in &r.metrics {
        println!("{name} = {} {}", m.value, m.unit);
    }
    println!("{}", json(&r));
    ExitCode::SUCCESS
}
