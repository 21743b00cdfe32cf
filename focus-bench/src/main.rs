//! `focus-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale full|smoke]`: one workload, one run. The last line of
//! standard output is the result as one JSON object; everything above it
//! is for people.

use focus_bench_harness::report::{END_TO_END, PER_LAYER};
use focus_bench_harness::workloads::Workload;
use focus_bench_harness::world::{Scale, FULL};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CrawlCpu,
        seed: 23,
        seconds: 10.0,
        trace: false,
        scale: FULL,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Workload::parse(&value).ok_or_else(bad)?,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => args.scale = Scale::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("focus-bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "focus-bench workload={} seed={} seconds={} trace={} scale={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.scale.name,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (report, defs) = if args.trace {
        match focus_bench_harness::traced(&args.scale, args.workload, args.seed, args.seconds) {
            Ok(report) => (report, PER_LAYER),
            Err(e) => {
                eprintln!("focus-bench: traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let report =
            focus_bench_harness::end_to_end(&args.scale, args.workload, args.seed, args.seconds);
        (report, END_TO_END)
    };
    if args.trace {
        for d in defs {
            let v = report.values.get(d.name).unwrap_or(f64::NAN);
            println!("{:<52} {v:>14.4} {}", d.name, d.unit);
        }
    }
    println!("{}", report.to_json(defs));
    ExitCode::SUCCESS
}
