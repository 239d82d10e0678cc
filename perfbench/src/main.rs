//! Command-line entry point; see the crate docs and `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::harness;
use perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/target/perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload exact_sweep|window_sweep|prove|edit_loop \
                 --seed N --seconds S --trace 0|1 [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        let (report, tracer) = harness::traced(args.workload, args.seed);
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
        report
    } else {
        harness::untraced(args.workload, args.seed, args.seconds)
    };
    println!(
        "{}",
        report.info_json(args.workload, args.seed, args.seconds)
    );
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
