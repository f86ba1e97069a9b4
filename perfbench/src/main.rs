//! `perfbench --workload <forward|session|failover> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's metadata, its checks and every figure with its unit,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics of the named workload
//! with `--trace 0`, the per-layer metrics of every workload with
//! `--trace 1`.

use std::process::ExitCode;

use perfbench::{run, traced, Config, WORKLOADS};

/// Cargo features the stack is built with: the facade's defaults, with
/// `profile` and `parallel` off.
const FEATURES: &str = "default(trace)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} features={FEATURES} commit={} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_RUSTC"),
    );
    let cfg = Config::full(args.seed, args.seconds);
    let outcome = if args.trace {
        traced(&cfg)
    } else {
        run(&args.workload, &cfg).expect("workload name was validated")
    };
    print!("{}", outcome.render());
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
