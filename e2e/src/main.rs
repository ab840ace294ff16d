//! `e2e` — the repository benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! e2e run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! e2e trace   ...                     # same as `run --trace 1`
//! e2e compare A.json B.json
//! ```
//!
//! Without `--workload`, `run` runs the five workloads one after the
//! other, each in a process of its own (so that peak RSS is per
//! workload), and ends with a summary whose last field is `"claim": null`.

mod api;
mod host;
mod inputs;
mod layers;
mod metrics;
mod oracle;
mod pinned;
mod probes;
mod report;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use report::{median, quantile, RunResult};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Pass, Scale, Workload};

#[global_allocator]
static ALLOCATOR: host::Counting = host::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e run|trace [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      e2e compare A.json B.json\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(mode: &str, rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 8.0,
        traced: mode == "trace",
        out: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.traced = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out" => args.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let Some(mode) = argv.get(1).map(String::as_str) else {
        return usage();
    };
    match mode {
        "compare" => match (argv.get(2), argv.get(3)) {
            (Some(a), Some(b)) => match report::compare(a, b) {
                Ok(worse) => ExitCode::from(u8::from(worse)),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage(),
        },
        "run" | "trace" => {
            let args = match parse_args(mode, &argv[2..]) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            // Configuration is by command line only: a stray knob in the
            // environment would silently measure something else.
            if let Some((key, _)) = std::env::vars_os()
                .find(|(k, _)| k.to_str().is_some_and(|k| k.starts_with("MVIO_")))
            {
                eprintln!("refusing to run with {key:?} set: the benchmark measures the defaults");
                return ExitCode::from(2);
            }
            match &args.workload {
                Some(name) => run_one(name, &args),
                None => run_suite(&args),
            }
        }
        _ => usage(),
    }
}

/// Runs every workload in a child process each and prints the summary.
fn run_suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = Vec::new();
    let mut ok = true;
    for name in workloads::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        // `output` waits for the child and collects what it printed.
        match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(child) => {
                let text = String::from_utf8_lossy(&child.stdout);
                print!("{text}");
                ok &= child.status.success();
                if let Some(last) = text.lines().last().filter(|_| child.status.success()) {
                    lines.push(format!("\"{name}\": {last}"));
                }
            }
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
            }
        }
    }
    println!(
        "{{\"seed\": {}, \"workloads\": {{{}}}, \"claim\": null}}",
        args.seed,
        lines.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if args.traced { 1 } else { SETUPS } {
        drop(built.take()); // one set of inputs alive at a time
        let t = Instant::now();
        let Some(w) = workloads::build(name, args.seed, 1) else {
            eprintln!("unknown workload {name}");
            return usage();
        };
        setups.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let w: Box<dyn Workload> = built.expect("at least one set-up");
    println!("== {name}  seed {}  {} ops per pass", args.seed, w.ops());
    let inputs = w.inputs();
    for (input, size, digest) in &inputs {
        println!("   input {input}: size {size}, fnv1a {digest:#018x}");
    }
    println!("   reference: {}", w.reference_note());
    if let Err(e) = pinned::check(name, args.seed, &inputs) {
        eprintln!("{name}: {e}");
        return ExitCode::FAILURE;
    }

    // One discarded pass: page faults and lazy set-up are not what users
    // pay on every run of a resident system.
    let mut verdict = w.pass(Scale::R16, false).verdict;
    let mut passes: Vec<Pass> = Vec::new();
    let timed = Instant::now();
    // A traced run still needs untraced passes, to measure the tracing
    // overhead against.
    let budget = if args.traced { 0.0 } else { args.seconds };
    while passes.len() < MIN_PASSES || timed.elapsed().as_secs_f64() < budget {
        let mut pass = w.pass(Scale::R16, false);
        verdict.absorb(std::mem::take(&mut pass.verdict));
        passes.push(pass);
    }

    let values = if args.traced {
        let mut traced = w.pass(Scale::R16, true);
        verdict.absorb(std::mem::take(&mut traced.verdict));
        let mut probe_values = probes::msim();
        let (text, left, right) = w.sample();
        probe_values.extend(probes::geom(&text, left, right));
        // Single passes are too noisy to take a difference of: the
        // overhead compares medians of as many traced as untraced passes.
        let mut traced_host = vec![layers::main_calls_host_s(&traced)];
        while traced_host.len() < passes.len() {
            let mut again = w.pass(Scale::R16, true);
            verdict.absorb(std::mem::take(&mut again.verdict));
            traced_host.push(layers::main_calls_host_s(&again));
        }
        let untraced_host: Vec<f64> = passes.iter().map(|p| p.host_s).collect();
        let overhead = median(&traced_host) / median(&untraced_host) - 1.0;
        let values = layers::per_layer(&*w, overhead, &traced, probe_values);
        match write_trace(name, &traced) {
            Ok(path) => println!("   trace: {path}"),
            Err(e) => eprintln!("{name}: cannot write the trace: {e}"),
        }
        values
    } else {
        let mut r64 = w.pass(Scale::R64, false);
        verdict.absorb(std::mem::take(&mut r64.verdict));
        end_to_end(&setups, &passes, &r64)
    };

    let table = if args.traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    // In registry order, and every registered metric exactly once.
    let values: Vec<(&'static str, f64)> = table
        .iter()
        .map(|m| {
            let measured = values.iter().find(|(n, _)| *n == m.name);
            let (_, value) = measured.unwrap_or_else(|| panic!("{} was not measured", m.name));
            println!("   {:<44} {value:>18.6} {}", m.name, m.unit);
            (m.name, *value)
        })
        .collect();
    let host: Vec<f64> = passes.iter().map(|p| p.host_s).collect();
    println!(
        "   host_s over the timed passes: min {:.4}, median {:.4}, max {:.4}",
        quantile(&host, 0.0),
        median(&host),
        quantile(&host, 1.0)
    );
    println!(
        "   {} timed passes, failed_frac {} ({} of {} operations), {:.1} s in all",
        passes.len(),
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted,
        started.elapsed().as_secs_f64()
    );
    if let Some(offender) = &verdict.first_offender {
        eprintln!("{name}: first offender: {offender}");
    }

    let result = RunResult {
        workload: name.to_string(),
        seed: args.seed,
        traced: args.traced,
        attempted: verdict.attempted.max(1),
        failed: verdict.failed,
        values,
    };
    if let Some(out) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{}", result.record_line()));
        if let Err(e) = appended {
            eprintln!("{out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.result_line());
    if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(setups: &[f64], passes: &[Pass], r64: &Pass) -> probes::Values {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Passes repeat the same operations, so their latencies pool.
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    vec![
        ("setup_s", median(setups) + med(&|p| p.prep_host_s)),
        ("virtual_s", med(&|p| p.virtual_s)),
        ("virtual_s_r64", r64.virtual_s),
        ("host_s", med(&|p| p.host_s)),
        // Counts repeat exactly from pass to pass; the first timed pass
        // stands for all of them.
        ("host_allocs", passes[0].allocs as f64),
        ("host_alloc_mb", passes[0].alloc_bytes as f64 / 1e6),
        ("host_peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0)),
        ("load_imbalance", passes[0].load_imbalance),
        ("query_p50_virtual_ms", quantile(&latencies, 0.50)),
        ("query_p99_virtual_ms", quantile(&latencies, 0.99)),
    ]
}

/// Writes the traced pass as Chrome-trace JSON under the build directory
/// (inside the checkout) and returns the path.
fn write_trace(name: &str, traced: &Pass) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&dir).join("e2e");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{name}.json"));
    std::fs::write(&path, trace::SpanSet::new(&traced.spans).chrome_trace(name))?;
    Ok(path.display().to_string())
}
