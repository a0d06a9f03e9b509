//! `megabench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! Exits 1 when an output check fails or an operation fails, 2 on bad
//! arguments or an I/O failure of its work directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use megabench::layers::{self, SELF_TIME_LAYERS};
use megabench::pipeline::{self, Outcome};
use megabench::report::{self, Metric, E2E};
use megabench::workload::{Plan, Workload};

/// Everything the command writes lives under this directory of the
/// working directory.
const OUT_DIR: &str = ".megabench-out";

/// Makes the allocator keep the memory it has faulted in. By default glibc
/// hands freed memory back to the kernel (large blocks are unmapped, the
/// heap top is trimmed), and a virtual machine's kernel hands free memory
/// back to its host. Touching it again then costs a fault whose price
/// depends on the host's load, and whether it is paid depends on how long
/// the memory sat free. Kept memory is faulted once, while the heap first
/// grows, and reused after; on a shared 2-vCPU VM this narrowed the
/// run-to-run spread of the query and recovery times (see README.md).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_memory() {
    // `mallopt` parameters of glibc's malloc.h.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters, and runs before
    // any other thread exists.
    unsafe {
        // Blocks below 32 MiB (the most glibc allows) come from the heap,
        // and the heap is never trimmed.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_memory() {}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

/// Orders `got` by the declared `names`, flagging any that is missing or
/// not a finite number.
fn complete(
    names: &[(String, &'static str)],
    got: &[Metric],
    mismatches: &mut Vec<String>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|(name, unit)| match got.iter().find(|m| &m.name == name) {
            Some(m) if m.value.is_finite() => m.clone(),
            Some(_) => {
                mismatches.push(format!("metric {name} is not a finite number"));
                Metric::new(name.clone(), 0.0, unit)
            }
            None => {
                mismatches.push(format!("metric {name} was not measured"));
                Metric::new(name.clone(), 0.0, unit)
            }
        })
        .collect()
}

fn run(args: &Args, work: &Path) -> Result<(Vec<Metric>, Outcome, Option<Outcome>), String> {
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    let base = pipeline::run(&plan, work, false)?;
    if !args.trace {
        return Ok((base.report.e2e.clone(), base, None));
    }
    let traced = pipeline::run(&plan, work, true)?;
    let mut metrics = traced.report.layers.clone();
    metrics.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced.timed_secs - base.timed_secs) / base.timed_secs,
        "%",
    ));
    let self_ms = traced.spans.self_ms_by_layer();
    for layer in SELF_TIME_LAYERS {
        metrics.push(Metric::new(
            format!("selftime_ms.{layer}"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
        ));
    }
    Ok((metrics, base, Some(traced)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("megabench: {e}");
            eprintln!("usage: megabench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    keep_memory();
    let out = PathBuf::from(OUT_DIR);
    let work = out.join(format!(
        "work-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, base, traced) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("megabench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut mismatches = base.report.mismatches.clone();
    let mut attempted = base.report.attempted;
    let mut failed = base.report.failed;
    if let Some(t) = &traced {
        mismatches.extend(t.report.mismatches.iter().cloned());
        attempted += t.report.attempted;
        failed += t.report.failed;
        if t.det != base.det {
            mismatches.push("traced and untraced runs disagree on deterministic counts".into());
        }
    }
    let names: Vec<(String, &'static str)> = if args.trace {
        layers::names()
    } else {
        E2E.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let metrics = complete(&names, &metrics, &mut mismatches);
    let correct = mismatches.is_empty() && failed == 0;

    let mut notes =
        vec![
        ("workload".to_owned(), args.workload.name().to_owned()),
        ("why".to_owned(), args.workload.why().to_owned()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        (
            "nproc".to_owned(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "profile".to_owned(),
            if cfg!(debug_assertions) { "debug" } else { "release" }.to_owned(),
        ),
        (
            "host".to_owned(),
            "shared: wall times are judged by the benchmark's bounds; counts must match exactly"
                .to_owned(),
        ),
    ];
    notes.extend(base.report.notes.iter().cloned());

    let _ = std::fs::create_dir_all(&out);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Some(t) = &traced {
        let path = out.join(format!("spans-{stem}.tsv"));
        if let Err(e) = t.spans.write_tsv(&path) {
            eprintln!("megabench: write {}: {e}", path.display());
        }
    }
    let record = format!(
        "{{\"provenance\": {}, \"mismatches\": [{}], \"determinism\": {}, \"result\": {}}}\n",
        report::notes_json(&notes),
        mismatches
            .iter()
            .map(|m| report::json_str(m))
            .collect::<Vec<_>>()
            .join(", "),
        report::json_str(&format!("{:?}", base.det)),
        report::result_line(correct, attempted, failed, &metrics),
    );
    let _ = std::fs::write(out.join(format!("result-{stem}.json")), record);

    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &mismatches {
        println!("MISMATCH: {m}");
    }
    println!("{}", report::notes_json(&notes));
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
