//! Command line: one run of one workload, `--workload all`, or `--agree`.

use siren_benchmark::json::{self, Value};
use siren_benchmark::lifecycle::{self, Measured, Metric};
use siren_benchmark::run::{Res, Run, Workload};
use siren_benchmark::spans;
use siren_benchmark::spec::{self, Better, Spec};
use siren_benchmark::stats::{median, quartile_spread, tail};
use siren_benchmark::world::{self, RunDir};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: siren-benchmark --workload <campaign_ingest|analyst_mix|bulk_export|fleet_recovery|all> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]\n       siren-benchmark --agree [--seed <u64>]";

/// Runs per set of `--agree`, as the acceptance check makes them.
const AGREE_RUNS: u64 = 10;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec.run_seconds),
        trace: false,
        agree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn unit_of<'a>(spec: &'a Spec, name: &str) -> &'a str {
    spec.end_to_end
        .iter()
        .chain(&spec.per_layer)
        .find(|m| m.name == name)
        .map_or("?", |m| m.unit.as_str())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(spec: &Spec, run: &Run, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.tally.failed == 0,
        run.tally.attempted,
        run.tally.failed
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            unit_of(spec, name)
        );
    }
    out.push_str("}}");
    out
}

fn report(spec: &Spec, run: &Run, m: &Measured, metrics: &[Metric], wall_s: f64) {
    println!(
        "workload {}  seed {}  trace {}  available_parallelism {}",
        run.workload.name(),
        run.seed,
        u8::from(run.trace),
        parallelism()
    );
    println!(
        "sized for: {} ingest epochs (+1 warm-up, +1 over UDP), {} analyst ops, {} export pairs, {} recovery rounds",
        run.counts.ingest_epochs,
        run.counts.analyst_ops,
        run.counts.export_pairs,
        run.counts.recovery_rounds
    );
    println!(
        "wall {:.2} s = set-up {:.2} s + measured {:.2} s + checks/teardown",
        wall_s,
        run.setup.as_secs_f64(),
        run.measured.as_secs_f64()
    );
    println!(
        "corpus {} records in {} epochs; ingest committed {} records from {} datagrams",
        m.export.rows,
        siren_benchmark::run::CORPUS_EPOCHS,
        m.ingest.records,
        m.ingest.datagrams
    );
    for (name, value) in metrics {
        println!("  {name:<40} {value:>16.4} {}", unit_of(spec, name));
    }
    let all: Vec<f64> = m.analyst.samples.iter().map(|s| s.ms).collect();
    for (label, values) in [
        ("analyst op latency ms", &all),
        ("collect_datagrams us", &m.ingest.collect_us),
        ("commit ms", &m.ingest.commit_ms),
        ("direct export first row ms", &m.export.direct_first_row_ms),
    ] {
        let t = tail(values);
        println!(
            "  tail: {label}: p{} = {:.4} over {} samples (highest percentile with >= 10 samples beyond it)",
            t.percentile, t.value, t.samples
        );
    }
    let mut per_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &m.analyst.samples {
        per_kind.entry(s.kind).or_default().push(s.ms);
    }
    for (kind, ms) in &per_kind {
        println!(
            "  analyst {kind:<14} p50 {:>9.4} ms  ({} ops)",
            median(ms),
            ms.len()
        );
    }
    if run.trace {
        let value = |name: &str| metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        for (stage, floor, what) in [
            (
                "store.write_mb_per_s",
                "store.fsync_floor_mb_per_s",
                "write + fsync of the same payload",
            ),
            (
                "proto.frame_write_mb_per_s",
                "hash.memcpy_floor_mb_per_s",
                "memcpy of the same frame bytes",
            ),
            (
                "hash.fnv1a64_mb_per_s",
                "hash.memcpy_floor_mb_per_s",
                "memcpy of the same frame bytes",
            ),
            (
                "hash.xxh3_mb_per_s",
                "hash.memcpy_floor_mb_per_s",
                "memcpy of the same frame bytes",
            ),
        ] {
            if let (Some(s), Some(f)) = (value(stage), value(floor)) {
                println!(
                    "  floor: {stage} is {:.1}x its floor ({floor}: {what})",
                    f / s
                );
            }
        }
        if let (Some(floor), Some(bytes)) = (
            value("proto.loopback_floor_mb_per_s"),
            value("proto.bytes_per_row"),
        ) {
            let export_mb_per_s = m.export.rows as f64 / median(&m.export.direct_s) * bytes / 1e6;
            println!(
                "  floor: direct export moves {export_mb_per_s:.1} MB/s of row bytes, {:.1}x below raw loopback TCP of the same bytes",
                floor / export_mb_per_s
            );
        }
    }
    for note in &run.tally.notes {
        println!("  FAILED: {note}");
    }
    println!(
        "operations attempted {} failed {}",
        run.tally.attempted, run.tally.failed
    );
}

fn single_run(spec: &Spec, workload: Workload, args: &Args, origin: Instant) -> Res<bool> {
    let mut run = Run::new(workload, args.seed, args.seconds, args.trace, origin);
    let dir = RunDir::create()?;
    let measured = lifecycle::perform(&mut run, &dir)?;
    drop(dir);
    let (metrics, expected) = if run.trace {
        (lifecycle::per_layer(&run, &measured), &spec.per_layer)
    } else {
        (lifecycle::end_to_end(&run, &measured), &spec.end_to_end)
    };
    // The result line carries every metric BENCHMARK.json names for
    // this kind of run, each once, in its order, each a number.
    let metrics: Vec<Metric> = expected
        .iter()
        .map(|m| {
            let name = m.name.as_str();
            let mut found = metrics.iter().filter(|(n, _)| *n == name);
            match (found.next(), found.next()) {
                (Some(&metric), None) if metric.1.is_finite() => Ok(metric),
                (Some((_, value)), None) => Err(format!("metric {name} is not finite ({value})")),
                _ => Err(format!("metric {name} was not measured exactly once")),
            }
        })
        .collect::<Result<_, _>>()?;
    report(
        spec,
        &run,
        &measured,
        &metrics,
        origin.elapsed().as_secs_f64(),
    );
    if run.trace {
        let path = world::target_dir().join(format!("trace-{}.json", workload.name()));
        std::fs::create_dir_all(world::target_dir())?;
        std::fs::write(
            &path,
            spans::render_json(
                workload.name(),
                run.seed,
                parallelism(),
                run.spans.records(),
            ),
        )?;
        println!("trace written to {}", path.display());
        for t in spans::totals(run.spans.records()).iter().take(12) {
            println!(
                "  span {:<52} spans {:>6} calls {:>8} total {:>9.1} ms self {:>9.1} ms",
                t.name,
                t.spans,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    println!("{}", result_line(spec, &run, &metrics));
    Ok(run.tally.failed == 0)
}

/// Run this executable again as a child and parse its result line.
fn child_run(workload: Workload, seed: u64, seconds: f64, trace: bool, echo: bool) -> Res<Value> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} trace {trace}: child exited with {}\n{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
        .into());
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Ok(json::parse(last)?)
}

fn metric_values(result: &Value) -> Res<BTreeMap<String, f64>> {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// `--workload all`: every workload untraced, then traced, each in its
/// own process (peak RSS and page cache are per process).
fn run_all(args: &Args) -> Res<bool> {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = child_run(workload, args.seed, args.seconds, trace, true)?;
            ok &= result.get("correct") == Some(&Value::Bool(true));
        }
    }
    Ok(ok)
}

/// `--agree`: two sets of [`AGREE_RUNS`] untraced runs per workload,
/// both over seeds `seed..seed + AGREE_RUNS`, compared per metric
/// against the metric's own bound. Run `r` of each set has the same
/// seed, so the shift between the two medians and the `same seed`
/// column (median over `r` of how far the two runs of one seed lie
/// apart) are the machine's noise alone. The quartile spread of a set
/// also holds what the seed changes in the inputs; it is checked
/// because the acceptance check of the benchmark contract computes it
/// so, over ten seeds. Writes the record to `benchmark/BASELINE.json`.
fn agree(spec: &Spec, args: &Args) -> Res<bool> {
    let mut ok = true;
    let mut record = String::from("{\n");
    let _ = writeln!(
        record,
        "  \"available_parallelism\": {},\n  \"first_seed\": {},\n  \"runs_per_set\": {AGREE_RUNS},\n  \"run_seconds\": {},\n  \"workloads\": {{",
        parallelism(),
        args.seed,
        args.seconds
    );
    for (wi, workload) in Workload::ALL.into_iter().enumerate() {
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        let mut failed = 0u64;
        for set in 0..2 {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for r in 0..AGREE_RUNS {
                let result = child_run(workload, args.seed + r, args.seconds, false, false)?;
                failed += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0) as u64;
                for (name, value) in metric_values(&result)? {
                    values.entry(name).or_default().push(value);
                }
                eprintln!("agree: {} set {set} run {r} done", workload.name());
            }
            sets.push(values);
        }
        println!(
            "{}  (failed operations over both sets: {failed})",
            workload.name()
        );
        println!(
            "  {:<28} {:>14} {:>14} {:>8} {:>9} {:>8} {:>8} {:>6}",
            "metric", "median A", "median B", "shift", "same seed", "iqr A", "iqr B", "bound"
        );
        ok &= failed == 0;
        let _ = writeln!(record, "    \"{}\": {{", workload.name());
        for (mi, m) in spec.end_to_end.iter().enumerate() {
            let bound = m.bound.expect("Spec::load checked every bound");
            let (a, b) = (&sets[0][&m.name], &sets[1][&m.name]);
            let (med_a, med_b) = (median(a), median(b));
            // Positive shift = set B worse than set A.
            let shift = match m.better {
                Better::Lower => (med_b - med_a) / med_a,
                Better::Higher => (med_a - med_b) / med_a,
            };
            let pairs: Vec<f64> = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs() / ((x + y) / 2.0))
                .collect();
            let same_seed = median(&pairs);
            let (iqr_a, iqr_b) = (quartile_spread(a), quartile_spread(b));
            let agrees = shift <= bound && iqr_a <= bound && iqr_b <= bound;
            ok &= agrees;
            println!(
                "  {:<28} {:>14.4} {:>14.4} {:>7.2}% {:>8.2}% {:>7.2}% {:>7.2}% {:>5.0}% {}",
                m.name,
                med_a,
                med_b,
                shift * 100.0,
                same_seed * 100.0,
                iqr_a * 100.0,
                iqr_b * 100.0,
                bound * 100.0,
                if agrees { "" } else { "DISAGREES" }
            );
            let _ = writeln!(
                record,
                "      \"{}\": {{\"unit\": \"{}\", \"median_a\": {med_a}, \"median_b\": {med_b}, \"shift\": {shift}, \"same_seed\": {same_seed}, \"iqr_a\": {iqr_a}, \"iqr_b\": {iqr_b}, \"bound\": {bound}}}{}",
                m.name,
                m.unit,
                if mi + 1 < spec.end_to_end.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            record,
            "    }}{}",
            if wi + 1 < Workload::ALL.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(
        record,
        "  }},\n  \"agrees\": {ok},\n  \"per_layer_moves\": {{"
    );
    for (i, (layer, moves, on)) in spec::MOVES.iter().enumerate() {
        let _ = writeln!(
            record,
            "    \"{layer}\": {{\"moves\": \"{moves}\", \"on\": \"{}\"}}{}",
            on.name(),
            if i + 1 < spec::MOVES.len() { "," } else { "" }
        );
    }
    record.push_str("  }\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BASELINE.json");
    std::fs::write(&path, record)?;
    println!("baseline and agreement written to {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let parsed = Spec::load().and_then(|spec| parse_args(&spec).map(|args| (spec, args)));
    let (spec, args) = match parsed {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.agree {
        agree(&spec, &args)
    } else {
        match args.workload.as_deref() {
            Some("all") => run_all(&args),
            Some(name) => match Workload::parse(name) {
                Some(workload) => single_run(&spec, workload, &args, origin),
                None => Err(format!("unknown workload {name:?}\n{USAGE}").into()),
            },
            None => Err(USAGE.into()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("benchmark failed: {err}");
            ExitCode::from(1)
        }
    }
}
