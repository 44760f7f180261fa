//! Command line:
//!
//! ```text
//! e2ebench --workload <append-shared|read-cold|mr-mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a provenance line, a table of the sixteen end-to-end metrics by
//! name and unit, and as its last line one JSON object: the gated end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Any
//! output-check failure exits with status 1 and prints no result.

use e2ebench::trace::Tracer;
use e2ebench::{deploy, gate_metrics, layer_metrics, measure, named_metrics, run};
use e2ebench::{Corruption, Measured, Metric, Params, Scale, Workload};
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("a metric came out as {v}"))
    }
}

fn provenance(a: &Args, r: &Measured) -> String {
    let params: Vec<String> = r
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"provenance\": {{\"git_sha\": {}, \"nproc\": {}, \"miniexec_workers\": {}, \"seed\": {}, \
         \"profile\": {}, \"workload\": {}, \"seconds\": {}, \"trace\": {}, \"params\": {{{}}}}}}}",
        json_str(&measure::git_sha()),
        measure::nproc(),
        miniexec::worker_count(),
        a.seed,
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(a.workload.name()),
        a.seconds,
        u8::from(a.trace),
        params.join(", ")
    )
}

fn print_table(w: Workload, label: &str, r: &Measured) {
    println!(
        "# {} ({label}): {} ops, {} failed",
        w.name(),
        r.attempted,
        r.failed
    );
    for (name, unit, value) in named_metrics(w, r) {
        match value {
            Some(v) => println!("  {name:<28} {v:>14.4} {unit}"),
            None => println!("  {name:<28} {:>14} {unit}", "n/a"),
        }
    }
    let deciles: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|p| format!("p{p}={:.4}ms", r.primary.at(*p) * 1e3))
        .collect();
    let tail = w.tail_pct();
    println!(
        "  samples: {} primary ({}; tail p{tail} = median over {} slices), {} secondary, {} set-ups",
        r.primary.len(),
        deciles.join(" "),
        r.primary.tail_slices(tail),
        r.secondary.len(),
        r.setup_s.len()
    );
}

fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value)?,
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn main_inner() -> Result<(), String> {
    let a = parse_args()?;
    let p = Params {
        seed: a.seed,
        measure: Duration::from_secs(a.seconds),
        scale: Scale::Full,
        corrupt: Corruption::None,
    };
    let w = a.workload;
    let plain = run(w, &p, None)?;
    let line = if a.trace {
        let tracer = Tracer::new(deploy::topology().num_nodes());
        let traced = run(w, &p, Some(&tracer))?;
        let path = format!(".bench_out/spans-{}-seed{}.tsv", w.name(), a.seed);
        tracer
            .write_tsv(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("{}", provenance(&a, &traced));
        print_table(w, "untraced", &plain);
        print_table(w, "traced", &traced);
        println!("# spans written to {path}");
        result_line(
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            &layer_metrics(&traced, &tracer, &plain),
        )?
    } else {
        println!("{}", provenance(&a, &plain));
        print_table(w, "untraced", &plain);
        result_line(plain.attempted, plain.failed, &gate_metrics(&plain))?
    };
    println!("{line}");
    Ok(())
}

fn main() {
    if let Err(e) = main_inner() {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}
