//! socbench — the benchmark `/BENCHMARK.json` describes. One invocation
//! runs one workload: generate the inputs from `--seed`, set the
//! deployment up, run the measured phase, check durability across a
//! failover, and print every metric by name. README.md has the design.

mod client;
mod deploy;
mod gen;
mod layers;
mod procfs;
mod report;
mod spec;
mod stats;
mod trace;

use deploy::{drain, fail_over_and_verify, run_rep, set_up, Deployment};
use layers::{Hub, Probes, Sampled};
use report::{end_to_end, metrics_json, per_layer, write_trace_file, Rep, Traced};
use spec::{Pacing, Workload, CLIENTS, DEFAULT_SECONDS, GATED, REPS, SETUPS, WORKLOADS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use trace::Tracer;

/// What the command line asked for.
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Set the deployment up, print how long it took, and exit.
    pub setup_only: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: socbench --workload <{}> [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--setup-only]\n\
         not in /BENCHMARK.json (instant devices, for paired runs by hand): {}",
        names[..GATED].join("|"),
        names[GATED..].join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut setup_only) = (1u64, DEFAULT_SECONDS, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    spec::workload(&value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => traced = number()? != 0,
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be 1..60"));
    }
    Ok(Args { workload: workload.ok_or_else(usage)?, seed, seconds, traced, setup_only })
}

/// Time the workload's other set-ups, each in a process of its own: a
/// deployment that has been shut down leaves threads and memory behind,
/// which must not share a process with the measured one.
fn other_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (1..SETUPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", args.workload.name, "--setup-only"])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or_default();
            last.parse::<f64>().map_err(|_| {
                format!("set-up process printed {last:?}: {}", String::from_utf8_lossy(&out.stderr))
            })
        })
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    // Inputs first: nothing below generates a key, a kind or a time.
    let inputs = gen::generate(w, args.seed, args.seconds);
    let planned: u64 = inputs.reps.iter().flatten().map(|ops| ops.len() as u64).sum();
    println!(
        "socbench workload={} seed={} seconds={} trace={} clients={CLIENTS} inputs={:016x} planned_ops={planned}",
        w.name,
        args.seed,
        args.seconds,
        args.traced as u8,
        gen::fingerprint(&inputs)
    );

    let (mut dep, own_setup) = set_up(w, args.seed, &inputs.warmup)?;
    if args.setup_only {
        println!("{}", own_setup.total_s);
        return Ok(true);
    }
    let mut setup_s = other_setups(args)?;
    setup_s.push(own_setup.total_s);

    let open = matches!(w.pacing, Pacing::Open { .. });
    // Ops stop being sent at 1.5× the planned length of a repetition, so a
    // slow host shortens the work instead of overrunning the caller.
    let limit_ns = args.seconds * 1_500_000_000 / REPS as u64;
    let run_start = dep.sys.primary().map_err(|e| e.to_string())?.pipeline().hardened_lsn();
    let xstore = |dep: &Deployment| {
        let m = dep.sys.fabric().xstore.metrics();
        (m.bytes_written.get() as f64, m.bytes_read.get() as f64)
    };
    let xstore_before = xstore(&dep);
    let rss_start_mb = procfs::rss_mib();
    let before = Hub::take(&dep.sys);
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|c| Tracer::new((c as u32) << 28)).collect();
    let mut sampled = Sampled::default();
    let mut reps = Vec::new();
    for ops in &inputs.reps {
        let stop = AtomicBool::new(false);
        let (sys, clients) = (&dep.sys, &mut dep.clients);
        let rep = std::thread::scope(|scope| -> Result<Rep, String> {
            if args.traced {
                scope.spawn(|| layers::sample_until(sys, &stop, &mut sampled));
            }
            let (t0, cpu0) = (Instant::now(), procfs::cpu_seconds());
            let samples =
                run_rep(clients, ops, open, limit_ns, args.traced.then_some(&mut tracers[..]));
            let drained = drain(sys);
            let (elapsed_s, cpu_s) = (t0.elapsed().as_secs_f64(), procfs::cpu_seconds() - cpu0);
            // ordering: relaxed — a poll flag; the scope's join is the sync point
            stop.store(true, Ordering::Relaxed);
            Ok(Rep { elapsed_s, cpu_s, samples, drain: drained? })
        })?;
        reps.push(rep);
    }
    let after = Hub::take(&dep.sys);
    let xstore_after = xstore(&dep);

    let mut probe_tracer = Tracer::new((CLIENTS as u32) << 28);
    let probes = if args.traced {
        layers::probe(&dep.sys, args.seed, run_start, w.rows, &mut probe_tracer)
    } else {
        Probes::default()
    };
    tracers.push(probe_tracer);

    let attempted: u64 = reps.iter().flat_map(|r| &r.samples).map(|s| s.attempted).sum();
    let failed: u64 = reps.iter().flat_map(|r| &r.samples).map(|s| s.failed).sum();
    let first_error = reps.iter().flat_map(|r| &r.samples).find_map(|s| s.first_error.clone());

    // Durability: nothing acknowledged may be lost by a primary failover.
    let verified = fail_over_and_verify(dep);
    let (failover_ms, sys) = match &verified {
        Ok((ms, sys, keys)) => {
            println!("verify: failover in {ms:.1} ms, {keys} keys read back from the new primary, all as acknowledged");
            (*ms, Some(sys))
        }
        Err(e) => {
            println!("verify: FAILED: {e}");
            (0.0, None)
        }
    };

    let metrics = if args.traced {
        let t = Traced {
            before,
            after,
            spans: trace::summarize(&tracers),
            tracers,
            sampled,
            probes,
            xstore_written: xstore_after.0 - xstore_before.0,
            xstore_read: xstore_after.1 - xstore_before.1,
            failover_ms,
            rss_start_mb,
        };
        let metrics = per_layer(w, &own_setup, &reps, &t);
        let path = write_trace_file(args, &t, &metrics)?;
        println!("trace: {path}");
        metrics
    } else {
        end_to_end(&setup_s, &reps)
    };
    if let Some(sys) = sys {
        sys.shutdown();
    }

    println!("ops: planned {planned}, attempted {attempted}, failed {failed}");
    for (i, rep) in reps.iter().enumerate() {
        for (c, s) in rep.samples.iter().enumerate() {
            if let Some(d) = s.done.iter().max_by_key(|d| d.user_ns) {
                let at_s = (d.end_ns - d.user_ns) as f64 / 1e9;
                println!(
                    "slowest op of repetition {i}, client {c}: a {} of {:.3} ms, due at {at_s:.3} s on the trace clock",
                    d.kind.name(),
                    d.user_ns as f64 / 1e6
                );
            }
        }
    }
    if let Some(e) = first_error {
        println!("first failed op: {e}");
    }
    for m in &metrics {
        match m.value {
            Some(v) => println!("{} = {v} {} {}", m.name, m.unit, m.note),
            None => println!("{} = absent {} {}", m.name, m.unit, m.note),
        }
    }
    let correct = verified.is_ok();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&metrics)
    );
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("socbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
