//! The traced binary: replays one workload's inputs against each layer's
//! public functions under spans and prints every per-layer metric. Only
//! this binary installs the counting allocator.

use perfbench::report::{host_line, Report};
use perfbench::span::Tracer;
use perfbench::{alloc, sim, svc_trace, Args, PER_LAYER};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench-trace: {e}");
        std::process::exit(2);
    });
    println!("{}", host_line());
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    match args.workload.as_str() {
        "sim_scenarios" => {
            sim::trace_scenarios(
                &mut report,
                &mut tracer,
                &args.env.scenarios,
                args.seed,
                args.seconds,
            );
        }
        service => svc_trace::run(
            &mut report,
            &mut tracer,
            &args.env,
            service,
            args.seed,
            args.seconds,
        ),
    }
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.trace_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => report.check(false, || format!("write {}: {e}", path.display())),
    }
    println!("{}", report.json_line(PER_LAYER));
}
