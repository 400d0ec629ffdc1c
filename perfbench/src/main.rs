//! The untraced binary: measures one workload and prints every
//! end-to-end metric. `run.py` builds and invokes it.

use perfbench::report::{host_line, Report};
use perfbench::{sim, svc, Args, END_TO_END};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    println!("{}", host_line());
    let mut report = Report::default();
    match args.workload.as_str() {
        "sim_scenarios" => {
            sim::run_scenarios(&mut report, &args.env.scenarios, args.seed, args.seconds)
        }
        service => svc::run(&mut report, &args.env, service, args.seed, args.seconds),
    }
    for (name, _) in END_TO_END {
        let measured = report.get(name).is_some_and(|v| v.is_finite() && v > 0.0);
        report.check(measured, || format!("{name} was not measured"));
    }
    println!("{}", report.json_line(END_TO_END));
}
