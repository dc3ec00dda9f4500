//! `obfs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints reference figures and a host line, then as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when `correct` is false: a reference failed its Graph500
//! checks or an operation failed.

use obfs_perfbench::inputs::{Size, Workload};
use obfs_perfbench::{run, Config};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: obfs-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = Config {
        workload: Workload::Graph500Rmat,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                cfg.seed = value.parse().unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                cfg.seconds = value.parse().unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let report = run(&cfg);
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.host);
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
