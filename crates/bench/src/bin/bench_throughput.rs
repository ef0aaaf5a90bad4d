//! Ingest-throughput baseline: items/sec and ns/item for every sampler
//! across unsaturated / saturated / bursty regimes, on both the
//! monomorphized fast path and the object-safe `dyn` adapter.
//!
//! ```text
//! cargo run --release -p tbs-bench --bin bench_throughput            # full run, writes BENCH_throughput.json
//! cargo run --release -p tbs-bench --bin bench_throughput -- --smoke # CI smoke: tiny counts, results/ output
//! ```
//!
//! Flags:
//!
//! * `--smoke` — tiny iteration counts; writes to
//!   `results/BENCH_throughput_smoke.json` instead of the repo root so a
//!   smoke run never clobbers the committed baseline.
//! * `--thorough` — long-form counts (3× batches, 7 repeats) for
//!   low-noise baseline refreshes; same gates and output path as a full
//!   run, just slower and steadier.
//! * `--json <path>` — explicit output path for the JSON document.
//! * `--batches <n>` / `--warmup <n>` / `--repeats <n>` — override the
//!   measurement sizes.

use std::path::PathBuf;
use tbs_bench::experiments::throughput::{
    check_checkpoint_overhead, check_facade_overhead, report, rows_to_json,
    run_throughput_filtered, ThroughputConfig, THROUGHPUT_ROW_KEYS,
};
use tbs_bench::json::validate_bench_doc;
use tbs_bench::output::{host_context, results_dir, workspace_root};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ThroughputConfig::default();
    let mut smoke = false;
    let mut json_path: Option<PathBuf> = None;
    let mut filter: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let take_num = |i: &mut usize| -> usize {
            *i += 1;
            args.get(*i)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("expected a number after {}", args[*i - 1]);
                    std::process::exit(2);
                })
        };
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                cfg = ThroughputConfig::smoke();
            }
            "--thorough" => cfg = ThroughputConfig::thorough(),
            "--json" => {
                i += 1;
                json_path = Some(PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("expected a path after --json");
                    std::process::exit(2);
                })));
            }
            "--batches" => cfg.measured_batches = take_num(&mut i).max(1),
            "--warmup" => cfg.warmup_batches = take_num(&mut i),
            "--repeats" => cfg.repeats = take_num(&mut i).max(1),
            "--filter" => {
                i += 1;
                filter = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("expected a sampler-name substring after --filter");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_throughput [--smoke] [--thorough] [--json PATH] \
                     [--batches N] [--warmup N] [--repeats N] [--filter NAME]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let rows = run_throughput_filtered(&cfg, |kind, _, _| {
        filter.as_deref().is_none_or(|f| kind.label().contains(f))
    });
    report(&rows);

    // Perf gate: the public `api::Sampler` must not tax the flagship
    // ingest path. Enforced on full runs only — smoke counts are noise.
    if filter.is_none() {
        match check_facade_overhead(&rows, 0.10) {
            Ok(ratio) => println!(
                "api facade: R-TBS saturated at {:.1}% of the raw fast path (gate: ≥ 90%)",
                ratio * 100.0
            ),
            Err(msg) if smoke => println!("api facade (not gated on --smoke runs): {msg}"),
            Err(msg) => {
                eprintln!("{msg}\n{}", host_context());
                std::process::exit(1);
            }
        }
        // Durability gate: automatic checkpointing keeps at least half of
        // the facade's throughput within the same run. A catastrophic-regression
        // floor, not a precision bound — see `check_checkpoint_overhead`.
        match check_checkpoint_overhead(&rows, 0.5) {
            Ok(ratio) => println!(
                "checkpoint ingest: R-TBS saturated at {:.1}% of the facade path (≥50% floor)",
                ratio * 100.0
            ),
            Err(msg) if smoke => println!("checkpoint ingest (not gated on --smoke runs): {msg}"),
            Err(msg) => {
                eprintln!("{msg}\n{}", host_context());
                std::process::exit(1);
            }
        }
    }

    let path = json_path.unwrap_or_else(|| {
        if smoke {
            results_dir().join("BENCH_throughput_smoke.json")
        } else {
            workspace_root().join("BENCH_throughput.json")
        }
    });
    let doc = rows_to_json(&cfg, &rows);
    if let Err(e) = validate_bench_doc(&doc, "throughput", THROUGHPUT_ROW_KEYS) {
        eprintln!("emitted document violates the shared row schema: {e}");
        std::process::exit(1);
    }
    std::fs::write(&path, doc.to_pretty_string()).expect("write BENCH json");
    println!("\nwrote {}", path.display());
}
