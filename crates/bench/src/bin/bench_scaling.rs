//! Multi-core scaling baseline: aggregate and wall-clock ingest throughput
//! of the sharded parallel engine at 1–64 shards. A full (non-smoke) run
//! **fails loudly** when the scaling gate does not pass: saturated
//! R-TBS aggregate at K = 8 must clear twice the committed pre-fix row,
//! K = 16 must not regress below K = 8, and K = 32 must not regress
//! below K = 16 (the flattened-tail gate).
//!
//! ```text
//! cargo run --release -p tbs-bench --bin bench_scaling            # full run, writes BENCH_scaling.json
//! cargo run --release -p tbs-bench --bin bench_scaling -- --smoke # CI smoke: tiny counts, results/ output
//! ```
//!
//! Flags:
//!
//! * `--smoke` — tiny iteration counts; writes to
//!   `results/BENCH_scaling_smoke.json` instead of the repo root so a
//!   smoke run never clobbers the committed baseline.
//! * `--json <path>` — explicit output path for the JSON document.
//! * `--batches <n>` / `--warmup <n>` / `--repeats <n>` — override the
//!   measurement sizes.
//!
//! The emitted document is self-validated against the shared row schema
//! (`tbs_bench::json::validate_bench_doc`) before it is written.

use std::path::PathBuf;
use tbs_bench::experiments::scaling::{
    report, rows_to_json, run_scaling, ScalingConfig, GATE_K8_FLOOR_ITEMS_PER_SEC, SCALING_ROW_KEYS,
};
use tbs_bench::json::{validate_bench_doc, Json};
use tbs_bench::output::{host_context, results_dir, workspace_root};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ScalingConfig::default();
    let mut smoke = false;
    let mut json_path: Option<PathBuf> = None;

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
                cfg = ScalingConfig::smoke();
            }
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
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_scaling [--smoke] [--json PATH] \
                     [--batches N] [--warmup N] [--repeats N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let rows = run_scaling(&cfg);
    report(&rows);

    let doc = rows_to_json(&cfg, &rows);
    if let Err(e) = validate_bench_doc(&doc, "scaling", SCALING_ROW_KEYS) {
        eprintln!("emitted document violates the shared row schema: {e}");
        std::process::exit(1);
    }

    // Smoke sweeps stop at K=2 and carry no gate verdict; a full run must
    // pass the cliff gate before the baseline is (over)written.
    if !smoke {
        match doc.get("summary").and_then(|s| s.get("gate")) {
            Some(gate @ Json::Obj(_)) => {
                println!("\ngate: {gate}");
                if !matches!(gate.get("pass"), Some(Json::Bool(true))) {
                    eprintln!(
                        "scaling gate FAILED: K=8 below {GATE_K8_FLOOR_ITEMS_PER_SEC:.4e} \
                         items/s, K=16 regressed below K=8, or K=32 regressed below \
                         K=16. See `host` and `shard_busy_fracs` in the emitted \
                         JSON.\n{}",
                        host_context()
                    );
                    std::process::exit(1);
                }
            }
            _ => {
                eprintln!("full run produced no gate summary — sweep misconfigured");
                std::process::exit(1);
            }
        }
    }

    let path = json_path.unwrap_or_else(|| {
        if smoke {
            results_dir().join("BENCH_scaling_smoke.json")
        } else {
            workspace_root().join("BENCH_scaling.json")
        }
    });
    std::fs::write(&path, doc.to_pretty_string()).expect("write BENCH json");
    println!("\nwrote {}", path.display());
}
