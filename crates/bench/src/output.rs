//! Experiment output: CSV files under `results/` plus aligned console
//! tables, so every figure/table of the paper can be regenerated and
//! eyeballed from the terminal.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Directory where experiment CSVs are written (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("TBS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| workspace_root().join("results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The workspace root (two levels above this crate's manifest) — where the
/// `BENCH_*.json` perf baselines live so they are easy to diff across
/// commits.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// Write a CSV file into the results directory; returns its path.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    path
}

/// Print an aligned table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float with the given number of decimals.
pub fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// One-line host context appended to every gate-failure message so a
/// failing CI log is diagnosable without re-running the bench: how many
/// cores the host exposed, plus a reminder that the gated metrics are
/// busy-time aggregates (time inside observe calls, queue waits
/// excluded), which still move with the host.
pub fn host_context() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "host context: available_parallelism = {cores}; gates compare \
         busy-time metrics (time inside observe calls, queue waits \
         excluded), not wall-clock rates; they still depend on the host \
         (core count, cache, clock), so compare them only across runs on \
         the same host"
    )
}

/// Read the run-count override from the `TBS_RUNS` environment variable or
/// the first CLI argument; fall back to `default`.
pub fn runs_from_env(default: usize) -> usize {
    if let Some(arg) = std::env::args().nth(1) {
        if let Ok(n) = arg.parse::<usize>() {
            return n.max(1);
        }
    }
    std::env::var("TBS_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: usize| n.max(1))
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let dir = results_dir();
        assert!(dir.exists());
    }

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "test_output.csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(2.25319, 2), "2.25");
        assert_eq!(f(10.0, 1), "10.0");
    }
}
