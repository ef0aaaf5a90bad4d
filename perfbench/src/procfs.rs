//! Readers for `/proc/self`: process and per-thread CPU time, peak
//! RSS, and the host context printed with every result.
//!
//! Every reader returns `None` where `/proc` (or the field) is missing;
//! the metrics built from it are then left out of the result rather than
//! reported as zero.

use std::fs;

/// `/proc` reports `utime`/`stime` in USER_HZ ticks, which Linux fixes at
/// 100 per second for user space whatever the kernel's internal HZ.
const NS_PER_TICK: u64 = 10_000_000;

/// `utime + stime` in ns from the contents of a `stat` file, plus the
/// command name between the parentheses.
fn parse_stat(stat: &str) -> Option<(String, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat.get(open + 1..close)?.to_string();
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let mut rest = stat.get(close + 1..)?.split_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((name, (utime + stime) * NS_PER_TICK))
}

/// CPU time (user + system) of the whole process so far, all threads.
pub fn process_cpu_ns() -> Option<u64> {
    parse_stat(&fs::read_to_string("/proc/self/stat").ok()?).map(|(_, ns)| ns)
}

/// One thread's cumulative CPU time.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name (`comm`), e.g. `tbs-shard-0`.
    pub name: String,
    /// User + system CPU time so far.
    pub cpu_ns: u64,
}

/// CPU time of every live thread of this process, from
/// `/proc/self/task/*/stat`.
pub fn threads() -> Option<Vec<ThreadCpu>> {
    let mut out = Vec::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        // A thread can exit between the listing and the read.
        let Ok(stat) = fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        if let Some((name, cpu_ns)) = parse_stat(&stat) {
            out.push(ThreadCpu { tid, name, cpu_ns });
        }
    }
    Some(out)
}

/// The tid of the calling thread.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU each thread used between two [`threads`] snapshots; threads that
/// were not alive at both are left out.
pub fn thread_deltas(before: &[ThreadCpu], after: &[ThreadCpu]) -> Vec<ThreadCpu> {
    after
        .iter()
        .filter_map(|a| {
            let b = before.iter().find(|b| b.tid == a.tid)?;
            Some(ThreadCpu {
                tid: a.tid,
                name: a.name.clone(),
                cpu_ns: a.cpu_ns.saturating_sub(b.cpu_ns),
            })
        })
        .collect()
}

/// `(steal, total)` CPU ticks of the whole host so far, from the first
/// line of `/proc/stat`: time a hypervisor gave this machine's vCPUs to
/// someone else, against all time.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size (`VmHWM`) in MB (2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `nproc`, CPU model and 1/5/15-minute load average, as one line.
pub fn host_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu_model=\"{model}\" loadavg_at_start=\"{load}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_names_with_spaces_and_parens() {
        let stat = "42 (tbs shard (0)) S 1 42 42 0 -1 4194560 10 0 0 0 7 3 0 0 20 0 3 0";
        let (name, ns) = parse_stat(stat).unwrap();
        assert_eq!(name, "tbs shard (0)");
        assert_eq!(ns, 10 * NS_PER_TICK);
    }

    #[test]
    fn live_process_reads_when_proc_exists() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_ns().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
            let tid = current_tid().unwrap();
            assert!(threads().unwrap().iter().any(|t| t.tid == tid));
        }
    }
}
