//! Process and host readings from `/proc`: CPU time of the whole process,
//! its peak resident set, and the host fingerprint recorded with every
//! reference figure.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by every thread of this
/// process, exited worker threads included.
pub fn process_cpu_secs() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("status carries the field in kB")
}

/// `nproc` and the CPU model, for the reference figures.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={cores} cpu=\"{model}\"")
}
