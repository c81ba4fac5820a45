//! Process and machine readings from `/proc`, and the run's stamp.

use std::fs;
use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".to_string(),
    }
}

/// User plus system CPU seconds of a process (all its threads, live and
/// exited), or of this process when `pid` is `None`.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/stat", proc_dir(pid));
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: bad field {i}"))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/status", proc_dir(pid));
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// The 1-, 5- and 15-minute load averages.
pub fn load_average() -> [f64; 3] {
    let text = fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut out = [f64::NAN; 3];
    for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
        *slot = field.parse().unwrap_or(f64::NAN);
    }
    out
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out at `root` when it is a git work tree (read
/// from `.git` directly, without running git), else `"unknown"`.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a-64 over the manifests and Rust sources of `root/crates` (and
/// the root manifest and lock file): identifies the measured code when
/// the checkout carries no commit.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = fs::read(&file) {
            eat(file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    hash
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}
