//! Host and build metadata recorded with every result: a number counts
//! only together with the host it was measured on.

use diffy_core::JsonValue;
use std::process::Command;

/// Host and build facts: core count, CPU model, cache sizes, compiler,
/// commit.
pub fn host() -> JsonValue {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim())
        .to_string();
    JsonValue::object(vec![
        ("nproc", (diffy_core::Jobs::available().get() as u64).into()),
        ("cpu_model", JsonValue::from(cpu.as_str())),
        ("l2_cache", JsonValue::from(cache_size(2).as_str())),
        ("l3_cache", JsonValue::from(cache_size(3).as_str())),
        (
            "rustc",
            JsonValue::from(command_line("rustc", &["--version"]).as_str()),
        ),
        (
            "git_commit",
            JsonValue::from(command_line("git", &["rev-parse", "HEAD"]).as_str()),
        ),
        (
            "profile",
            JsonValue::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// Size of CPU 0's unified or data cache at `level`, as sysfs reports it.
fn cache_size(level: u32) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(l) = read("level") else { break };
        let kind = read("type").unwrap_or_default();
        if l.trim() == level.to_string() && kind.trim() != "Instruction" {
            return read("size").map_or("unknown".into(), |s| s.trim().to_string());
        }
    }
    "unknown".into()
}

/// First line of a command's stdout, or `unknown` (e.g. outside a git
/// checkout). The child is always waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Restarts the peak-RSS count from the live resident set, so the peak
/// covers only what runs after this call: first hands freed heap pages
/// back to the kernel (glibc keeps a varying amount of them per thread
/// arena), then writes `5` to `/proc/self/clear_refs`. A kernel without
/// that file keeps the lifetime peak.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only returns free heap memory to the
        // kernel; it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU (`None`
/// where the affinity cannot be read or set).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> std::os::raw::c_int;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> std::os::raw::c_int;
        }
        // A `cpu_set_t`: 1024 bits.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..size * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}
