//! What the kernel knows about this process, read from outside the
//! program under test: process CPU time, peak memory, host load, and CPU
//! and run-queue time per thread, attributed to a layer by thread name.

use std::collections::BTreeMap;
use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, dead ones included,
/// in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Restart the peak-RSS high-water mark from the current RSS, so a pass
/// reports its own peak. Kernels without this control keep the old mark.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// The host's one-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The calling thread's kernel id.
pub fn current_tid() -> u32 {
    let link = fs::read_link("/proc/thread-self").expect("reading /proc/thread-self");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("/proc/thread-self names a task id")
}

/// The layer a thread works for, from the name the runtime gives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The benchmark's own thread, which calls into the runtime.
    Driver,
    /// A worker engine (`worker-wN`).
    Worker,
    /// A library daemon (`library-N`).
    Library,
    /// A stateless task thread (`task-N`) still alive at a sample.
    Task,
    /// The manager's epoll reactor (`vine-reactor`).
    Reactor,
    /// A TCP worker's socket threads: its uplink (`worker-wN-uplink`,
    /// which the kernel truncates to 15 bytes) and
    /// the downlink loop the benchmark runs it on (`tcp-worker-N`).
    TcpWorker,
    Other,
}

impl Role {
    fn of(tid: u32, driver: u32, comm: &str) -> Role {
        if tid == driver {
            Role::Driver
        } else if comm.starts_with("worker-") && comm.contains("-up")
            || comm.starts_with("tcp-worker-")
        {
            Role::TcpWorker
        } else if comm.starts_with("worker-") {
            Role::Worker
        } else if comm.starts_with("library-") {
            Role::Library
        } else if comm.starts_with("task-") {
            Role::Task
        } else if comm == "vine-reactor" {
            Role::Reactor
        } else {
            Role::Other
        }
    }
}

/// CPU and run-queue seconds accumulated by one role.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoleTime {
    pub cpu_s: f64,
    pub runq_s: f64,
}

/// Per-role CPU and run-queue wait over a window, from
/// `/proc/self/task/*/{comm,schedstat}`. Each [`ThreadLedger::sample`]
/// credits every live thread with what it consumed since the previous
/// sample; a thread that is born and dies between two samples is missed
/// here and shows up only in process CPU.
pub struct ThreadLedger {
    driver: u32,
    last: BTreeMap<u32, (u64, u64)>,
    pub roles: BTreeMap<Role, RoleTime>,
    process_cpu_at_start: f64,
}

impl ThreadLedger {
    /// Start a window now; `driver` is the benchmark thread's id.
    pub fn start(driver: u32) -> ThreadLedger {
        let mut ledger = ThreadLedger {
            driver,
            last: BTreeMap::new(),
            roles: BTreeMap::new(),
            process_cpu_at_start: process_cpu_s(),
        };
        ledger.sample();
        ledger.roles.clear();
        ledger
    }

    /// Credit every live thread's CPU and run-queue time since the last
    /// sample to its role.
    pub fn sample(&mut self) {
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return;
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let path = entry.path();
            // a thread may exit between listing and reading: skip it
            let (Ok(comm), Ok(stat)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("schedstat")),
            ) else {
                continue;
            };
            let mut fields = stat
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            let on_cpu = fields.next().unwrap_or(0);
            let waited = fields.next().unwrap_or(0);
            let (cpu0, wait0) = self.last.insert(tid, (on_cpu, waited)).unwrap_or((0, 0));
            let role = self
                .roles
                .entry(Role::of(tid, self.driver, comm.trim()))
                .or_default();
            role.cpu_s += on_cpu.saturating_sub(cpu0) as f64 * 1e-9;
            role.runq_s += waited.saturating_sub(wait0) as f64 * 1e-9;
        }
    }

    pub fn role(&self, role: Role) -> RoleTime {
        self.roles.get(&role).copied().unwrap_or_default()
    }

    /// Process CPU since the window started that no sampled thread
    /// accounts for: threads that lived and died between samples, which
    /// in this runtime are stateless task threads.
    pub fn unattributed_cpu_s(&self) -> f64 {
        let attributed: f64 = self.roles.values().map(|r| r.cpu_s).sum();
        (process_cpu_s() - self.process_cpu_at_start - attributed).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_runtime_thread_names() {
        assert_eq!(Role::of(7, 7, "vine-e2e"), Role::Driver);
        assert_eq!(Role::of(8, 7, "worker-w0"), Role::Worker);
        assert_eq!(Role::of(8, 7, "worker-w1-uplin"), Role::TcpWorker);
        assert_eq!(Role::of(8, 7, "worker-w12-upli"), Role::TcpWorker);
        assert_eq!(Role::of(8, 7, "tcp-worker-1"), Role::TcpWorker);
        assert_eq!(Role::of(8, 7, "library-L3"), Role::Library);
        assert_eq!(Role::of(8, 7, "task-t12"), Role::Task);
        assert_eq!(Role::of(8, 7, "vine-reactor"), Role::Reactor);
        assert_eq!(Role::of(8, 7, "vine-e2e"), Role::Other);
    }

    #[test]
    fn ledger_sees_this_thread_burn_cpu() {
        let mut ledger = ThreadLedger::start(current_tid());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        ledger.sample();
        assert!(ledger.role(Role::Driver).cpu_s > 0.0, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
