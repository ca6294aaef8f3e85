//! `/proc/self` readers behind the `proc.*` rows, and the fixed hash-walk
//! kernel behind `host.calib_ms`.
//!
//! Everything here is context, never a gate: a missing or unparsable file
//! reads as zero rather than failing the run.

use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/self/stat`.
/// `USER_HZ` is 100 on every Linux ABI.
const USER_HZ: u64 = 100;

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcMark {
    /// User + system CPU time of all threads, live or exited.
    pub cpu: Duration,
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctx_switches: u64,
}

impl ProcMark {
    /// Reads `/proc/self/stat` and `/proc/self/task/*/status` now.
    /// (`/proc/self/io` is no use here: its `syscr`/`syscw` count `read` and
    /// `write` but not the `recv` and `send` that sockets are driven with.)
    pub fn now() -> Self {
        Self { cpu: cpu_time(), ctx_switches: ctx_switches() }
    }

    /// Counter-wise `self − earlier`, saturating (a thread that exited in
    /// between takes its context switches with it).
    pub fn since(&self, earlier: &ProcMark) -> ProcMark {
        ProcMark {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

fn cpu_time() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return Duration::ZERO;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    let ticks = tick() + tick();
    Duration::from_micros(ticks * 1_000_000 / USER_HZ)
}

fn keyed_sum(text: &str, keys: &[&str]) -> u64 {
    text.lines()
        .filter_map(|line| line.split_once(':'))
        .filter(|(k, _)| keys.contains(k))
        .filter_map(|(_, v)| v.trim().parse::<u64>().ok())
        .sum()
}

fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|t| keyed_sum(&t, &["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"]))
        .sum()
}

/// Cores the process may run on (`host.nproc`, when read before pinning).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Affinity mask words: room for 1024 cores.
const WORDS: usize = 16;

/// Cores the calling thread may run on, ascending.
fn allowed_cores() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restricts thread `tid` (0 = the calling thread) to `core`.
fn pin(tid: i32, core: usize) -> bool {
    let mut one = [0u64; WORDS];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed.
    unsafe { sched_setaffinity(tid, size_of_val(&one), one.as_ptr()) == 0 }
}

/// Pins the calling thread — call it before anything is spawned, every
/// thread spawned later inherits the mask — to the highest-numbered core it
/// may run on, and returns that core. `None` when the kernel refuses; the
/// run then goes on unpinned.
pub fn pin_process_to_one_core() -> Option<usize> {
    let core = *allowed_cores().last()?;
    pin(0, core).then_some(core)
}

/// Pins each shard worker (the fleet names its threads `shard-<i>`) to a
/// core of its own, shard `i` to the `i`-th allowed core, wrapping when
/// there are fewer cores than shards. Every other thread stays where the
/// scheduler puts it. A thread takes its name a moment after it starts, so
/// this looks again, for up to a second, until `shards` workers are pinned;
/// returns how many were.
pub fn pin_shard_workers(shards: usize) -> usize {
    let cores = allowed_cores();
    if cores.is_empty() {
        return 0;
    }
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let pinned = std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .filter(|task| {
                let shard = std::fs::read_to_string(task.path().join("comm"))
                    .ok()
                    .and_then(|name| name.trim().strip_prefix("shard-")?.parse::<usize>().ok());
                let tid = task.file_name().to_string_lossy().parse::<i32>().ok();
                matches!((shard, tid), (Some(s), Some(tid)) if pin(tid, cores[s % cores.len()]))
            })
            .count();
        if pinned >= shards || Instant::now() > deadline {
            return pinned;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Fixed work that depends on nothing in the repository: a dependent
/// SplitMix64 walk over a 32 MiB table (cache-missing loads plus integer
/// multiplies). Its wall time, `host.calib_ms`, tells a slow run of the
/// program from a slow phase of the host.
pub fn calibrate() -> Duration {
    const SLOTS: usize = 1 << 22;
    const STEPS: usize = 1 << 20;
    let mut table: Vec<u64> = (0..SLOTS as u64).map(splitmix).collect();
    let started = Instant::now();
    let mut at = 0usize;
    for _ in 0..STEPS {
        let v = splitmix(table[at] ^ at as u64);
        table[at] = v;
        at = (v as usize) & (SLOTS - 1);
    }
    std::hint::black_box(&table);
    started.elapsed()
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
