//! Small helpers: a seeded generator, order statistics, and readers for
//! the `/proc` files the scheduler metrics come from.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// splitmix64: the whole input stream of a run derives from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for `lane` (a thread, a phase).
    pub fn fork(&self, lane: u64) -> Rng {
        let mut r = Rng(self.0 ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// `len` printable ASCII letters and digits (XML-inert text).
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char)
            .collect()
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The `q` quantile (0..=1) of `sorted`, by linear interpolation between
/// closest ranks. 0.0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Mean of the middle half of `values` (the quarter at each end dropped).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Median over `batches` of the mean time of `per_batch` calls of `f`, in
/// microseconds per call.
pub fn time_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let per_batch = per_batch.max(1);
    let samples: Vec<f64> = (0..batches.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Enough calls of `f` to fill roughly `target`, estimated from one call.
pub fn calls_for(target: Duration, mut f: impl FnMut()) -> usize {
    let t = Instant::now();
    f();
    let one = t.elapsed().max(Duration::from_nanos(50));
    ((target.as_secs_f64() / one.as_secs_f64()) as usize).clamp(1, 1_000_000)
}

/// This thread's kernel id, from the `/proc/thread-self` link.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Ids of every live thread of this process.
pub fn task_ids() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Time a thread spent on a CPU and waiting on a run queue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sched {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl Sched {
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    pub fn plus(self, other: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns + other.run_ns,
            wait_ns: self.wait_ns + other.wait_ns,
        }
    }
}

/// `/proc/self/task/<tid>/schedstat`: run and run-queue wait nanoseconds.
pub fn schedstat(tid: u32) -> Option<Sched> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(Sched {
        run_ns: fields.next()??,
        wait_ns: fields.next()??,
    })
}

/// Scheduler readings for a set of threads, to difference later.
pub fn schedstats(tids: &[u32]) -> HashMap<u32, Sched> {
    tids.iter()
        .filter_map(|&t| Some((t, schedstat(t)?)))
        .collect()
}

/// Per-thread deltas between two [`schedstats`] readings.
pub fn sched_deltas(before: &HashMap<u32, Sched>, after: &HashMap<u32, Sched>) -> Vec<Sched> {
    after
        .iter()
        .map(|(tid, s)| s.since(before.get(tid).copied().unwrap_or_default()))
        .collect()
}

/// CPU time of the whole process, exited threads included
/// (`/proc/self/stat` utime + stime, in clock ticks of 10 ms).
pub fn process_cpu_ns() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    ticks * 10_000_000
}

/// The machine's CPU time counters (`/proc/stat`, all CPUs): total and
/// the part a hypervisor gave to other guests (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

impl CpuTimes {
    /// Share of the CPU time the hypervisor stole.
    pub fn steal_frac(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64
        }
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }
}

pub fn cpu_times() -> CpuTimes {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    CpuTimes {
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Share of the machine's CPU time stolen by the hypervisor since `start`.
pub fn steal_frac_since(start: &CpuTimes) -> f64 {
    cpu_times().since(*start).steal_frac()
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A CPU-only calibration score for the machine the run is on: millions
/// of splitmix64 + FNV-1a steps per second per thread, over a 300 ms loop
/// on every CPU. Recorded beside every result, never used to scale a
/// metric.
pub fn calibration_score() -> f64 {
    let threads = nproc();
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = Rng::new(t as u64);
                    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                    let mut steps = 0u64;
                    let start = Instant::now();
                    while start.elapsed() < Duration::from_millis(300) {
                        for _ in 0..4096 {
                            h ^= rng.next_u64();
                            h = h.wrapping_mul(0x0000_0100_0000_01B3);
                        }
                        steps += 4096;
                    }
                    std::hint::black_box(h);
                    steps as f64 / start.elapsed().as_secs_f64() / 1e6
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
    });
    total / threads as f64
}
