//! Timings scaled to a reference machine speed.
//!
//! On a virtual machine whose cores are shared with other tenants, a
//! thread's speed moves by up to 1.8x for seconds to minutes at a time,
//! and by how much depends on the core it happens to run on. A fixed
//! reference kernel (the benchmark's own code, independent of the
//! program), timed on the same thread right after each measured unit,
//! tracks that speed: a unit's time scaled by [`NOMINAL_S`] over the
//! kernel's time around it is what the unit would have taken at the
//! speed where the kernel takes [`NOMINAL_S`]. A change to the program
//! moves the unit and not the kernel, so it still shows in full.
//!
//! Where the measured work runs inside one library call or on threads
//! the benchmark does not control, a [`Sampler`] probes instead: a
//! background thread pinned to each CPU the work runs on times the
//! kernel's CPU time every [`PERIOD`], and a wall time is scaled by the
//! probes that ended within it. Pinning matters: the slowdown is
//! specific to a core, and a probe on the other core tracks it poorly.
//! CPU time, not wall time, keeps a probe that waits for the measured
//! thread on its shared core from reading as a slow machine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::job::timed;
use crate::stats::median;

/// The kernel's time on a 2-vCPU x86-64 virtual machine at its normal
/// speed, so scaled times read close to real ones there.
pub const NOMINAL_S: f64 = 0.0022;
/// A unit is scaled by the median kernel time among this many probes on
/// either side of it and its own.
const WINDOW: usize = 4;
const ITERATIONS: u64 = 1_500_000;

/// Table lookups, branches and multiplies over a 256 KiB table: the
/// mix of an interpreter, which is what the program spends its time in.
fn kernel(iterations: u64) -> u64 {
    let mut table: Vec<u64> = (0..1u64 << 15)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let (mut x, mut acc) = (1u64, 0u64);
    for _ in 0..iterations {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let i = ((x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 49) as usize;
        let v = table[i];
        acc = if v & 1 == 0 {
            acc.wrapping_add(v)
        } else {
            acc ^ v.rotate_left(7)
        };
        table[i] = v.wrapping_add(acc);
    }
    acc
}

/// The kernel's wall time, in seconds, on the calling thread.
fn probe() -> f64 {
    timed(|| std::hint::black_box(kernel(std::hint::black_box(ITERATIONS)))).1
}

/// A sequence of timed units, each followed by a probe of the kernel on
/// the same thread, in groups: a group (a set-up repetition, one
/// simulation) is what gets reported, and may span several units.
#[derive(Default)]
pub struct Probed {
    raw: Vec<f64>,
    probes: Vec<f64>,
    /// One past the last unit of each group.
    ends: Vec<usize>,
}

impl Probed {
    /// Runs and times `f` as a group of its own, then probes the kernel.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let out = self.time_part(f);
        self.end_group();
        out
    }

    /// Runs and times `f` as the next unit of the open group, then
    /// probes the kernel.
    pub fn time_part<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (out, secs) = timed(f);
        self.push_part(secs);
        out
    }

    /// Records a unit the caller timed itself as the next unit of the
    /// open group, then probes the kernel.
    pub fn push_part(&mut self, secs: f64) {
        self.raw.push(secs);
        self.probes.push(probe());
    }

    pub fn end_group(&mut self) {
        self.ends.push(self.raw.len());
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The median probe, in seconds (NaN with none).
    pub fn probe_s(&self) -> f64 {
        median(&self.probes)
    }

    /// Each group's raw time.
    pub fn raw(&self) -> Vec<f64> {
        self.sums(&self.raw)
    }

    /// Each group's time at the nominal speed.
    pub fn scaled(&self) -> Vec<f64> {
        self.sums(&scale(&self.raw, &self.probes))
    }

    fn sums(&self, units: &[f64]) -> Vec<f64> {
        let mut start = 0;
        self.ends
            .iter()
            .map(|&end| {
                let sum = units[start..end].iter().sum();
                start = end;
                sum
            })
            .collect()
    }
}

/// The time between a [`Sampler`] thread's probes.
pub const PERIOD: Duration = Duration::from_millis(100);

/// Background probes of the kernel, one thread pinned to each of a set
/// of CPUs. Stops and joins its threads when dropped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    /// When each probe ended, and its CPU time in seconds.
    probes: Arc<Mutex<Vec<(Instant, f64)>>>,
    threads: Vec<JoinHandle<()>>,
}

impl Sampler {
    /// Starts one probing thread pinned to each of `cpus`.
    pub fn start(cpus: &[usize]) -> Result<Sampler, String> {
        let mut sampler = Sampler {
            stop: Arc::new(AtomicBool::new(false)),
            probes: Arc::new(Mutex::new(Vec::new())),
            threads: Vec::new(),
        };
        for &cpu in cpus {
            let (stop, probes) = (sampler.stop.clone(), sampler.probes.clone());
            let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
            sampler.threads.push(std::thread::spawn(move || {
                let pinned = sys::pin_thread(cpu);
                let ok = pinned.is_ok();
                let _ = pinned_tx.send(pinned);
                while ok && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let start = sys::thread_cpu_s();
                    std::hint::black_box(kernel(std::hint::black_box(ITERATIONS)));
                    let cpu_s = sys::thread_cpu_s() - start;
                    probes.lock().expect("probes").push((Instant::now(), cpu_s));
                }
            }));
            // On an error, dropping the sampler stops the threads so far.
            pinned_rx.recv().map_err(|e| e.to_string())??;
        }
        Ok(sampler)
    }

    /// The factor that scales a wall time spent from `from` to `to` to
    /// the nominal speed: the mean over the probes that ended in that
    /// window of [`NOMINAL_S`] over the probe's CPU time. The mean of
    /// the rate, because work done is speed integrated over time. 1
    /// where no probe ended in the window.
    pub fn speed(&self, from: Instant, to: Instant) -> f64 {
        let probes = self.probes.lock().expect("probes");
        let rates: Vec<f64> = probes
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|(_, cpu_s)| NOMINAL_S / cpu_s)
            .collect();
        if rates.is_empty() {
            1.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        }
    }

    /// The median probe, in seconds (NaN with none).
    pub fn probe_s(&self) -> f64 {
        let probes = self.probes.lock().expect("probes");
        median(&probes.iter().map(|(_, s)| *s).collect::<Vec<_>>())
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Pins the calling thread to the CPU it is running on and returns it.
pub fn pin_here() -> Result<usize, String> {
    let cpu = sys::current_cpu()?;
    sys::pin_thread(cpu)?;
    Ok(cpu)
}

/// The CPUs the process may run on.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    sys::allowed_cpus()
}

/// Thin wrappers over the C library's scheduling and clock calls
/// (Linux, 64-bit).
mod sys {
    const MASK_WORDS: usize = 16;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_getcpu() -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    fn last_error(call: &str) -> String {
        format!("{call}: {}", std::io::Error::last_os_error())
    }

    pub fn pin_thread(cpu: usize) -> Result<(), String> {
        let mut mask = [0u64; MASK_WORDS];
        *mask.get_mut(cpu / 64).ok_or("cpu out of range")? |= 1 << (cpu % 64);
        // SAFETY: the mask is a valid buffer of the size passed; pid 0
        // is the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(last_error("sched_setaffinity"))
        }
    }

    pub fn allowed_cpus() -> Result<Vec<usize>, String> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: as in `pin_thread`, with a writable buffer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(last_error("sched_getaffinity"));
        }
        Ok((0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect())
    }

    pub fn current_cpu() -> Result<usize, String> {
        // SAFETY: no arguments; returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).map_err(|_| last_error("sched_getcpu"))
    }

    /// The calling thread's CPU time, in seconds.
    pub fn thread_cpu_s() -> f64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable timespec.
        unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    }
}

fn scale(raw: &[f64], probes: &[f64]) -> Vec<f64> {
    raw.iter()
        .enumerate()
        .map(|(i, secs)| {
            let around = &probes[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(probes.len())];
            secs * NOMINAL_S / median(around)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_scaled_by_the_probes_around_them() {
        // A machine at half speed for the last six units: their probes
        // double, so their scaled times match the first ones.
        let n = NOMINAL_S;
        let raw = [[1.0; 6], [2.0; 6]].concat();
        let probes = [[n; 6], [2.0 * n; 6]].concat();
        let scaled = scale(&raw, &probes);
        assert!(scaled.iter().all(|s| (s - 1.0).abs() < 1e-12), "{scaled:?}");
        // One outlying probe moves no unit: the window's median holds.
        let mut probes = vec![n; 9];
        probes[5] = 10.0 * n;
        assert_eq!(scale(&[1.0; 9], &probes), vec![1.0; 9]);
    }

    #[test]
    fn groups_sum_their_units() {
        let mut p = Probed::default();
        assert_eq!(p.time(|| 7), 7);
        p.time_part(|| ());
        p.time_part(|| ());
        p.end_group();
        assert_eq!((p.len(), p.raw().len(), p.scaled().len()), (2, 2, 2));
        assert!(p.probe_s() > 0.0);
        assert!(p.scaled().iter().all(|s| *s > 0.0));

        let mut q = Probed::default();
        q.push_part(0.5);
        q.end_group();
        assert_eq!(q.raw(), [0.5]);
        let expected = 0.5 * NOMINAL_S / q.probe_s();
        assert!((q.scaled()[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn a_sampler_probes_each_cpu_in_the_background() {
        let cpus = allowed_cpus().expect("affinity");
        assert!(!cpus.is_empty());
        let from = Instant::now();
        let sampler = Sampler::start(&cpus[..1]).expect("sampler");
        assert_eq!(sampler.speed(from, Instant::now()), 1.0, "no probe yet");
        std::thread::sleep(3 * PERIOD);
        let speed = sampler.speed(from, Instant::now());
        assert!(speed > 0.0 && speed != 1.0, "{speed}");
        assert!(sampler.probe_s() > 0.0);
        assert!(Sampler::start(&[1 << 20]).is_err(), "no such cpu");
    }
}
