//! Deterministic fork-join parallelism for the experiment harness.
//!
//! The experiments are embarrassingly parallel across trials: every unit
//! of work is a pure function of its index (each trial derives its own RNG
//! via [`crate::ExperimentConfig::rng`] and builds its own network), so
//! computing the units on a thread pool and collecting the results **in
//! index order** yields bit-identical aggregates — and byte-identical
//! CSVs — to the serial loop. All folding into summary statistics happens
//! on the caller's thread, in trial order, after the parallel section.
//!
//! `rayon` would express the same shape (`par_iter().map().collect()`
//! preserves order); the build environment has no registry access (see
//! `vendor/README.md`), so this uses `std::thread::scope` with a shared
//! work counter instead — a dozen lines for the one primitive the harness
//! needs.
//!
//! Setting `GEOGRID_SERIAL=1` forces the serial path; it is used to verify
//! the byte-identical-output property and to time the serial baseline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for `n` units: the machine's parallelism, capped at `n`;
/// 1 when `GEOGRID_SERIAL` is set (to any value).
fn worker_count(n: usize) -> usize {
    if std::env::var_os("GEOGRID_SERIAL").is_some() {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
}

/// Computes `f(0), f(1), …, f(n-1)` on a scoped thread pool and returns
/// the results in index order.
///
/// `f` must be a pure function of its index for the results to equal the
/// serial `(0..n).map(f).collect()` — which is exactly how every caller
/// uses it (per-trial seeds). Work is handed out dynamically (shared
/// counter), so uneven trial durations don't idle workers.
///
/// # Panics
///
/// Propagates a panic from any worker once all workers have stopped.
pub fn par_trials<U: Send, F: Fn(usize) -> U + Sync>(n: usize, f: F) -> Vec<U> {
    run(worker_count(n), n, f)
}

fn run<U: Send, F: Fn(usize) -> U + Sync>(workers: usize, n: usize, f: F) -> Vec<U> {
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().expect("unshared slot lock") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("unshared slot lock")
                .expect("every index was claimed and completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        // Force the threaded path even on single-core machines.
        let out = run(4, 100, |i| i * i);
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn matches_serial_for_stateful_per_index_work() {
        use rand::{Rng, SeedableRng};
        let work = |i: usize| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(i as u64);
            (0..50)
                .map(|_| rng.random::<u64>())
                .fold(0u64, u64::wrapping_add)
        };
        assert_eq!(run(4, 32, work), (0..32).map(work).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_units_is_fine() {
        assert_eq!(run(16, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn zero_and_one_unit_edge_cases() {
        assert_eq!(par_trials(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_trials(1, |i| i + 7), vec![7]);
    }
}
