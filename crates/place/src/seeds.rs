//! Seed-parallel execution shared by the multi-start placers.
//!
//! MVFB seeds and Monte Carlo draws are independent mappings whose
//! inputs (per-seed RNG seeds, drawn permutations) are fixed before any
//! of them runs. [`run_indexed`] runs them on up to `jobs` scoped
//! workers and hands the results back in index order; the placers then
//! fold them sequentially, so their answer is a function of the inputs
//! alone, never of the thread count or the schedule.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use qspr_sim::MapError;

/// Runs `task(i)` for every `i` in `0..n` on `min(jobs, n)` workers and
/// returns the results in index order, or the error of the lowest
/// failing index.
///
/// Workers claim indices from a shared counter, so claims happen in
/// increasing order: once a task fails, every index still unclaimed
/// lies after it and is skipped. With one worker everything runs inline
/// on the caller's thread and stops at the first error, exactly like a
/// plain loop. Workers relay the caller's span context
/// ([`qspr_obs::Relay`]), so their spans nest under the caller's open
/// span and a `--profile` phase table still adds up.
pub(crate) fn run_indexed<T, F>(jobs: usize, n: usize, task: F) -> Result<Vec<T>, MapError>
where
    T: Send,
    F: Fn(usize) -> Result<T, MapError> + Sync,
{
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let relay = qspr_obs::Relay::capture();
    let finished: Vec<Vec<(usize, Result<T, MapError>)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _sink = relay.install();
                    let mut done = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = task(i);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        done.push((i, result));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<Result<T, MapError>>> = (0..n).map(|_| None).collect();
    for (i, result) in finished.into_iter().flatten() {
        slots[i] = Some(result);
    }
    // Collecting stops at the first error, and every unclaimed slot
    // lies after one.
    slots
        .into_iter()
        .map(|slot| slot.expect("indices are claimed in order"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(remaining: usize) -> MapError {
        MapError::Stalled { remaining }
    }

    #[test]
    fn results_come_back_in_index_order_at_any_worker_count() {
        for jobs in 1..=5 {
            for n in 0..10 {
                let out = run_indexed(jobs, n, |i| Ok(i * 10)).unwrap();
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn the_lowest_failing_index_wins_at_any_worker_count() {
        for jobs in 1..=4 {
            let got = run_indexed(jobs, 12, |i| {
                if i == 3 || i == 7 {
                    Err(stall(i))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(got, Err(stall(3)), "jobs={jobs}");
        }
    }

    #[test]
    fn one_worker_stops_at_the_first_error() {
        let ran = AtomicUsize::new(0);
        let got = run_indexed(1, 10, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                Err(stall(i))
            } else {
                Ok(i)
            }
        });
        assert_eq!(got, Err(stall(2)));
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }
}
