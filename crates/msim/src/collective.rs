//! The collective rendezvous hub: the synchronization core behind every
//! collective operation, and the one place the collective protocol is
//! verified.
//!
//! MPI requires all ranks of a communicator to call collectives in the
//! same order; the hub exploits that to implement any collective as a
//! generation-numbered gather-combine-scatter:
//!
//! 1. every rank deposits its [`CollectiveSig`], typed input and virtual
//!    entry time;
//! 2. the last arrival compares the signatures ([`crate::check`]), then
//!    runs the *combiner* — a closure receiving all inputs and entry
//!    times, returning the shared result and one exit time per rank;
//! 3. all ranks pick up the shared result (via `Arc`) and their exit time.
//!
//! Generations keep back-to-back collectives separate even when fast ranks
//! re-enter the next collective before slow ranks have left the previous
//! one. A protocol violation — diverging signatures, or an arrival at a
//! generation some peer has already exited before — poisons the hub and
//! panics with the report.

use crate::check::{CollectiveSig, Violation, HISTORY, REPORT};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::sync::Arc;

type BoxedInput = Box<dyn Any + Send>;
type SharedResult = Arc<dyn Any + Send + Sync>;

struct HubState {
    /// Generation currently *collecting*. Distribution of generation `g`
    /// overlaps collection of nothing: gen advances only after all depart.
    gen: u64,
    collecting: bool,
    arrived: usize,
    departed: usize,
    sigs: Vec<Option<CollectiveSig>>,
    inputs: Vec<Option<BoxedInput>>,
    entry_times: Vec<f64>,
    result: Option<SharedResult>,
    exit_times: Vec<f64>,
    /// The signature of matched generation `g` sits at `g % HISTORY`.
    history: [Option<CollectiveSig>; HISTORY],
    /// The rank whose closure returned after the fewest collectives, and
    /// that count: no generation from it on can ever complete.
    first_exit: Option<(usize, u64)>,
    /// Set when any rank panics: every waiter aborts (MPI_Abort
    /// semantics), so one failed rank cannot deadlock the job.
    poisoned: bool,
}

impl HubState {
    /// Generations matched so far.
    fn matched(&self) -> u64 {
        self.gen + u64::from(!self.collecting)
    }

    /// The abort report for `v`: the violation, then the last matched
    /// collectives.
    fn report(&self, v: Violation<'_>) -> String {
        let mut text = format!("{REPORT}: {v}recent collective history (oldest first):\n");
        let matched = self.matched();
        for g in matched.saturating_sub(HISTORY as u64)..matched {
            if let Some(sig) = &self.history[g as usize % HISTORY] {
                text.push_str(&format!("  #{g} {sig}\n"));
            }
        }
        text
    }
}

/// Panic message used for abort-propagation panics, so the launcher can
/// distinguish the originating failure from secondary aborts.
pub(crate) const ABORT_MSG: &str = "job aborted: another rank panicked";

/// One communicator-wide rendezvous point.
pub struct Hub {
    size: usize,
    state: Mutex<HubState>,
    cv: Condvar,
}

impl Hub {
    /// Creates a hub for `size` ranks.
    pub fn new(size: usize) -> Self {
        Hub {
            size,
            state: Mutex::new(HubState {
                gen: 0,
                collecting: true,
                arrived: 0,
                departed: 0,
                sigs: vec![None; size],
                inputs: (0..size).map(|_| None).collect(),
                entry_times: vec![0.0; size],
                result: None,
                exit_times: vec![0.0; size],
                history: [None; HISTORY],
                first_exit: None,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Marks the hub poisoned and wakes every waiter; they panic with
    /// `ABORT_MSG`. Idempotent.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.cv.notify_all();
    }

    /// Poisons the hub and panics with `report`.
    fn abort(&self, mut st: MutexGuard<'_, HubState>, report: String) -> ! {
        st.poisoned = true;
        self.cv.notify_all();
        drop(st);
        panic!("{report}");
    }

    /// Records that `rank`'s closure returned after `completed`
    /// collectives. Peers already waiting in generation `completed` are
    /// stranded, which aborts the job; a later arrival there aborts it in
    /// [`Hub::exchange`].
    pub fn rank_finished(&self, rank: usize, completed: u64) {
        let mut st = self.state.lock();
        if st.poisoned {
            return;
        }
        if st.first_exit.is_none_or(|(_, n)| completed < n) {
            st.first_exit = Some((rank, completed));
        }
        if st.collecting && st.arrived > 0 && st.gen >= completed {
            let report = st.report(Violation::RankExited {
                exited_rank: rank,
                completed,
                index: st.gen,
                sigs: &st.sigs,
            });
            self.abort(st, report);
        }
    }

    /// Runs one collective. `gen` is the caller's collective-call counter
    /// (each [`crate::Comm`] increments it per call) and `sig` its
    /// signature, which must equal every peer's; `combine` executes
    /// exactly once, on the last-arriving rank.
    ///
    /// The combiner receives `(inputs, entry_times)` and must return the
    /// shared result plus per-rank exit times (commonly all equal to
    /// `max(entry_times) + cost`).
    pub fn exchange<T, R, F>(
        &self,
        rank: usize,
        gen: u64,
        now: f64,
        sig: CollectiveSig,
        input: T,
        combine: F,
    ) -> (Arc<R>, f64)
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>, &[f64]) -> (R, Vec<f64>),
    {
        let mut st = self.state.lock();

        // Wait for our generation to start collecting.
        while !(st.gen == gen && st.collecting) {
            if st.poisoned {
                panic!("{ABORT_MSG}");
            }
            self.cv.wait(&mut st);
        }
        if st.poisoned {
            panic!("{ABORT_MSG}");
        }

        st.sigs[rank] = Some(sig);
        if let Some((exited_rank, completed)) = st.first_exit.filter(|&(_, n)| n <= gen) {
            let report = st.report(Violation::RankExited {
                exited_rank,
                completed,
                index: gen,
                sigs: &st.sigs,
            });
            self.abort(st, report);
        }
        st.inputs[rank] = Some(Box::new(input));
        st.entry_times[rank] = now;
        st.arrived += 1;

        if st.arrived == self.size {
            // Last arrival: verify, then run the combiner.
            if st.sigs.iter().any(|s| *s != Some(sig)) {
                let report = st.report(Violation::SequenceMismatch {
                    index: gen,
                    sigs: &st.sigs,
                });
                self.abort(st, report);
            }
            st.history[gen as usize % HISTORY] = Some(sig);
            st.sigs.fill(None);
            let inputs: Vec<T> = st
                .inputs
                .iter_mut()
                .map(|slot| {
                    *slot
                        .take()
                        // audit: the rendezvous gate admitted all ranks, so every slot is filled.
                        .expect("all ranks deposited")
                        .downcast::<T>()
                        // audit: the signatures matched, so every rank ran the same collective.
                        .expect("collective input types must match across ranks")
                })
                .collect();
            let times = st.entry_times.clone();
            let (result, exits) = combine(inputs, &times);
            assert_eq!(
                exits.len(),
                self.size,
                "combiner must return one exit time per rank"
            );
            st.result = Some(Arc::new(result));
            st.exit_times = exits;
            st.collecting = false;
            self.cv.notify_all();
        } else {
            while st.collecting && st.gen == gen {
                if st.poisoned {
                    panic!("{ABORT_MSG}");
                }
                self.cv.wait(&mut st);
            }
            if st.poisoned {
                panic!("{ABORT_MSG}");
            }
        }

        // Distribution phase for generation `gen`.
        let result = st
            .result
            .as_ref()
            // audit: the combiner stored the result before distribution began.
            .expect("result present during distribution")
            .clone()
            .downcast::<R>()
            // audit: the combiner's output type is the same for every rank.
            .expect("collective result types must match across ranks");
        let exit = st.exit_times[rank];
        st.departed += 1;
        if st.departed == self.size {
            // Reset for the next generation.
            st.gen += 1;
            st.collecting = true;
            st.arrived = 0;
            st.departed = 0;
            st.result = None;
            self.cv.notify_all();
        }
        (result, exit)
    }

    /// Communicator size this hub synchronizes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The last matched signatures (at most [`HISTORY`]), oldest first,
    /// as a report renders them.
    #[cfg(test)]
    pub(crate) fn recent(&self) -> Vec<String> {
        let st = self.state.lock();
        let matched = st.matched();
        (matched.saturating_sub(HISTORY as u64)..matched)
            .filter_map(|g| st.history[g as usize % HISTORY].map(|s| s.to_string()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CollectiveKind, Label};
    use std::thread;

    fn barrier() -> CollectiveSig {
        CollectiveSig {
            kind: CollectiveKind::Barrier,
            root: None,
            op: None,
            parts: None,
            label: Label::default(),
        }
    }

    /// Drives `n` threads through `rounds` collectives and returns the
    /// per-thread observations.
    fn drive<R: Send + Sync + Clone + 'static>(
        n: usize,
        rounds: usize,
        f: impl Fn(&Hub, usize, u64) -> (Arc<R>, f64) + Send + Sync + Copy + 'static,
    ) -> Vec<Vec<(R, f64)>> {
        let hub = Arc::new(Hub::new(n));
        let mut handles = Vec::new();
        for rank in 0..n {
            let hub = Arc::clone(&hub);
            handles.push(thread::spawn(move || {
                let mut obs = Vec::new();
                for g in 0..rounds {
                    let (r, t) = f(&hub, rank, g as u64);
                    obs.push(((*r).clone(), t));
                }
                obs
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn sum_collective_all_ranks_agree() {
        let per_thread = drive::<u64>(8, 1, |hub, rank, gen| {
            hub.exchange(
                rank,
                gen,
                rank as f64,
                barrier(),
                rank as u64,
                |inputs, times| {
                    let sum: u64 = inputs.iter().sum();
                    let exit = times.iter().cloned().fold(0.0, f64::max) + 1.0;
                    (sum, vec![exit; times.len()])
                },
            )
        });
        for obs in &per_thread {
            assert_eq!(obs[0].0, (0..8).sum::<u64>());
            assert_eq!(obs[0].1, 7.0 + 1.0); // max entry (rank 7) + cost
        }
    }

    #[test]
    fn generations_do_not_interleave() {
        // Many back-to-back rounds: if generations leaked, inputs from
        // different rounds would mix and sums would be wrong.
        let rounds = 50;
        let per_thread = drive::<u64>(4, rounds, |hub, rank, gen| {
            let input = gen * 10 + rank as u64;
            hub.exchange(rank, gen, 0.0, barrier(), input, |inputs, times| {
                (inputs.iter().sum::<u64>(), vec![0.0; times.len()])
            })
        });
        for obs in &per_thread {
            for (g, (sum, _)) in obs.iter().enumerate() {
                let expect: u64 = (0..4).map(|r| g as u64 * 10 + r).sum();
                assert_eq!(*sum, expect, "round {g}");
            }
        }
    }

    #[test]
    fn racing_generations_match_their_signatures_and_results() {
        // 16 threads through 10 000 generations, each thread yielding at
        // seeded random points; every generation carries its own label,
        // so a deposit landing in the wrong generation is a violation.
        let (n, rounds) = (16, 10_000);
        let per_thread = drive::<u64>(n, rounds, move |hub, rank, gen| {
            let mut x = (gen + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rank as u64;
            for _ in 0..3 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 3 == 0 {
                    thread::yield_now();
                }
            }
            let sig = CollectiveSig {
                label: Label::default().nested("race", Some(gen as usize)),
                ..barrier()
            };
            let input = gen * n as u64 + rank as u64;
            hub.exchange(rank, gen, 0.0, sig, input, |inputs, times| {
                (inputs.iter().sum::<u64>(), vec![0.0; times.len()])
            })
        });
        let n = n as u64;
        for obs in &per_thread {
            for (g, (sum, _)) in obs.iter().enumerate() {
                assert_eq!(*sum, g as u64 * n * n + n * (n - 1) / 2, "generation {g}");
            }
        }
    }

    #[test]
    fn per_rank_exit_times_are_delivered() {
        let per_thread = drive::<()>(4, 1, |hub, rank, gen| {
            hub.exchange(rank, gen, 0.0, barrier(), (), |_, times| {
                ((), (0..times.len()).map(|r| r as f64 * 2.0).collect())
            })
        });
        for (rank, obs) in per_thread.iter().enumerate() {
            assert_eq!(obs[0].1, rank as f64 * 2.0);
        }
    }

    #[test]
    fn single_rank_hub_is_immediate() {
        let hub = Hub::new(1);
        let (r, t) = hub.exchange(0, 0, 3.0, barrier(), 41u32, |mut v, times| {
            (v.pop().unwrap() + 1, vec![times[0]])
        });
        assert_eq!(*r, 42);
        assert_eq!(t, 3.0);
    }
}
