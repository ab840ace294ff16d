//! Job launcher: spawns one thread per rank, SPMD-style.

use crate::collective::Hub;
use crate::comm::{Comm, Shared};
use crate::time::CostModel;
use crate::topology::Topology;
use crossbeam::channel::unbounded;
use std::sync::Arc;

/// Configuration for one simulated job.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Node/rank layout.
    pub topology: Topology,
    /// Cost model shared by all ranks.
    pub cost: CostModel,
    /// Stack size per rank thread. Jobs with a thousand ranks need modest
    /// stacks; 1 MiB is ample since the library never recurses deeply.
    pub stack_size: usize,
}

impl WorldConfig {
    /// Default configuration with the calibrated cost model.
    pub fn new(topology: Topology) -> Self {
        WorldConfig {
            topology,
            cost: CostModel::calibrated(),
            stack_size: 1 << 20,
        }
    }

    /// Overrides the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// The job launcher.
pub struct World;

impl World {
    /// Runs `f` as an SPMD job: one OS thread per rank, each receiving its
    /// own [`Comm`]. Returns the per-rank results, indexed by rank.
    ///
    /// Panics in any rank propagate (the job aborts, like
    /// `MPI_Abort`-on-error behaviour), and so does a collective-protocol
    /// violation: every run is verified (see [`crate::check`]).
    pub fn run<F, R>(cfg: WorldConfig, f: F) -> Vec<R>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let p = cfg.topology.ranks();
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            topo: cfg.topology,
            cost: cfg.cost,
            senders,
            hub: Hub::new(p),
        });

        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, rx) in receivers.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(cfg.stack_size)
                    .spawn_scoped(scope, move || {
                        // MPI_Abort semantics: if this rank panics, poison
                        // the collectives and wake every blocked receiver
                        // so the whole job terminates instead of hanging.
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut comm = Comm::new(rank, Arc::clone(&shared), rx);
                            let out = f(&mut comm);
                            // The closure returned: tell the hub how far
                            // this rank got, so peers still inside (or
                            // later entering) a collective this rank never
                            // joined are reported as stranded. A report
                            // panicking here still runs the poison path
                            // below, waking those peers.
                            shared.hub.rank_finished(rank, comm.collectives_entered());
                            out
                        }));
                        if result.is_err() {
                            shared.hub.poison();
                            for s in &shared.senders {
                                let _ = s.send(crate::comm::Envelope {
                                    src: rank,
                                    tag: crate::comm::POISON_TAG,
                                    data: Vec::new(),
                                    send_time: 0.0,
                                });
                            }
                        }
                        result
                    })
                    // audit: spawn fails only on OS resource exhaustion; no meaningful recovery.
                    .expect("spawn rank thread");
                handles.push(handle);
            }
            let results: Vec<_> = handles
                .into_iter()
                // audit: rank closures run under `catch_unwind`, so the thread body cannot panic.
                .map(|h| h.join().expect("rank thread itself never panics"))
                .collect();
            // Prefer the originating panic over secondary abort panics.
            let mut abort_payload = None;
            let mut ok = Vec::with_capacity(p);
            for r in results {
                match r {
                    Ok(v) => ok.push(v),
                    Err(payload) => {
                        let is_secondary = payload
                            .downcast_ref::<String>()
                            .map(|s| s.contains(crate::collective::ABORT_MSG))
                            .or_else(|| {
                                payload
                                    .downcast_ref::<&str>()
                                    .map(|s| s.contains(crate::collective::ABORT_MSG))
                            })
                            .unwrap_or(false);
                        match (&abort_payload, is_secondary) {
                            (None, _) => abort_payload = Some((payload, is_secondary)),
                            (Some((_, true)), false) => {
                                abort_payload = Some((payload, false));
                            }
                            _ => {}
                        }
                    }
                }
            }
            if let Some((payload, _)) = abort_payload {
                std::panic::resume_unwind(payload);
            }
            ok
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Work;

    fn cfg(nodes: usize, ppn: usize) -> WorldConfig {
        WorldConfig::new(Topology::new(nodes, ppn))
    }

    #[test]
    fn ranks_see_their_identity() {
        let out = World::run(cfg(2, 3), |comm| (comm.rank(), comm.size(), comm.node()));
        assert_eq!(
            out,
            vec![
                (0, 6, 0),
                (1, 6, 0),
                (2, 6, 0),
                (3, 6, 1),
                (4, 6, 1),
                (5, 6, 1)
            ]
        );
    }

    #[test]
    fn send_recv_moves_data_and_time() {
        let out = World::run(cfg(1, 2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"payload");
                comm.now()
            } else {
                let data = comm.recv(0, 7);
                assert_eq!(data, b"payload");
                comm.now()
            }
        });
        // The receiver's clock must be at least the message flight time.
        assert!(out[1] > 0.0);
        // Sender is only charged injection overhead, less than the flight.
        assert!(out[0] < out[1]);
    }

    #[test]
    fn messages_do_not_overtake_within_src_tag() {
        let out = World::run(cfg(1, 2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"first");
                comm.send(1, 1, b"second");
                vec![]
            } else {
                vec![comm.recv(0, 1), comm.recv(0, 1)]
            }
        });
        assert_eq!(out[1], vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn recv_by_tag_picks_matching_message() {
        let out = World::run(cfg(1, 2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, b"five");
                comm.send(1, 9, b"nine");
                vec![]
            } else {
                // Receive tag 9 first even though tag 5 was sent first.
                let nine = comm.recv(0, 9);
                let five = comm.recv(0, 5);
                vec![nine, five]
            }
        });
        assert_eq!(out[1], vec![b"nine".to_vec(), b"five".to_vec()]);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let out = World::run(cfg(1, 4), |comm| {
            // Ranks do wildly different amounts of work first.
            comm.charge(Work::Seconds(comm.rank() as f64));
            comm.barrier();
            comm.now()
        });
        // All ranks leave the barrier at the same virtual instant, which is
        // at least the slowest rank's entry.
        assert!(out.iter().all(|&t| (t - out[0]).abs() < 1e-12));
        assert!(out[0] >= 3.0);
    }

    #[test]
    fn bcast_delivers_root_payload() {
        let out = World::run(cfg(1, 4), |comm| {
            let data = if comm.rank() == 2 {
                b"hello".to_vec()
            } else {
                vec![]
            };
            comm.bcast(2, data)
        });
        assert!(out.iter().all(|d| d == b"hello"));
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let out = World::run(cfg(1, 3), |comm| comm.allgather(vec![comm.rank() as u8]));
        for got in &out {
            assert_eq!(*got, vec![vec![0u8], vec![1u8], vec![2u8]]);
        }
    }

    #[test]
    fn alltoall_u64_transposes() {
        let out = World::run(cfg(1, 3), |comm| {
            // rank r sends value 10*r + dst to each dst.
            let sends: Vec<u64> = (0..3).map(|d| 10 * comm.rank() as u64 + d as u64).collect();
            let req = comm.ialltoall_u64(sends);
            comm.wait(req)
        });
        // rank d receives [10*0 + d, 10*1 + d, 10*2 + d].
        for (d, got) in out.iter().enumerate() {
            assert_eq!(*got, vec![d as u64, 10 + d as u64, 20 + d as u64]);
        }
    }

    #[test]
    fn alltoallv_routes_variable_buffers() {
        let out = World::run(cfg(1, 3), |comm| {
            let r = comm.rank();
            // rank r sends r+1 copies of byte r to each destination d,
            // tagged with d at the front.
            let sends: Vec<Vec<u8>> = (0..3)
                .map(|d| {
                    let mut v = vec![d as u8];
                    v.extend(std::iter::repeat_n(r as u8, r + 1));
                    v
                })
                .collect();
            comm.alltoallv(sends)
        });
        for (d, got) in out.iter().enumerate() {
            for (s, buf) in got.iter().enumerate() {
                assert_eq!(buf[0] as usize, d);
                assert_eq!(buf.len(), 1 + s + 1);
                assert!(buf[1..].iter().all(|&b| b as usize == s));
            }
        }
    }

    #[test]
    fn allreduce_sums() {
        let out = World::run(cfg(2, 2), |comm| {
            comm.allreduce_u64(comm.rank() as u64, |a, b| a + b)
        });
        assert_eq!(out, vec![6, 6, 6, 6]);
    }

    #[test]
    fn reduce_delivers_only_at_root() {
        let out = World::run(cfg(1, 4), |comm| {
            comm.reduce(0, comm.rank() as u64 + 1, 8, &|a: &u64, b: &u64| a * b)
        });
        assert_eq!(out[0], Some(24));
        assert!(out[1..].iter().all(Option::is_none));
    }

    #[test]
    fn scan_is_inclusive_prefix() {
        let out = World::run(cfg(1, 4), |comm| {
            comm.scan(comm.rank() as u64 + 1, 8, &|a: &u64, b: &u64| a + b)
        });
        assert_eq!(out, vec![1, 3, 6, 10]);
    }

    #[test]
    fn non_commutative_reduction_respects_rank_order() {
        struct Concat;
        impl crate::reduceop::ReduceOp<String> for Concat {
            fn combine(&self, a: &String, b: &String) -> String {
                format!("{a}{b}")
            }
            fn commutative(&self) -> bool {
                false
            }
        }
        let out = World::run(cfg(1, 4), |comm| {
            let letter = ((b'a' + comm.rank() as u8) as char).to_string();
            comm.allreduce(letter, 1, &Concat)
        });
        assert!(out.iter().all(|s| s == "abcd"));
    }

    #[test]
    fn ring_exchange_like_algorithm1() {
        // The even/odd send-recv ring from Algorithm 1 must not deadlock
        // and must deliver each rank's fragment to its successor.
        let p = 8;
        let out = World::run(cfg(2, 4), move |comm| {
            let rank = comm.rank();
            let frag = vec![rank as u8; rank + 1];
            let next = (rank + 1) % p;
            let prev = (rank + p - 1) % p;
            let got;
            if rank % 2 == 0 {
                comm.send(next, 0, &frag);
                got = comm.recv(prev, 0);
            } else {
                got = comm.recv(prev, 0);
                comm.send(next, 0, &frag);
            }
            got
        });
        for (rank, got) in out.iter().enumerate() {
            let prev = (rank + p - 1) % p;
            assert_eq!(got.len(), prev + 1);
            assert!(got.iter().all(|&b| b as usize == prev));
        }
    }

    #[test]
    fn collective_timing_is_deterministic_across_runs() {
        let run = || {
            World::run(cfg(2, 2), |comm| {
                comm.charge(Work::Seconds(0.1 * (comm.rank() as f64 + 1.0)));
                comm.barrier();
                let v = comm.allreduce_u64(1, |a, b| a + b);
                comm.alltoallv(vec![vec![0u8; 100]; 4]);
                (v, comm.now())
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rank_panic_aborts_job_instead_of_hanging() {
        // Rank 1 panics while rank 0 blocks on a recv that will never be
        // satisfied; MPI_Abort semantics must terminate the whole job.
        let result = std::panic::catch_unwind(|| {
            World::run(cfg(1, 2), |comm| {
                if comm.rank() == 1 {
                    panic!("deliberate failure in rank 1");
                }
                comm.recv(1, 99) // never sent
            })
        });
        let payload = result.expect_err("job must abort");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("deliberate failure"), "got: {msg}");
    }

    #[test]
    fn rank_panic_aborts_collectives_too() {
        let result = std::panic::catch_unwind(|| {
            World::run(cfg(1, 4), |comm| {
                if comm.rank() == 3 {
                    panic!("rank 3 died");
                }
                comm.barrier(); // would wait for rank 3 forever
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn large_world_smoke() {
        // 16 nodes x 16 ranks = 256 threads: exercise the hub at scale.
        let out = World::run(cfg(16, 16), |comm| {
            comm.allreduce_u64(comm.rank() as u64, |a, b| a + b)
        });
        let expect: u64 = (0..256).sum();
        assert!(out.iter().all(|&v| v == expect));
    }
}
