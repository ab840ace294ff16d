//! Per-phase timing with the paper's max-over-ranks reporting.

use mvio_msim::Comm;

/// Virtual seconds spent in each pipeline phase, reported as the maximum
/// over all ranks (paper §5.2). `total` is the max end-to-end time, which
/// is ≤ the sum of phase maxima ("the total time is less than the sum of
/// different phases because here we report the maximum time among all
/// processes for each phase").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Reading file partitions, parsing, and populating grid cells.
    pub partition: f64,
    /// Serialization, the two-round exchange, and deserialization.
    pub communication: f64,
    /// Local spatial indexing plus the refine computation.
    pub compute: f64,
    /// End-to-end elapsed virtual time.
    pub total: f64,
}

impl PhaseBreakdown {
    /// Combines local phase durations into the global max-over-ranks
    /// breakdown (an allreduce per field).
    /// Collective: every rank must call it (one reduction per field).
    pub fn reduce_max(comm: &mut Comm, local: PhaseBreakdown) -> PhaseBreakdown {
        let max = |a: &f64, b: &f64| a.max(*b);
        PhaseBreakdown {
            partition: comm.allreduce(local.partition, 8, &max),
            communication: comm.allreduce(local.communication, 8, &max),
            compute: comm.allreduce(local.compute, 8, &max),
            total: comm.allreduce(local.total, 8, &max),
        }
    }

    /// Formats one breakdown row for the repro harness.
    pub fn row(&self, label: &str) -> String {
        format!(
            "{label:>18}  partition {:>9.3}s  comm {:>9.3}s  compute {:>9.3}s  total {:>9.3}s",
            self.partition, self.communication, self.compute, self.total
        )
    }
}

/// Tracks phase boundaries on one rank's virtual clock.
pub struct PhaseTimer {
    start: f64,
    last: f64,
    pub breakdown: PhaseBreakdown,
}

impl PhaseTimer {
    /// Starts timing at the rank's current clock.
    pub fn start(comm: &Comm) -> Self {
        let now = comm.now();
        PhaseTimer {
            start: now,
            last: now,
            breakdown: PhaseBreakdown::default(),
        }
    }

    fn lap(&mut self, comm: &Comm) -> f64 {
        let now = comm.now();
        let dt = now - self.last;
        self.last = now;
        dt
    }

    /// Ends the partition phase at the virtual instant `at`: `comm.now()`, or
    /// [`mvio_core::pipeline::IngestedLayers::partition_end`].
    pub fn end_partition(&mut self, at: f64) {
        self.breakdown.partition += at - self.last;
        self.last = at;
    }

    /// Ends the communication phase.
    pub fn end_communication(&mut self, comm: &Comm) {
        self.breakdown.communication += self.lap(comm);
    }

    /// Ends the compute (join/index) phase.
    pub fn end_compute(&mut self, comm: &Comm) {
        self.breakdown.compute += self.lap(comm);
    }

    /// Finishes and records the total.
    pub fn finish(mut self, comm: &Comm) -> PhaseBreakdown {
        self.breakdown.total = comm.now() - self.start;
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_msim::{Topology, Work, World, WorldConfig};

    #[test]
    fn timer_attributes_phases() {
        let out = World::run(WorldConfig::new(Topology::single_node(1)), |comm| {
            let mut t = PhaseTimer::start(comm);
            comm.charge(Work::Seconds(1.0));
            t.end_partition(comm.now());
            comm.charge(Work::Seconds(2.0));
            t.end_communication(comm);
            comm.charge(Work::Seconds(3.0));
            t.end_compute(comm);
            t.finish(comm)
        });
        let b = out[0];
        assert!((b.partition - 1.0).abs() < 1e-9);
        assert!((b.communication - 2.0).abs() < 1e-9);
        assert!((b.compute - 3.0).abs() < 1e-9);
        assert!((b.total - 6.0).abs() < 1e-9);
    }

    #[test]
    fn reduce_max_takes_slowest_rank_per_phase() {
        let out = World::run(WorldConfig::new(Topology::single_node(3)), |comm| {
            let local = PhaseBreakdown {
                partition: comm.rank() as f64,
                communication: 10.0 - comm.rank() as f64,
                compute: 1.0,
                total: 5.0 + comm.rank() as f64,
            };
            PhaseBreakdown::reduce_max(comm, local)
        });
        for b in out {
            assert_eq!(b.partition, 2.0);
            assert_eq!(b.communication, 10.0);
            assert_eq!(b.compute, 1.0);
            assert_eq!(b.total, 7.0);
        }
    }
}
