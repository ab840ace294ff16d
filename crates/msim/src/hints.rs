//! MPI-IO hints (`MPI_Info`): the knobs the paper tunes.

/// ROMIO's single-operation byte limit: the count argument is a 32-bit
/// int, so one read/write moves at most 2 GiB (paper §3).
pub const ROMIO_MAX_IO_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Subset of MPI-IO hints relevant to the paper's experiments.
///
/// * `cb_nodes` — requested number of collective-buffering aggregator
///   nodes. On Lustre, ROMIO may *reduce* this based on the stripe count
///   (the divisor rule, Figure 11); the paper notes the user request is
///   only an upper bound.
/// * `cb_buffer_size` — per-aggregator staging buffer; large collective
///   reads split into multiple two-phase cycles of this size, which is
///   why "for larger block size, the two phase I/O algorithm is split into
///   multiple cycles … leads to sub-optimal performance" (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hints {
    /// Requested aggregator node count (`cb_nodes`); `None` = one per node.
    pub cb_nodes: Option<usize>,
    /// Collective buffering cycle size (`cb_buffer_size`), bytes.
    pub cb_buffer_size: u64,
}

impl Default for Hints {
    fn default() -> Self {
        // ROMIO's historical default collective buffer is 16 MiB.
        Hints {
            cb_nodes: None,
            cb_buffer_size: 16 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_romio() {
        let h = Hints::default();
        assert_eq!(h.cb_buffer_size, 16 << 20);
        assert_eq!(h.cb_nodes, None);
    }

    #[test]
    fn romio_limit_is_2gib() {
        assert_eq!(ROMIO_MAX_IO_BYTES, 1 << 31);
    }
}
