//! Figure 11: Level-1 (collective) read time for Roads, stripe size
//! 16 MB, stripe counts 16/32/64/96 — exhibiting the ROMIO reader-count
//! cliffs at 24, 48 and 72 nodes.

use super::{fig08::bandwidth_contiguous, spec, Scale};
use crate::report::{human_bytes, Table};
use mvio_msim::io::select_readers;
use mvio_msim::AccessLevel;
use mvio_pfs::{FsKind, StripeSpec};

/// Stripe counts the paper sweeps in this figure.
pub const OST_COUNTS: [u32; 4] = [16, 32, 64, 96];

/// Node counts including the problematic non-divisor points.
pub fn nodes_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![16, 24]
    } else {
        vec![8, 16, 24, 32, 48, 64, 72]
    }
}

/// Runs the Figure 11 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let ssize = scale.block(16 << 20);
    let mut headers: Vec<String> = vec!["nodes".into()];
    for o in OST_COUNTS {
        headers.push(format!("s ({o} OST)"));
        headers.push(format!("readers ({o})"));
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Figure 11: Level-1 collective read time, Roads ({} scaled 1/{}), stripe size 16 MB",
            human_bytes(spec("Roads").paper_bytes),
            scale.denominator
        ),
        &headers_ref,
    );
    for nodes in nodes_sweep(quick) {
        let mut cells = vec![nodes.to_string()];
        for &osts in &OST_COUNTS {
            let stripe = StripeSpec::new(osts, ssize);
            // Level-1 reads are deterministic: one run is the average.
            let (_bytes, time) = bandwidth_contiguous(
                "Roads",
                scale,
                nodes,
                16,
                stripe,
                ssize,
                AccessLevel::Level1,
                1,
            );
            cells.push(format!("{:.2}", time * scale.denominator as f64));
            cells.push(select_readers(FsKind::Lustre, osts, nodes, None).to_string());
        }
        t.row(cells);
    }
    t.note("paper: drops at 24, 48 and 72 nodes — ROMIO picks the largest divisor of the stripe count <= node count, so non-divisor node counts waste nodes");
    t.note("paper: ~3.5 GB/s max with 96 OSTs at this 16 MB stripe size");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline mechanism, on every row of the rendered sweep: the
    /// readers column is the divisor rule, a node count with fewer
    /// readers than nodes (24 nodes on a 64-OST file get only 16) gains
    /// under 5% over the row with as many nodes as it has readers, and
    /// more readers always read faster.
    #[test]
    fn non_divisor_node_count_underperforms() {
        for n in [24, 48, 72] {
            assert!(select_readers(FsKind::Lustre, 64, n, None) < n);
        }
        let table = run(Scale::default_repro(), false);
        let rows: Vec<Vec<f64>> = crate::report::rendered_rows(&table)
            .iter()
            .map(|row| row.iter().map(|c| c.parse().unwrap()).collect())
            .collect();
        for (i, &osts) in OST_COUNTS.iter().enumerate() {
            let (t, r) = (1 + 2 * i, 2 + 2 * i);
            for row in &rows {
                let readers = select_readers(FsKind::Lustre, osts, row[0] as usize, None);
                assert_eq!(row[r] as usize, readers, "{table}");
                if let Some(base) = rows.iter().find(|b| b[0] == row[r] && row[r] < row[0]) {
                    assert!(
                        base[t] / row[t] < 1.05,
                        "{osts} OSTs, {} nodes\n{table}",
                        row[0]
                    );
                }
            }
            for w in rows.windows(2) {
                let faster = w[1][r] <= w[0][r] || w[1][t] < w[0][t];
                assert!(faster, "{osts} OSTs, {} nodes\n{table}", w[1][0]);
            }
        }
    }

    #[test]
    fn render_includes_reader_counts() {
        let s = run(
            Scale {
                denominator: 200_000,
            },
            true,
        );
        assert!(s.contains("readers"));
        assert!(s.contains("Figure 11"));
    }
}
