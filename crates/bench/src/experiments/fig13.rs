//! Figure 13: `MPI_Reduce` and `MPI_Scan` with the geometric `MPI_UNION`
//! operator over 100 K / 200 K / 400 K rectangles.

use super::{cost_scaled, Scale};
use crate::report::Table;
use mvio_core::spops::UnionRect;
use mvio_geom::Rect;
use mvio_msim::{ReduceOp, Topology, World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Element-wise union of per-rank rectangle arrays — the reduction payload
/// the figure benchmarks.
struct UnionRects;

impl ReduceOp<Vec<Rect>> for UnionRects {
    fn combine(&self, a: &Vec<Rect>, b: &Vec<Rect>) -> Vec<Rect> {
        let u = UnionRect;
        a.iter().zip(b).map(|(x, y)| u.combine(x, y)).collect()
    }
}

/// Which collective the run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Collective {
    Reduce,
    Scan,
}

/// Times one union collective over `count` rects per rank. Returns
/// max-over-ranks virtual seconds and the (checked) global union of the
/// first element.
fn union_collective(scale: Scale, procs: usize, count: usize, which: Collective) -> f64 {
    let cfg = WorldConfig::new(Topology::new(procs.div_ceil(16).max(1), procs.min(16)))
        .with_cost(cost_scaled(scale));
    let times = World::run(cfg, move |comm| {
        let mut rng = StdRng::seed_from_u64(1300 + comm.rank() as u64);
        let rects: Vec<Rect> = (0..count)
            .map(|_| {
                let x = rng.gen_range(0.0..100.0);
                let y = rng.gen_range(0.0..100.0);
                Rect::new(
                    x,
                    y,
                    x + rng.gen_range(0.1..2.0),
                    y + rng.gen_range(0.1..2.0),
                )
            })
            .collect();
        let bytes = (count * 32) as u64;
        let before = comm.now();
        match which {
            Collective::Reduce => {
                let out = comm.reduce(0, rects, bytes, &UnionRects);
                if let Some(v) = out {
                    assert_eq!(v.len(), count);
                }
            }
            Collective::Scan => {
                let v = comm.scan(rects, bytes, &UnionRects);
                assert_eq!(v.len(), count);
            }
        }
        comm.now() - before
    });
    times.into_iter().fold(0.0, f64::max)
}

/// Runs the Figure 13 sweep and renders the table.
pub fn run(scale: Scale, quick: bool) -> String {
    let counts: Vec<usize> = if quick {
        vec![10_000, 20_000]
    } else {
        vec![100_000, 200_000, 400_000]
    };
    let procs_sweep: Vec<usize> = if quick {
        vec![4, 8]
    } else {
        vec![8, 16, 32, 64]
    };
    let mut headers: Vec<String> = vec!["procs".into()];
    for c in &counts {
        headers.push(format!("Reduce {}K (ms)", c / 1000));
        headers.push(format!("Scan {}K (ms)", c / 1000));
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 13: MPI Reduce and Scan with the geometric UNION operator",
        &headers_ref,
    );
    for &procs in &procs_sweep {
        let mut cells = vec![procs.to_string()];
        for &c in &counts {
            let r = union_collective(scale, procs, c, Collective::Reduce);
            let s = union_collective(scale, procs, c, Collective::Scan);
            cells.push(format!("{:.2}", r * 1e3));
            cells.push(format!("{:.2}", s * 1e3));
        }
        t.row(cells);
    }
    t.note("paper: time grows with rectangle count; the tree reduction keeps growth logarithmic in processes");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_grows_with_rect_count() {
        let scale = Scale::default_repro();
        let t100 = union_collective(scale, 4, 1000, Collective::Reduce);
        let t400 = union_collective(scale, 4, 4000, Collective::Reduce);
        assert!(t400 > t100, "4x rects must cost more: {t100} vs {t400}");
    }

    #[test]
    fn scan_and_reduce_have_comparable_cost_model() {
        let scale = Scale::default_repro();
        let r = union_collective(scale, 8, 2000, Collective::Reduce);
        let s = union_collective(scale, 8, 2000, Collective::Scan);
        assert!(r > 0.0 && s > 0.0);
    }

    #[test]
    fn union_result_is_correct_under_reduction() {
        // Correctness of the elementwise operator through a real reduce.
        let out = World::run(WorldConfig::new(Topology::single_node(4)), |comm| {
            let r = comm.rank() as f64;
            let rects = vec![Rect::new(r, r, r + 1.0, r + 1.0)];
            comm.allreduce(rects, 32, &UnionRects)
        });
        for v in out {
            assert_eq!(v[0], Rect::new(0.0, 0.0, 4.0, 4.0));
        }
    }
}
