//! Bench-regression gate: re-measures the tracked speedup ratios at the
//! configurations their unit-test floors were asserted under, and fails
//! when any drops below its floor.
//!
//! CI runs this (`repro -- gate`) as its own job: it writes the ratios to
//! `BENCH_gate.json` and exits nonzero on a regression. It ignores
//! `--scale` and `--quick`, since a floor only means something at its own
//! configuration, and it leaves the experiments' full `BENCH_*.json`
//! trajectories alone. The ratios are virtual-time quotients, so they
//! repeat bit for bit.

use super::fig17::load_imbalance;
use super::{decomp, exchange, io, rebalance, serve, Scale};
use crate::report::{write_trajectory, Cell::*, Table};
use mvio_core::decomp::DecompPolicy;
use mvio_core::grid::{CellMap, GridSpec};
use mvio_datagen::{write_wkt_dataset_with_centers, ShapeGen, ShapeKind, SpatialDistribution};
use mvio_geom::Rect;
use mvio_msim::{Topology, World, WorldConfig};
use mvio_pfs::{FsConfig, SimFs};
use mvio_sjoin::{spatial_join, JoinOptions};

/// Tracked floor: on a clustered join at 16 ranks under the default
/// round-robin map, balancing after the filter must cut the max/mean
/// per-rank refine load at least this factor below what the map alone
/// gives (`owned_refine_tests` vs `refine_tests`).
pub const JOIN_BALANCE_FLOOR: f64 = 3.0;

/// Max/mean of `owned_refine_tests` ÷ max/mean of `refine_tests` for one
/// clustered lakes ⋈ roads join at 16 ranks: both layers on the same 12
/// Zipf-weighted hotspots, 32² cells, round-robin map.
pub fn join_balance_gain() -> f64 {
    let fs = SimFs::new(FsConfig::gpfs_roger());
    let dist = SpatialDistribution::Clustered {
        clusters: 12,
        skew: 1.1,
        spread: 0.03,
    };
    let world = Rect::new(0.0, 0.0, 100.0, 100.0);
    for (path, kind, gen, count, seed) in [
        (
            "lakes.wkt",
            ShapeKind::Polygon,
            ShapeGen::lake_polygons(),
            5_000,
            1,
        ),
        (
            "roads.wkt",
            ShapeKind::Line,
            ShapeGen::road_edges(),
            10_000,
            2,
        ),
    ] {
        write_wkt_dataset_with_centers(&fs, path, kind, gen, &dist, world, count, 0x6A7E, seed);
    }
    let topo = Topology::new(1, 16);
    fs.set_active_ranks(topo.ranks());
    let opts = JoinOptions {
        grid: GridSpec::square(32),
        decomp: DecompPolicy::Uniform(CellMap::RoundRobin),
        ..Default::default()
    };
    let reports = World::run(WorldConfig::new(topo), move |comm| {
        spatial_join(comm, &fs, "lakes.wkt", "roads.wkt", &opts).expect("gate join")
    });
    load_imbalance(&reports, |r| r.owned_refine_tests)
        / load_imbalance(&reports, |r| r.refine_tests)
}

/// One tracked ratio with its floor.
#[derive(Debug, Clone)]
pub struct Check {
    /// Which tracked ratio this is.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Asserted floor the value must meet or beat.
    pub floor: f64,
}

impl Check {
    /// Whether the measured value clears the floor.
    pub fn passes(&self) -> bool {
        self.value >= self.floor
    }
}

/// Runs all tracked measurements and returns the checks. Deliberately
/// leaves the experiments' `BENCH_*.json` files alone: the gate's
/// pinned-floor sweeps are smaller than the full experiments', and
/// overwriting the full trajectories with them would silently drop rows.
pub fn checks() -> Vec<Check> {
    let mut out = Vec::new();

    // Decomposition: adaptive must cut clustered imbalance vs the
    // uniform grid at 16 ranks (same parameters as the unit-test floor).
    let rows = decomp::measure(
        Scale {
            denominator: 10_000,
        },
        3_000,
        &[16],
    );
    let find = |input: &str, policy: &str| -> f64 {
        rows.iter()
            .find(|r| r.input == input && r.decomp == policy)
            .expect("measured row")
            .imbalance
    };
    out.push(Check {
        name: "decomp: uniform/adaptive clustered imbalance @16 ranks",
        value: find("clustered", "uniform") / find("clustered", "adaptive"),
        floor: decomp::CLUSTERED_IMBALANCE_FLOOR,
    });

    // Exchange: the chunked overlapped plan must beat blocking ingest
    // at 16 ranks.
    let rows = exchange::measure(Scale { denominator: 1000 }, 320, &[16, 64]);
    let ingest = |ranks: usize, unlimited: bool| -> f64 {
        rows.iter()
            .find(|r| r.ranks == ranks && (r.chunk == "unlimited") == unlimited)
            .expect("measured row")
            .ingest_s
    };
    out.push(Check {
        name: "exchange: blocking/chunked ingest @16 ranks",
        value: ingest(16, true) / ingest(16, false),
        floor: exchange::CHUNKED_INGEST_SPEEDUP_FLOOR,
    });

    // Collective I/O: widening the write aggregators must beat a single
    // aggregator at 16 ranks.
    let rows = io::measure(Scale { denominator: 1000 }, 600, &[16], &[1, 4]);
    out.push(Check {
        name: "io: 1-agg/best-agg snapshot write @16 ranks",
        value: io::best_write_speedup(&rows, 16),
        floor: io::AGGREGATOR_WRITE_SPEEDUP_FLOOR,
    });

    // Serving: batched query serving must beat the naive
    // query-per-call loop in global qps at 64 ranks (same parameters
    // as the unit-test floor).
    let rows = serve::measure(Scale { denominator: 1000 }, &[64]);
    let qps = |mode: &str| -> f64 {
        rows.iter()
            .find(|r| r.mode == mode && r.ranks == 64)
            .expect("measured row")
            .qps
    };
    out.push(Check {
        name: "serve: batched/naive qps @64 ranks",
        value: qps("batched") / qps("naive"),
        floor: serve::BATCHED_SERVE_SPEEDUP_FLOOR,
    });

    // Rebalancing: under the moving hotspot, the frozen static
    // decomposition must end the stream at least the floor times more
    // imbalanced than the threshold-rebalanced engine at 16 ranks
    // (same parameters as the unit-test floor, which also pins the
    // absolute imbalance ceiling and the migrated-bytes fraction).
    let rows = rebalance::measure(Scale { denominator: 1000 }, &[16]);
    let imb = |mode: &str| -> f64 {
        rows.iter()
            .find(|r| r.mode == mode && r.ranks == 16)
            .expect("measured row")
            .final_imbalance
    };
    out.push(Check {
        name: "rebalance: static/rebalanced final imbalance @16 ranks",
        value: imb("static") / imb("rebalanced"),
        floor: rebalance::STATIC_DEGRADATION_FLOOR,
    });

    out.push(Check {
        name: "join: owned/balanced refine imbalance @16 ranks",
        value: join_balance_gain(),
        floor: JOIN_BALANCE_FLOOR,
    });

    out
}

/// Runs the gate; the rendered table plus `true` when every check
/// cleared its floor and `BENCH_gate.json` was written.
pub fn run() -> (String, bool) {
    let checks = checks();
    let mut t = Table::new(
        "Bench-regression gate: tracked speedup ratios vs asserted floors",
        &["check", "measured", "floor", "status"],
    );
    let mut pass = true;
    for c in &checks {
        pass &= c.passes();
        t.row(vec![
            c.name.to_string(),
            format!("{:.3}x", c.value),
            format!("{:.2}x", c.floor),
            if c.passes() { "ok" } else { "REGRESSION" }.to_string(),
        ]);
    }
    // A failed write fails the gate, so CI never uploads a stale
    // checked-in copy as if it were this run's measurements.
    pass &= write_trajectory(&mut t, "gate", "tracked_speedup_ratio", &checks, |c| {
        vec![
            ("check", Str(c.name)),
            ("measured", Float(c.value, 4)),
            ("floor", Float(c.floor, 4)),
            ("pass", Bool(c.passes())),
        ]
    });
    t.note("the gate measures pinned floor configurations; the full trajectories are written by the decomp/exchange/io/serve/rebalance experiments");
    if !pass {
        t.note("a check failed or BENCH_gate.json was not written — failing the gate");
    }
    (t.render(), pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_floor_logic() {
        let c = Check {
            name: "x",
            value: 2.5,
            floor: 2.0,
        };
        assert!(c.passes());
        let c = Check {
            name: "x",
            value: 1.9,
            floor: 2.0,
        };
        assert!(!c.passes());
    }

    #[test]
    fn join_balance_clears_its_floor() {
        let gain = join_balance_gain();
        assert!(gain >= JOIN_BALANCE_FLOOR, "gain {gain:.3}");
    }
}
