//! Time-varying update workloads: a hotspot that drifts across the world.
//!
//! The static generators in [`crate::writer`] model the paper's
//! batch-ingest setting: one skewed snapshot, partitioned once. Mutable
//! deployments see something harder — insert traffic whose *spatial*
//! concentration moves over time (a city waking up, a storm front, a
//! breaking-news geofence), so a decomposition balanced for minute 0 is
//! wrong by minute 30. This module generates that stream: a square
//! hotspot whose center glides corner-to-corner across the world,
//! emitting a batch of point inserts per step and deleting each batch
//! again `window` steps later (a sliding time-to-live, like an
//! expiring-events table).
//!
//! Every step is a *pure function* of `(spec, step)`: deletes are
//! regenerated, not remembered, so they match their inserts bit-for-bit
//! and the whole stream is reproducible from the spec alone.

use mvio_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a moving-hotspot insert/delete stream.
#[derive(Debug, Clone, Copy)]
pub struct MovingHotspot {
    /// World rectangle the stream lives in.
    pub world: Rect,
    /// Number of steps in the stream.
    pub steps: usize,
    /// Point inserts emitted per step.
    pub inserts_per_step: usize,
    /// Steps an insert survives before the stream deletes it again; `0`
    /// means nothing is ever deleted (the hotspot only accretes).
    pub window: usize,
    /// Fraction of each world dimension the hotspot box covers. Spreading
    /// the load over a *box* of cells (rather than a tight Gaussian peak)
    /// is what keeps the hottest single cell below a per-rank mean, so a
    /// cell-granular decomposition can actually rebalance it.
    pub spread: f64,
    /// Seed; the whole stream derives from it.
    pub seed: u64,
}

/// One step of the stream: the inserts born at `step` and the deletes
/// retiring the batch born `window` steps earlier.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStep {
    /// Step index in `0..spec.steps`.
    pub step: usize,
    /// Hotspot center this step.
    pub center: Point,
    /// Points inserted this step, each with a stream-unique userdata tag.
    pub inserts: Vec<(Point, String)>,
    /// Exact copies of the inserts from `step - window` (empty while the
    /// window is still filling, or when `window == 0`).
    pub deletes: Vec<(Point, String)>,
}

impl MovingHotspot {
    /// The hotspot center at `step`: linear interpolation from the
    /// bottom-left to the top-right of the world, inset by the hotspot
    /// half-width so the box never leaves the world.
    pub fn center_at(&self, step: usize) -> Point {
        let t = if self.steps > 1 {
            step as f64 / (self.steps - 1) as f64
        } else {
            0.5
        };
        let (hw, hh) = self.half_extents();
        let x0 = self.world.min_x + hw;
        let x1 = (self.world.max_x - hw).max(x0);
        let y0 = self.world.min_y + hh;
        let y1 = (self.world.max_y - hh).max(y0);
        Point::new(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    }

    /// The inserts born at `step` — a pure function of the spec and the
    /// step index, which is how [`UpdateStep::deletes`] can reproduce an
    /// earlier batch without any state.
    pub fn inserts_at(&self, step: usize) -> Vec<(Point, String)> {
        // Distinct odd multiplier per step decorrelates the per-step RNG
        // streams; the ids keep batches disjoint regardless.
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let c = self.center_at(step);
        let (hw, hh) = self.half_extents();
        (0..self.inserts_per_step)
            .map(|i| {
                let (dx, dy): (f64, f64) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                let p = Point::new(
                    (c.x + dx * hw).clamp(self.world.min_x, self.world.max_x),
                    (c.y + dy * hh).clamp(self.world.min_y, self.world.max_y),
                );
                (p, format!("hot={step:04}-{i:05}"))
            })
            .collect()
    }

    /// Materializes step `step` of the stream.
    pub fn step(&self, step: usize) -> UpdateStep {
        let deletes = match step.checked_sub(self.window) {
            Some(born) if self.window > 0 => self.inserts_at(born),
            _ => Vec::new(),
        };
        UpdateStep {
            step,
            center: self.center_at(step),
            inserts: self.inserts_at(step),
            deletes,
        }
    }

    /// Materializes the whole stream.
    pub fn stream(&self) -> Vec<UpdateStep> {
        (0..self.steps).map(|s| self.step(s)).collect()
    }

    fn half_extents(&self) -> (f64, f64) {
        (
            (self.spread * self.world.width() / 2.0).max(0.0),
            (self.spread * self.world.height() / 2.0).max(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec() -> MovingHotspot {
        MovingHotspot {
            world: Rect::new(0.0, 0.0, 100.0, 50.0),
            steps: 6,
            inserts_per_step: 40,
            window: 2,
            spread: 0.25,
            seed: 11,
        }
    }

    #[test]
    fn stream_is_deterministic() {
        assert_eq!(spec().stream(), spec().stream());
    }

    #[test]
    fn deletes_replay_the_insert_batch_from_window_steps_earlier() {
        let s = spec();
        let stream = s.stream();
        for step in &stream {
            if step.step < s.window {
                assert!(step.deletes.is_empty(), "window still filling");
            } else {
                assert_eq!(step.deletes, stream[step.step - s.window].inserts);
            }
        }
    }

    #[test]
    fn inserts_stay_inside_the_hotspot_box_and_the_world() {
        let s = spec();
        for step in s.stream() {
            let (hw, hh) = s.half_extents();
            for (p, _) in &step.inserts {
                assert!(s.world.contains_point(p));
                assert!((p.x - step.center.x).abs() <= hw + 1e-9);
                assert!((p.y - step.center.y).abs() <= hh + 1e-9);
            }
        }
    }

    #[test]
    fn ids_are_unique_across_the_whole_stream() {
        let s = spec();
        let mut seen = HashSet::new();
        for step in s.stream() {
            for (_, id) in &step.inserts {
                assert!(seen.insert(id.clone()), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), s.steps * s.inserts_per_step);
    }

    #[test]
    fn center_traverses_the_world_diagonal() {
        let s = spec();
        let first = s.center_at(0);
        let last = s.center_at(s.steps - 1);
        assert!(last.x - first.x > s.world.width() * 0.5);
        assert!(last.y - first.y > s.world.height() * 0.5);
        // Monotone drift.
        for w in (0..s.steps).collect::<Vec<_>>().windows(2) {
            assert!(s.center_at(w[1]).x > s.center_at(w[0]).x);
        }
    }

    #[test]
    fn zero_window_never_deletes() {
        let s = MovingHotspot {
            window: 0,
            ..spec()
        };
        assert!(s.stream().iter().all(|st| st.deletes.is_empty()));
    }
}
