//! Shape synthesis: star-shaped polygons, random-walk polylines, points —
//! with heavy-tailed vertex counts.

use crate::distributions::PlacementSampler;
use mvio_geom::{Geometry, LineString, Point, Polygon};
use rand::Rng;

/// Parameters of one shape generator.
#[derive(Debug, Clone, Copy)]
pub struct ShapeGen {
    /// Typical vertex count (the bulk of the distribution).
    pub base_vertices: usize,
    /// Maximum vertex count of the heavy tail.
    pub max_vertices: usize,
    /// Probability that a shape draws from the heavy tail (Pareto-ish).
    pub tail_probability: f64,
    /// Typical shape radius in world units.
    pub radius: f64,
}

impl ShapeGen {
    /// Small building-footprint-like polygons (Cemetery, All Objects).
    pub fn small_polygons() -> Self {
        ShapeGen {
            base_vertices: 6,
            max_vertices: 64,
            tail_probability: 0.02,
            radius: 0.01,
        }
    }

    /// Larger water-body polygons with a heavier tail (Lakes).
    pub fn lake_polygons() -> Self {
        ShapeGen {
            base_vertices: 24,
            max_vertices: 1024,
            tail_probability: 0.03,
            radius: 0.12,
        }
    }

    /// Short road edges (Road Network).
    pub fn road_edges() -> Self {
        ShapeGen {
            base_vertices: 3,
            max_vertices: 24,
            tail_probability: 0.05,
            radius: 0.02,
        }
    }

    /// Draws a vertex count: usually near `base_vertices`, occasionally a
    /// heavy-tail draw up to `max_vertices` with a power-law-ish decay —
    /// the "large polygons may have more than 100 K coordinates" property.
    fn draw_vertices(&self, rng: &mut impl Rng) -> usize {
        if rng.gen::<f64>() < self.tail_probability && self.max_vertices > self.base_vertices {
            // Inverse-power sample in (base, max].
            let u: f64 = rng.gen_range(1e-9..1.0);
            let ratio = (self.max_vertices as f64 / self.base_vertices as f64).powf(u);
            ((self.base_vertices as f64 * ratio) as usize)
                .clamp(self.base_vertices, self.max_vertices)
        } else {
            let lo = self
                .base_vertices
                .saturating_sub(self.base_vertices / 2)
                .max(3);
            let hi = self.base_vertices + self.base_vertices / 2;
            rng.gen_range(lo..=hi.max(lo + 1))
        }
    }

    /// Generates a simple (non-self-intersecting) star-shaped polygon
    /// around the sampler's next center.
    pub fn polygon(&self, sampler: &mut PlacementSampler) -> Polygon {
        let center = sampler.next_center();
        let rng = sampler.rng();
        let k = self.draw_vertices(rng).max(3);
        // Star-shaped construction: sorted angles + jittered radii gives a
        // simple polygon for any k.
        let mut angles: Vec<f64> = (0..k)
            .map(|i| {
                let base = i as f64 / k as f64 * std::f64::consts::TAU;
                base + rng.gen_range(0.0..(std::f64::consts::TAU / k as f64 * 0.9))
            })
            .collect();
        angles.sort_by(f64::total_cmp);
        let mut pts: Vec<Point> = angles
            .iter()
            .map(|&a| {
                let r = self.radius * rng.gen_range(0.4..1.0);
                Point::new(center.x + r * a.cos(), center.y + r * a.sin())
            })
            .collect();
        pts.push(pts[0]); // close
                          // audit: stars have >= 3 distinct ring points by construction.
        Polygon::from_coords(pts, vec![]).expect("star construction is valid")
    }

    /// Generates a random-walk polyline from the sampler's next center.
    fn polyline(&self, sampler: &mut PlacementSampler) -> LineString {
        let start = sampler.next_center();
        let rng = sampler.rng();
        let k = self.draw_vertices(rng).max(2);
        let step = self.radius;
        let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut pts = Vec::with_capacity(k);
        let mut cur = start;
        pts.push(cur);
        for _ in 1..k {
            heading += rng.gen_range(-0.7..0.7);
            cur = Point::new(cur.x + step * heading.cos(), cur.y + step * heading.sin());
            pts.push(cur);
        }
        // audit: the walk always emits at least two points.
        LineString::new(pts).expect("walk has >= 2 points")
    }

    /// Generates a point feature.
    pub fn point(&self, sampler: &mut PlacementSampler) -> Point {
        sampler.next_center()
    }

    /// Generates a geometry of the requested kind.
    pub fn geometry(
        &self,
        kind: crate::catalog::ShapeKind,
        sampler: &mut PlacementSampler,
    ) -> Geometry {
        match kind {
            crate::catalog::ShapeKind::Point => Geometry::Point(self.point(sampler)),
            crate::catalog::ShapeKind::Line => Geometry::LineString(self.polyline(sampler)),
            crate::catalog::ShapeKind::Polygon => Geometry::Polygon(self.polygon(sampler)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::SpatialDistribution;
    use mvio_geom::Rect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler(seed: u64) -> PlacementSampler {
        SpatialDistribution::Uniform.sampler(Rect::new(0.0, 0.0, 100.0, 100.0), seed)
    }

    #[test]
    fn polygons_are_valid_and_simple_ish() {
        let gen = ShapeGen::small_polygons();
        let mut s = sampler(3);
        for _ in 0..200 {
            let p = gen.polygon(&mut s);
            assert!(p.exterior().num_points() >= 4);
            assert!(p.area() > 0.0, "star polygons have positive area");
            assert!(!p.envelope().is_empty());
        }
    }

    #[test]
    fn heavy_tail_produces_giants() {
        let gen = ShapeGen::lake_polygons();
        let mut rng = StdRng::seed_from_u64(5);
        let counts: Vec<usize> = (0..5000).map(|_| gen.draw_vertices(&mut rng)).collect();
        let max = *counts.iter().max().unwrap();
        let median = {
            let mut c = counts.clone();
            c.sort_unstable();
            c[c.len() / 2]
        };
        assert!(
            max > median * 8,
            "tail max {max} should dwarf median {median}"
        );
        assert!(max <= gen.max_vertices);
    }

    #[test]
    fn polylines_walk() {
        let gen = ShapeGen::road_edges();
        let mut s = sampler(9);
        for _ in 0..100 {
            let l = gen.polyline(&mut s);
            assert!(l.num_points() >= 2);
            assert!(l.length() > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = ShapeGen::small_polygons();
        let a = gen.polygon(&mut sampler(11));
        let b = gen.polygon(&mut sampler(11));
        assert_eq!(a, b);
    }
}
