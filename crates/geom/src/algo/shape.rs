//! What the exact predicates read: [`Coords`] (an owned `&[Point]` or a
//! [`CoordsRef`] over WKB bytes) and [`Shape`] (an owned [`Geometry`] or a
//! [`GeomRef`] view), so each predicate is written once for both.

use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::rect::Rect;
use crate::wkb::{CoordsRef, GeomRef, MemberIter, RingIter};
use std::ops::ControlFlow;

/// A polyline's or a ring's points, read in place; a ring's closing
/// vertex is one of them, stored or (on an unclosed wire ring) virtual.
pub trait Coords: Copy {
    /// Number of points.
    fn num_points(self) -> usize;
    /// The `i`-th point.
    fn point(self, i: usize) -> Point;
    /// The points in order.
    fn points(self) -> impl Iterator<Item = Point>;
    /// Consecutive point pairs.
    fn segments(self) -> impl Iterator<Item = (Point, Point)>;
    /// MBR of the points, equal (under `==`) to [`Rect::from_points`].
    fn envelope(self) -> Rect;
}

impl Coords for &[Point] {
    fn num_points(self) -> usize {
        self.len()
    }

    fn point(self, i: usize) -> Point {
        self[i]
    }

    fn points(self) -> impl Iterator<Item = Point> {
        self.iter().copied()
    }

    fn segments(self) -> impl Iterator<Item = (Point, Point)> {
        self.windows(2).map(|w| (w[0], w[1]))
    }

    fn envelope(self) -> Rect {
        Rect::from_points(self)
    }
}

/// A point, a linestring's points, or a polygon's rings (shell first):
/// the pieces every geometry is made of.
#[derive(Clone)]
pub enum Part<S: Shape> {
    Point(Point),
    Line(S::Coords),
    Polygon(S::Rings),
}

/// One level of a geometry: a single [`Part`], or the members of a
/// multi-geometry or collection, each a `Form` itself.
pub enum Form<S: Shape> {
    Part(Part<S>),
    Multi(Multi, S::Members),
}

/// What a multi-geometry's members are. The order is the one `intersects`
/// distributes in: over the greater kind first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Multi {
    Polygons,
    Lines,
    Collection,
    Points,
}

/// A geometry the exact predicates can read: an owned [`Geometry`] or a
/// validated [`GeomRef`] view.
pub trait Shape: Copy {
    /// A polyline's or a ring's points.
    type Coords: Coords;
    /// A polygon's rings, shell first.
    type Rings: Iterator<Item = Self::Coords> + Clone;
    /// A multi-geometry's members, in order.
    type Members: Iterator<Item = Form<Self>> + Clone;

    /// The geometry's top level.
    fn form(&self) -> Form<Self>;
}

impl<'a> Shape for &'a Geometry {
    type Coords = &'a [Point];
    type Rings = OwnedRings<'a>;
    type Members = OwnedMembers<'a>;

    fn form(&self) -> Form<Self> {
        let (kind, members) = match self {
            Geometry::Point(p) => return Form::Part(Part::Point(*p)),
            Geometry::LineString(l) => return Form::Part(Part::Line(l.points())),
            Geometry::Polygon(p) => return Form::Part(Part::Polygon(rings(p))),
            Geometry::MultiPoint(m) => (Multi::Points, OwnedMembers::Points(m.0.iter())),
            Geometry::MultiLineString(m) => (Multi::Lines, OwnedMembers::Lines(m.0.iter())),
            Geometry::MultiPolygon(m) => (Multi::Polygons, OwnedMembers::Polygons(m.0.iter())),
            Geometry::GeometryCollection(c) => {
                (Multi::Collection, OwnedMembers::Geometries(c.0.iter()))
            }
        };
        Form::Multi(kind, members)
    }
}

impl<'a> Shape for GeomRef<'a> {
    type Coords = CoordsRef<'a>;
    type Rings = RingIter<'a>;
    type Members = std::iter::Map<MemberIter<'a>, fn(GeomRef<'a>) -> Form<GeomRef<'a>>>;

    fn form(&self) -> Form<Self> {
        let form: fn(GeomRef<'a>) -> Form<GeomRef<'a>> = |g| g.form();
        let (kind, m) = match self {
            GeomRef::Point(p) => return Form::Part(Part::Point(p.point())),
            GeomRef::LineString(l) => return Form::Part(Part::Line(l.coords())),
            GeomRef::Polygon(p) => return Form::Part(Part::Polygon(p.rings())),
            GeomRef::MultiPoint(m) => (Multi::Points, m),
            GeomRef::MultiLineString(m) => (Multi::Lines, m),
            GeomRef::MultiPolygon(m) => (Multi::Polygons, m),
            GeomRef::GeometryCollection(m) => (Multi::Collection, m),
        };
        Form::Multi(kind, m.members().map(form))
    }
}

/// An owned polygon's rings as [`Coords`], shell first.
pub type OwnedRings<'a> = std::iter::Map<
    std::iter::Chain<std::iter::Once<&'a Ring>, std::slice::Iter<'a, Ring>>,
    fn(&'a Ring) -> &'a [Point],
>;

/// The rings of `p`, shell first.
pub(crate) fn rings<'a>(p: &'a Polygon) -> OwnedRings<'a> {
    std::iter::once(p.exterior())
        .chain(p.interiors())
        .map(Ring::points as fn(&'a Ring) -> &'a [Point])
}

/// An owned multi-geometry's members as [`Form`]s.
#[derive(Clone)]
pub enum OwnedMembers<'a> {
    Points(std::slice::Iter<'a, Point>),
    Lines(std::slice::Iter<'a, LineString>),
    Polygons(std::slice::Iter<'a, Polygon>),
    Geometries(std::slice::Iter<'a, Geometry>),
}

impl<'a> Iterator for OwnedMembers<'a> {
    type Item = Form<&'a Geometry>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(match self {
            OwnedMembers::Points(it) => Form::Part(Part::Point(*it.next()?)),
            OwnedMembers::Lines(it) => Form::Part(Part::Line(it.next()?.points())),
            OwnedMembers::Polygons(it) => Form::Part(Part::Polygon(rings(it.next()?))),
            OwnedMembers::Geometries(it) => it.next()?.form(),
        })
    }
}

impl<S: Shape> Part<S> {
    /// MBR, as the owned part's `envelope` (a polygon's is its shell's).
    pub fn envelope(&self) -> Rect {
        match self {
            Part::Point(p) => p.envelope(),
            Part::Line(l) => l.envelope(),
            Part::Polygon(r) => r.clone().next().map_or(Rect::EMPTY, Coords::envelope),
        }
    }
}

impl<S: Shape> Form<S> {
    /// Calls `f` on every part — points, linestrings, polygons — through
    /// members of every depth, in order, until `f` breaks.
    pub fn parts<B>(&self, f: &mut impl FnMut(&Part<S>) -> ControlFlow<B>) -> ControlFlow<B> {
        match self {
            Form::Part(p) => f(p),
            Form::Multi(_, m) => m.clone().try_for_each(|g| g.parts(f)),
        }
    }

    /// `true` when `pred` holds for some part; stops at the first.
    pub fn any_part(&self, mut pred: impl FnMut(&Part<S>) -> bool) -> bool {
        self.parts(&mut |p| {
            if pred(p) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }

    /// Calls `f` on every part, as [`Form::parts`].
    pub fn for_each_part(&self, mut f: impl FnMut(&Part<S>)) {
        let _ = self.parts(&mut |p| {
            f(p);
            ControlFlow::<()>::Continue(())
        });
    }

    /// MBR, equal (under `==`) to [`Geometry::envelope`]: a multi's is
    /// the union of its members'; [`Rect::EMPTY`] without any.
    pub fn envelope(&self) -> Rect {
        match self {
            Form::Part(p) => p.envelope(),
            Form::Multi(_, m) => m
                .clone()
                .fold(Rect::EMPTY, |acc, g| acc.union(&g.envelope())),
        }
    }
}
