//! Axis-aligned bounding boxes.

use sc_types::Location;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle in the planar world, in km.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Minimum corner (south-west).
    pub min: Location,
    /// Maximum corner (north-east).
    pub max: Location,
}

impl BoundingBox {
    /// Creates a box from two corners, normalizing their order.
    pub fn new(a: Location, b: Location) -> Self {
        BoundingBox {
            min: Location::new(a.x.min(b.x), a.y.min(b.y)),
            max: Location::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The empty box (inverted bounds); [`BoundingBox::extend`] grows it.
    pub fn empty() -> Self {
        BoundingBox {
            min: Location::new(f64::INFINITY, f64::INFINITY),
            max: Location::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Smallest box containing all `points`; `None` when `points` is empty.
    pub fn of_points<'a>(points: impl IntoIterator<Item = &'a Location>) -> Option<Self> {
        let mut bb = BoundingBox::empty();
        let mut any = false;
        for p in points {
            bb.extend(p);
            any = true;
        }
        any.then_some(bb)
    }

    /// Grows the box to include `p`.
    pub fn extend(&mut self, p: &Location) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Whether `p` lies inside (inclusive).
    #[inline]
    pub fn contains(&self, p: &Location) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Width in km (zero for the empty box).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height in km (zero for the empty box).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Minimum distance from `p` to any point of the box (zero if inside).
    pub fn min_distance(&self, p: &Location) -> f64 {
        let nearest = Location::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        );
        nearest.distance_km(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_normalize() {
        let bb = BoundingBox::new(Location::new(5.0, -1.0), Location::new(-2.0, 3.0));
        assert_eq!(bb.min, Location::new(-2.0, -1.0));
        assert_eq!(bb.max, Location::new(5.0, 3.0));
        assert_eq!(bb.width(), 7.0);
        assert_eq!(bb.height(), 4.0);
    }

    #[test]
    fn containment_is_inclusive() {
        let bb = BoundingBox::new(Location::ORIGIN, Location::new(1.0, 1.0));
        assert!(bb.contains(&Location::new(0.0, 0.0)));
        assert!(bb.contains(&Location::new(1.0, 1.0)));
        assert!(bb.contains(&Location::new(0.5, 0.5)));
        assert!(!bb.contains(&Location::new(1.0001, 0.5)));
    }

    #[test]
    fn of_points_covers_all() {
        let pts = [
            Location::new(0.0, 0.0),
            Location::new(3.0, -2.0),
            Location::new(-1.0, 4.0),
        ];
        let bb = BoundingBox::of_points(pts.iter()).unwrap();
        for p in &pts {
            assert!(bb.contains(p));
        }
        assert!(BoundingBox::of_points(std::iter::empty()).is_none());
    }

    #[test]
    fn min_distance_zero_inside() {
        let bb = BoundingBox::new(Location::ORIGIN, Location::new(2.0, 2.0));
        assert_eq!(bb.min_distance(&Location::new(1.0, 1.0)), 0.0);
        assert!((bb.min_distance(&Location::new(5.0, 2.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_box_has_zero_extent() {
        let bb = BoundingBox::empty();
        assert_eq!(bb.width(), 0.0);
        assert_eq!(bb.height(), 0.0);
        assert!(!bb.contains(&Location::ORIGIN));
    }
}
