//! Axis-aligned rectangles in pixel coordinates.

use ilt_field::Field2D;

/// A half-open axis-aligned rectangle `[r0, r1) x [c0, c1)` in pixel
/// coordinates (row, column).
///
/// # Examples
///
/// ```
/// use ilt_geom::Rect;
///
/// let r = Rect::new(1, 2, 4, 6);
/// assert_eq!(r.height(), 3);
/// assert_eq!(r.width(), 4);
/// assert_eq!(r.area(), 12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rect {
    /// First row (inclusive).
    pub r0: usize,
    /// First column (inclusive).
    pub c0: usize,
    /// Last row (exclusive).
    pub r1: usize,
    /// Last column (exclusive).
    pub c1: usize,
}

impl Rect {
    /// Creates a rectangle from inclusive start and exclusive end corners.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is inverted (`r1 < r0` or `c1 < c0`).
    pub fn new(r0: usize, c0: usize, r1: usize, c1: usize) -> Self {
        assert!(r1 >= r0 && c1 >= c0, "inverted rectangle ({r0},{c0})..({r1},{c1})");
        Rect { r0, c0, r1, c1 }
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.r1 - self.r0
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.c1 - self.c0
    }

    /// Area in pixels.
    #[inline]
    pub fn area(&self) -> usize {
        self.height() * self.width()
    }

    /// Returns `true` for a zero-area rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }

    /// Returns `true` if the two rectangles share any pixel.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.r0 < other.r1 && other.r0 < self.r1 && self.c0 < other.c1 && other.c0 < self.c1
    }

    /// Smallest rectangle covering both.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            r0: self.r0.min(other.r0),
            c0: self.c0.min(other.c0),
            r1: self.r1.max(other.r1),
            c1: self.c1.max(other.c1),
        }
    }

    /// Expands by `margin` pixels on every side, clamped to `rows x cols`.
    pub fn expand_clamped(&self, margin: usize, rows: usize, cols: usize) -> Rect {
        Rect {
            r0: self.r0.saturating_sub(margin),
            c0: self.c0.saturating_sub(margin),
            r1: (self.r1 + margin).min(rows),
            c1: (self.c1 + margin).min(cols),
        }
    }

    /// Fills this rectangle with `value` in a field, clamped to its bounds.
    pub fn fill(&self, field: &mut Field2D, value: f64) {
        let r1 = self.r1.min(field.rows());
        let c1 = self.c1.min(field.cols());
        for r in self.r0..r1 {
            for c in self.c0..c1 {
                field[(r, c)] = value;
            }
        }
    }
}

/// Rasterizes a list of rectangles into a binary field (union of rects = 1).
///
/// # Examples
///
/// ```
/// use ilt_geom::{rasterize_rects, Rect};
///
/// let img = rasterize_rects(&[Rect::new(0, 0, 2, 2)], 4, 4);
/// assert_eq!(img.count_on(), 4);
/// ```
pub fn rasterize_rects(rects: &[Rect], rows: usize, cols: usize) -> Field2D {
    let mut f = Field2D::zeros(rows, cols);
    for r in rects {
        r.fill(&mut f, 1.0);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let r = Rect::new(0, 0, 2, 3);
        assert_eq!(r.area(), 6);
        assert!(!r.is_empty());
        assert!(Rect::new(1, 1, 1, 5).is_empty());
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0, 0, 4, 4);
        assert!(a.intersects(&Rect::new(3, 3, 6, 6)));
        assert!(!a.intersects(&Rect::new(4, 0, 6, 4))); // touching edges don't overlap
        assert!(!a.intersects(&Rect::new(10, 10, 12, 12)));
    }

    #[test]
    fn union_bbox_covers_both() {
        let a = Rect::new(1, 1, 2, 2);
        let b = Rect::new(5, 0, 6, 8);
        let u = a.union_bbox(&b);
        assert_eq!(u, Rect::new(1, 0, 6, 8));
        assert_eq!(a.union_bbox(&Rect::new(3, 3, 3, 3)), a);
    }

    #[test]
    fn expand_clamps_at_borders() {
        let r = Rect::new(1, 1, 3, 3).expand_clamped(2, 4, 4);
        assert_eq!(r, Rect::new(0, 0, 4, 4));
    }

    #[test]
    fn rasterize_overlapping_rects() {
        let img = rasterize_rects(
            &[Rect::new(0, 0, 2, 2), Rect::new(1, 1, 3, 3)],
            4,
            4,
        );
        assert_eq!(img.count_on(), 7); // 4 + 4 - 1 overlap
        assert_eq!(img[(1, 1)], 1.0);
        assert_eq!(img[(3, 3)], 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_panics() {
        let _ = Rect::new(2, 0, 1, 5);
    }
}
