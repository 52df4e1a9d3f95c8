//! The [`Field2D`] container: a dense, row-major 2-D grid of `f64` samples.
//!
//! Masks, aerial images and wafer images are all `Field2D` values. The type
//! deliberately stays dumb — shape plus storage — with a small algebra of
//! elementwise and reduction operations; domain semantics (what a pixel
//! means) live in the crates above.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense row-major 2-D grid of `f64` values.
///
/// # Examples
///
/// ```
/// use ilt_field::Field2D;
///
/// let mut f = Field2D::zeros(2, 3);
/// f[(1, 2)] = 5.0;
/// assert_eq!(f.sum(), 5.0);
/// assert_eq!(f.shape(), (2, 3));
/// ```
#[derive(Clone, PartialEq)]
pub struct Field2D {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Field2D {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Field2D({}x{}", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, ", {:?}", self.data)?;
        } else {
            write!(
                f,
                ", min={:.4}, max={:.4}, mean={:.4}",
                self.min(),
                self.max(),
                self.mean()
            )?;
        }
        write!(f, ")")
    }
}

impl Field2D {
    /// Creates a field of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Field2D { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a field filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Field2D { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Field2D { rows, cols, data }
    }

    /// Builds a field by evaluating `f(row, col)` at every pixel.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_field::Field2D;
    /// let ramp = Field2D::from_fn(2, 2, |r, c| (r + c) as f64);
    /// assert_eq!(ramp[(1, 1)], 2.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Field2D { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` for a zero-pixel field.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Applies `f` to every pixel, returning a new field.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Field2D {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shape fields pixel-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Field2D, f: impl Fn(f64, f64) -> f64) -> Self {
        self.assert_same_shape(other);
        Field2D {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Multiplies every pixel by `s`, returning a new field.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all pixels.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all pixels (0 for an empty field).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Minimum pixel value (+inf for an empty field).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum pixel value (-inf for an empty field).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Squared L2 distance to another field: `sum((a - b)^2)`.
    ///
    /// This is Definition 1 of the paper when `self` is a wafer image and
    /// `other` the target.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sq_l2_dist(&self, other: &Field2D) -> f64 {
        self.assert_same_shape(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Elementwise product (Hadamard), returning a new field.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Field2D) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Binarizes with threshold `t`: `1.0` where `x >= t`, else `0.0`.
    ///
    /// Implements both the constant-threshold resist model (Eq. 1) and the
    /// final mask binarization (Eq. 12).
    pub fn threshold(&self, t: f64) -> Self {
        self.map(|x| if x >= t { 1.0 } else { 0.0 })
    }

    /// [`Field2D::threshold`] over this field's own pixels, for a field
    /// whose values are not needed afterwards.
    pub fn threshold_in_place(&mut self, t: f64) {
        self.data.iter_mut().for_each(|x| *x = if *x >= t { 1.0 } else { 0.0 });
    }

    /// Counts pixels where the binarized values differ (XOR area in pixels).
    ///
    /// Used for PVBand (Definition 2). Inputs are interpreted as binary via
    /// `>= 0.5`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn xor_count(&self, other: &Field2D) -> usize {
        self.assert_same_shape(other);
        self.data
            .iter()
            .zip(&other.data)
            .filter(|(&a, &b)| (a >= 0.5) != (b >= 0.5))
            .count()
    }

    /// Counts pixels with value `>= 0.5` (area of a binary image in pixels).
    pub fn count_on(&self) -> usize {
        self.data.iter().filter(|&&x| x >= 0.5).count()
    }

    /// Extracts the sub-field with top-left corner `(r0, c0)` and shape
    /// `(h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the field bounds.
    pub fn crop(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        assert!(r0 + h <= self.rows && c0 + w <= self.cols, "crop window out of bounds");
        let mut data = Vec::with_capacity(h * w);
        for r in r0..r0 + h {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + w]);
        }
        Field2D { rows: h, cols: w, data }
    }

    /// Copies `src` into this field with top-left corner `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the placement exceeds the field bounds.
    pub fn paste(&mut self, src: &Field2D, r0: usize, c0: usize) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "paste window out of bounds"
        );
        for r in 0..src.rows {
            let dst_off = (r0 + r) * self.cols + c0;
            self.data[dst_off..dst_off + src.cols]
                .copy_from_slice(&src.data[r * src.cols..(r + 1) * src.cols]);
        }
    }

    fn assert_same_shape(&self, other: &Field2D) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "field shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

impl Index<(usize, usize)> for Field2D {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Field2D {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Field2D {
    type Output = Field2D;
    fn add(self, rhs: &Field2D) -> Field2D {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub for &Field2D {
    type Output = Field2D;
    fn sub(self, rhs: &Field2D) -> Field2D {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f64> for &Field2D {
    type Output = Field2D;
    fn mul(self, rhs: f64) -> Field2D {
        self.scale(rhs)
    }
}

impl Neg for &Field2D {
    type Output = Field2D;
    fn neg(self) -> Field2D {
        self.map(|x| -x)
    }
}

impl AddAssign<&Field2D> for Field2D {
    fn add_assign(&mut self, rhs: &Field2D) {
        self.assert_same_shape(rhs);
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Field2D> for Field2D {
    fn sub_assign(&mut self, rhs: &Field2D) {
        self.assert_same_shape(rhs);
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Field2D {
        Field2D::from_fn(rows, cols, |r, c| (r * cols + c) as f64)
    }

    #[test]
    fn constructors_and_shape() {
        let z = Field2D::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.as_slice().len(), 12);
        assert_eq!(z.sum(), 0.0);

        let f = Field2D::filled(2, 2, 1.5);
        assert_eq!(f.sum(), 6.0);

        let v = Field2D::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_wrong_len_panics() {
        let _ = Field2D::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn indexing_and_rows() {
        let f = ramp(3, 4);
        assert_eq!(f[(2, 3)], 11.0);
        assert_eq!(f.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = ramp(2, 2);
        let b = Field2D::filled(2, 2, 1.0);
        assert_eq!((&a + &b).sum(), a.sum() + 4.0);
        assert_eq!((&a - &b).sum(), a.sum() - 4.0);
        assert_eq!((&a * 2.0).sum(), a.sum() * 2.0);
        assert_eq!((-&a).sum(), -a.sum());

        let mut c = a.clone();
        c += &b;
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn reductions() {
        let f = Field2D::from_vec(2, 2, vec![-1.0, 3.0, 0.5, 1.5]);
        assert_eq!(f.min(), -1.0);
        assert_eq!(f.max(), 3.0);
        assert_eq!(f.mean(), 1.0);
    }

    #[test]
    fn sq_l2_dist_matches_manual() {
        let a = Field2D::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Field2D::from_vec(1, 3, vec![0.0, 4.0, 3.0]);
        assert_eq!(a.sq_l2_dist(&b), 1.0 + 4.0);
        assert_eq!(a.sq_l2_dist(&a), 0.0);
    }

    #[test]
    fn threshold_and_xor() {
        let f = Field2D::from_vec(1, 4, vec![0.1, 0.5, 0.9, 0.49]);
        let b = f.threshold(0.5);
        assert_eq!(b.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
        let mut in_place = f.clone();
        in_place.threshold_in_place(0.5);
        assert_eq!(in_place, b);
        assert_eq!(b.count_on(), 2);
        let g = Field2D::from_vec(1, 4, vec![1.0, 1.0, 0.0, 0.0]);
        assert_eq!(b.xor_count(&g), 2);
    }

    #[test]
    fn crop_and_paste_roundtrip() {
        let f = ramp(4, 4);
        let sub = f.crop(1, 2, 2, 2);
        assert_eq!(sub.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
        let mut g = Field2D::zeros(4, 4);
        g.paste(&sub, 1, 2);
        assert_eq!(g[(1, 2)], 6.0);
        assert_eq!(g[(2, 3)], 11.0);
        assert_eq!(g[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn crop_out_of_bounds_panics() {
        let _ = ramp(4, 4).crop(3, 3, 2, 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = ramp(2, 2).sq_l2_dist(&ramp(2, 3));
    }

    #[test]
    fn map_and_zip_map() {
        let a = ramp(2, 2);
        assert_eq!(a.map(|x| x + 1.0).sum(), a.sum() + 4.0);
        let b = Field2D::filled(2, 2, 2.0);
        assert_eq!(a.hadamard(&b).sum(), 2.0 * a.sum());
    }

    #[test]
    fn debug_is_compact_for_large_fields() {
        let f = ramp(100, 100);
        let s = format!("{f:?}");
        assert!(s.contains("100x100"));
        assert!(s.len() < 200);
    }
}
