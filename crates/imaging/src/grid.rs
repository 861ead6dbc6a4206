//! Dense 2-D row-major container used for images, dual fields and flow
//! components throughout the workspace.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major 2-D array of `T`.
///
/// Coordinates are `(x, y)` with `x` the column (`0..width`) and `y` the row
/// (`0..height`), matching the image convention of the paper (its sub-matrices
/// are "88 × 92" = 88 rows × 92 columns).
///
/// # Examples
///
/// ```
/// use chambolle_imaging::Grid;
///
/// let mut g = Grid::new(4, 3, 0.0f32);
/// g[(2, 1)] = 7.5;
/// assert_eq!(g[(2, 1)], 7.5);
/// assert_eq!(g.width(), 4);
/// assert_eq!(g.height(), 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Grid<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Grid {}x{} [", self.width, self.height)?;
        for y in 0..self.height.min(8) {
            write!(f, "  ")?;
            for x in 0..self.width.min(8) {
                write!(f, "{:?} ", self.data[y * self.width + x])?;
            }
            writeln!(f, "{}", if self.width > 8 { "..." } else { "" })?;
        }
        if self.height > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl<T: Clone> Grid<T> {
    /// Creates a `width × height` grid filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    pub fn new(width: usize, height: usize, fill: T) -> Self {
        let len = width
            .checked_mul(height)
            .expect("grid dimensions overflow usize");
        Grid {
            width,
            height,
            data: vec![fill; len],
        }
    }

    /// Creates a grid by evaluating `f(x, y)` at every cell.
    ///
    /// # Examples
    ///
    /// ```
    /// use chambolle_imaging::Grid;
    /// let ramp = Grid::from_fn(3, 2, |x, y| (x + 10 * y) as f32);
    /// assert_eq!(ramp[(2, 1)], 12.0);
    /// ```
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Grid {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`GridShapeError`] if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, GridShapeError> {
        if data.len() != width * height {
            return Err(GridShapeError {
                width,
                height,
                len: data.len(),
            });
        }
        Ok(Grid {
            width,
            height,
            data,
        })
    }

    /// Extracts the rectangle `[x0, x0+w) × [y0, y0+h)` as a new grid.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle exceeds the grid bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Grid<T> {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop {}x{}+{}+{} out of bounds for {}x{} grid",
            w,
            h,
            x0,
            y0,
            self.width,
            self.height
        );
        Grid::from_fn(w, h, |x, y| {
            self.data[(y0 + y) * self.width + (x0 + x)].clone()
        })
    }

    /// Copies `src` into this grid with its top-left corner at `(x0, y0)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not fit.
    pub fn blit(&mut self, x0: usize, y0: usize, src: &Grid<T>) {
        assert!(
            x0 + src.width <= self.width && y0 + src.height <= self.height,
            "blit of {}x{} at +{}+{} out of bounds for {}x{} grid",
            src.width,
            src.height,
            x0,
            y0,
            self.width,
            self.height
        );
        for y in 0..src.height {
            let dst_row = (y0 + y) * self.width + x0;
            let src_row = y * src.width;
            self.data[dst_row..dst_row + src.width]
                .clone_from_slice(&src.data[src_row..src_row + src.width]);
        }
    }

    /// Applies `f` to every element, producing a grid of the results.
    pub fn map<U: Clone>(&self, mut f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(&mut f).collect(),
        }
    }

    /// Sets every element to `fill`.
    pub fn fill(&mut self, fill: T) {
        for v in &mut self.data {
            *v = fill.clone();
        }
    }
}

impl<T> Grid<T> {
    /// Grid width (number of columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (number of rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has zero cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear index of `(x, y)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Bounds-checked access.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<&T> {
        if x < self.width && y < self.height {
            Some(&self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Bounds-checked mutable access.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize) -> Option<&mut T> {
        if x < self.width && y < self.height {
            Some(&mut self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// The underlying row-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying row-major slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row(&self, y: usize) -> &[T] {
        assert!(
            y < self.height,
            "row {y} out of bounds (height {})",
            self.height
        );
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Row `y` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(
            y < self.height,
            "row {y} out of bounds (height {})",
            self.height
        );
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterator over mutable bands of up to `rows_per_chunk` whole rows, in
    /// top-to-bottom order.
    ///
    /// Each item is `(first_row, band)` where `band` is a flat row-major
    /// slice of `min(rows_per_chunk, remaining) * width` elements. The
    /// bands partition the grid, so they can be handed to parallel workers
    /// without aliasing. An empty grid yields no bands.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_chunk == 0` and the grid is non-empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use chambolle_imaging::Grid;
    ///
    /// let mut g = Grid::from_fn(2, 5, |_, y| y);
    /// for (first_row, band) in g.rows_mut_chunks(2) {
    ///     for v in band {
    ///         *v += 100 * first_row;
    ///     }
    /// }
    /// assert_eq!(g[(0, 3)], 203); // band starting at row 2
    /// ```
    pub fn rows_mut_chunks(
        &mut self,
        rows_per_chunk: usize,
    ) -> impl Iterator<Item = (usize, &mut [T])> {
        assert!(
            rows_per_chunk > 0 || self.data.is_empty(),
            "rows_per_chunk must be positive"
        );
        let w = self.width;
        // `chunks_mut` rejects a zero chunk length even on empty slices.
        let band_len = (w * rows_per_chunk).max(1);
        self.data
            .chunks_mut(band_len)
            .enumerate()
            .map(move |(i, band)| (i * rows_per_chunk, band))
    }

    /// Iterator over `(x, y, &value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (i % w, i / w, v))
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;

    /// Indexes by `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        assert!(
            x < self.width && y < self.height,
            "index ({x}, {y}) out of bounds for {}x{} grid",
            self.width,
            self.height
        );
        &self.data[y * self.width + x]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        assert!(
            x < self.width && y < self.height,
            "index ({x}, {y}) out of bounds for {}x{} grid",
            self.width,
            self.height
        );
        &mut self.data[y * self.width + x]
    }
}

impl<T: Clone + Default> Default for Grid<T> {
    fn default() -> Self {
        Grid {
            width: 0,
            height: 0,
            data: Vec::new(),
        }
    }
}

/// Error returned by [`Grid::from_vec`] when the buffer length does not match
/// the requested dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShapeError {
    width: usize,
    height: usize,
    len: usize,
}

impl fmt::Display for GridShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer of length {} cannot form a {}x{} grid (need {})",
            self.len,
            self.width,
            self.height,
            self.width * self.height
        )
    }
}

impl std::error::Error for GridShapeError {}

/// Rows per task for a pooled row-parallel fill over `height` rows: about
/// four tasks per worker so the atomic dispatcher can smooth load
/// imbalance, but never below one row. Banding is a pure schedule choice
/// here (each row is computed independently).
pub(crate) fn par_band_rows(height: usize, threads: usize) -> usize {
    height.div_ceil(threads.max(1) * 4).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills() {
        let g = Grid::new(3, 2, 5u8);
        assert_eq!(g.len(), 6);
        assert!(g.as_slice().iter().all(|&v| v == 5));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let g = Grid::from_fn(3, 2, |x, y| (x, y));
        assert_eq!(g.as_slice()[0], (0, 0));
        assert_eq!(g.as_slice()[1], (1, 0));
        assert_eq!(g.as_slice()[3], (0, 1));
        assert_eq!(g[(2, 1)], (2, 1));
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(Grid::from_vec(2, 2, vec![1, 2, 3]).is_err());
        let g = Grid::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(g[(1, 1)], 4);
        let err = Grid::from_vec(2, 2, vec![1]).unwrap_err();
        assert!(err.to_string().contains("2x2"));
    }

    #[test]
    fn crop_and_blit_roundtrip() {
        let g = Grid::from_fn(5, 4, |x, y| 10 * y + x);
        let c = g.crop(1, 2, 3, 2);
        assert_eq!(c.dims(), (3, 2));
        assert_eq!(c[(0, 0)], 21);
        assert_eq!(c[(2, 1)], 33);

        let mut dst = Grid::new(5, 4, 0usize);
        dst.blit(1, 2, &c);
        assert_eq!(dst[(1, 2)], 21);
        assert_eq!(dst[(3, 3)], 33);
        assert_eq!(dst[(0, 0)], 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn crop_out_of_bounds_panics() {
        Grid::new(3, 3, 0).crop(2, 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let g = Grid::new(3, 3, 0);
        let _ = g[(3, 0)];
    }

    #[test]
    fn get_is_bounds_checked() {
        let g = Grid::new(2, 2, 1);
        assert_eq!(g.get(1, 1), Some(&1));
        assert_eq!(g.get(2, 0), None);
        assert_eq!(g.get(0, 2), None);
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid::from_fn(3, 2, |x, _| x as f32);
        let doubled = g.map(|v| v * 2.0);
        assert_eq!(doubled.dims(), (3, 2));
        assert_eq!(doubled[(2, 0)], 4.0);
    }

    #[test]
    fn row_slices() {
        let g = Grid::from_fn(3, 2, |x, y| 10 * y + x);
        assert_eq!(g.row(1), &[10, 11, 12]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut g = Grid::from_fn(3, 2, |x, y| 10 * y + x);
        g.row_mut(0).copy_from_slice(&[7, 8, 9]);
        assert_eq!(g.row(0), &[7, 8, 9]);
        assert_eq!(g.row(1), &[10, 11, 12], "other rows untouched");
        assert_eq!(g.row_mut(1).len(), g.width());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_mut_out_of_bounds_panics() {
        let mut g = Grid::new(3, 2, 0);
        let _ = g.row_mut(2);
    }

    #[test]
    fn rows_mut_chunks_partitions_without_aliasing() {
        let mut g = Grid::from_fn(4, 7, |x, y| 10 * y + x);
        let bands: Vec<(usize, usize)> = g
            .rows_mut_chunks(3)
            .map(|(first, band)| (first, band.len()))
            .collect();
        // 7 rows in bands of 3: rows [0,3), [3,6), [6,7).
        assert_eq!(bands, vec![(0, 12), (3, 12), (6, 4)]);
        // Each cell is visited exactly once across all bands.
        for (first_row, band) in g.rows_mut_chunks(3) {
            for (i, v) in band.iter_mut().enumerate() {
                let (x, y) = (i % 4, first_row + i / 4);
                assert_eq!(*v, 10 * y + x, "band content matches row-major layout");
                *v += 1;
            }
        }
        assert_eq!(g[(2, 6)], 63, "every cell incremented exactly once");
    }

    #[test]
    fn rows_mut_chunks_oversized_chunk_is_one_band() {
        let mut g = Grid::new(2, 3, 1u8);
        let bands: Vec<_> = g.rows_mut_chunks(100).collect();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].0, 0);
        assert_eq!(bands[0].1.len(), 6);
    }

    #[test]
    fn rows_mut_chunks_empty_grid_yields_nothing() {
        let mut g: Grid<u8> = Grid::new(0, 0, 0);
        assert_eq!(g.rows_mut_chunks(4).count(), 0);
        // Zero-width but non-zero-height grids also hold no cells.
        let mut thin: Grid<u8> = Grid::new(0, 5, 0);
        assert_eq!(thin.rows_mut_chunks(2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "rows_per_chunk must be positive")]
    fn rows_mut_chunks_zero_rows_panics() {
        let mut g = Grid::new(2, 2, 0u8);
        let _ = g.rows_mut_chunks(0).count();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// crop/blit round-trips arbitrary interior rectangles.
            #[test]
            fn crop_blit_roundtrip_random(
                w in 1usize..20,
                h in 1usize..20,
                fx in 0.0f64..1.0,
                fy in 0.0f64..1.0,
                fw in 0.0f64..1.0,
                fh in 0.0f64..1.0,
            ) {
                let g = Grid::from_fn(w, h, |x, y| (x * 31 + y * 7) as u32);
                let x0 = (fx * (w - 1) as f64) as usize;
                let y0 = (fy * (h - 1) as f64) as usize;
                let cw = 1 + (fw * (w - x0 - 1) as f64) as usize;
                let ch = 1 + (fh * (h - y0 - 1) as f64) as usize;
                let cropped = g.crop(x0, y0, cw, ch);
                let mut back = g.clone();
                back.blit(x0, y0, &cropped);
                prop_assert_eq!(back, g);
            }

            /// Row-major indexing is consistent with the iterator.
            #[test]
            fn iter_matches_indexing(w in 1usize..16, h in 1usize..16) {
                let g = Grid::from_fn(w, h, |x, y| x * 1000 + y);
                for (x, y, &v) in g.iter() {
                    prop_assert_eq!(v, g[(x, y)]);
                    prop_assert_eq!(g.as_slice()[g.idx(x, y)], v);
                }
            }
        }
    }

    #[test]
    fn iter_yields_coords() {
        let g = Grid::from_fn(2, 2, |x, y| x + 2 * y);
        let collected: Vec<_> = g.iter().map(|(x, y, v)| (x, y, *v)).collect();
        assert_eq!(collected, vec![(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 3)]);
    }
}
