//! Uniform grids: the one cell rule behind every spatial bucket index.
//!
//! A [`UniformGrid`] cuts a rectangle into `DIM × DIM` equal cells and maps
//! points and rectangles to row-major cell indexes; [`GridBuckets`] hangs a
//! bucket of entries off each cell. Point location is exact only because
//! inserts and probes share one rule: a coordinate's cell is the floor of
//! its offset over the cell side, saturated at zero below the origin and
//! clamped to `DIM - 1` above. Floor is monotone, so a point anywhere in a
//! rectangle's **closed** extent — west and south edges included — falls
//! in a cell of the rectangle's span, and anything outside the bounds
//! lands in a border cell: a clamped filing is never lost, only less
//! selective.

use crate::{Point, Region};

/// A `DIM × DIM` uniform grid over a rectangle.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformGrid<const DIM: usize> {
    origin_x: f64,
    origin_y: f64,
    cell_w: f64,
    cell_h: f64,
}

impl<const DIM: usize> UniformGrid<DIM> {
    /// A grid over `bounds`. Degenerate extents get a minimum positive
    /// size so cell sides stay positive; any real extent is unchanged.
    pub fn new(bounds: Region) -> Self {
        Self {
            origin_x: bounds.x(),
            origin_y: bounds.y(),
            cell_w: bounds.width().max(f64::MIN_POSITIVE) / DIM as f64,
            cell_h: bounds.height().max(f64::MIN_POSITIVE) / DIM as f64,
        }
    }

    /// The covered rectangle.
    pub fn bounds(&self) -> Region {
        Region::new(
            self.origin_x,
            self.origin_y,
            self.cell_w * DIM as f64,
            self.cell_h * DIM as f64,
        )
    }

    /// Whether `p` lies in the closed covered rectangle.
    pub fn covers(&self, p: Point) -> bool {
        self.bounds().contains_closed(p)
    }

    /// Column of `x`, clamped into range (`as usize` saturates below zero).
    fn col(&self, x: f64) -> usize {
        (((x - self.origin_x) / self.cell_w) as usize).min(DIM - 1)
    }

    fn row(&self, y: f64) -> usize {
        (((y - self.origin_y) / self.cell_h) as usize).min(DIM - 1)
    }

    /// Row-major index of the cell containing `p` (clamped into range).
    pub fn cell_of(&self, p: Point) -> usize {
        self.row(p.y) * DIM + self.col(p.x)
    }

    /// Inclusive `(col_lo, col_hi, row_lo, row_hi)` of the closed
    /// rectangle of `r`.
    fn cell_range(&self, r: &Region) -> (usize, usize, usize, usize) {
        let (c0, c1) = (self.col(r.x()), self.col(r.east()));
        (c0, c1, self.row(r.y()), self.row(r.north()))
    }

    /// Row-major indexes, ascending, of the cells the closed rectangle of
    /// `r` overlaps (clamped into range; never empty).
    pub fn span(&self, r: &Region) -> impl Iterator<Item = usize> {
        let (c0, c1, r0, r1) = self.cell_range(r);
        (r0..=r1).flat_map(move |row| (c0..=c1).map(move |col| row * DIM + col))
    }

    /// Whether row-major cell `cell` is in [`Self::span`] of `r`.
    pub fn span_contains(&self, r: &Region, cell: usize) -> bool {
        let (c0, c1, r0, r1) = self.cell_range(r);
        (c0..=c1).contains(&(cell % DIM)) && (r0..=r1).contains(&(cell / DIM))
    }
}

/// A [`UniformGrid`] with one bucket of entries per cell: entries filed
/// by point live in one bucket, entries filed by rectangle in every
/// bucket of its span. Buckets are unordered; removal swaps the last
/// entry into the hole.
///
/// The `Default` value has no buckets: lookups find nothing, and it must
/// not be filed into. It stands in for an index whose bounds are unknown.
#[derive(Debug, Clone)]
pub struct GridBuckets<T, const DIM: usize> {
    grid: UniformGrid<DIM>,
    cells: Vec<Vec<T>>,
}

impl<T, const DIM: usize> Default for GridBuckets<T, DIM> {
    fn default() -> Self {
        Self {
            grid: UniformGrid::default(),
            cells: Vec::new(),
        }
    }
}

impl<T: Copy + PartialEq, const DIM: usize> GridBuckets<T, DIM> {
    /// Empty buckets over `bounds` (see [`UniformGrid::new`]).
    pub fn new(bounds: Region) -> Self {
        Self {
            grid: UniformGrid::new(bounds),
            cells: vec![Vec::new(); DIM * DIM],
        }
    }

    /// The cell geometry.
    pub fn grid(&self) -> UniformGrid<DIM> {
        self.grid
    }

    /// Every bucket, in row-major cell order (empty for the default).
    pub fn cells(&self) -> &[Vec<T>] {
        &self.cells
    }

    /// The bucket of the cell containing `p`.
    pub fn at(&self, p: Point) -> &[T] {
        self.cells
            .get(self.grid.cell_of(p))
            .map_or(&[], Vec::as_slice)
    }

    /// The buckets of every cell `r`'s closed rectangle overlaps.
    pub fn overlapping(&self, r: &Region) -> impl Iterator<Item = &[T]> {
        let cells = &self.cells;
        self.grid
            .span(r)
            .filter_map(move |i| cells.get(i).map(Vec::as_slice))
    }

    /// Files `v` in the cell containing `p`.
    pub fn insert_at(&mut self, p: Point, v: T) {
        let i = self.grid.cell_of(p);
        self.cells[i].push(v);
    }

    /// Removes one `v` from the cell containing `p`; returns whether it
    /// was there.
    pub fn remove_at(&mut self, p: Point, v: T) -> bool {
        let i = self.grid.cell_of(p);
        remove_one(&mut self.cells[i], v)
    }

    /// Re-files `v` from `from` to `to`. A move within one cell leaves the
    /// buckets untouched.
    pub fn move_to(&mut self, v: T, from: Point, to: Point) {
        if self.grid.cell_of(from) != self.grid.cell_of(to) {
            self.remove_at(from, v);
            self.insert_at(to, v);
        }
    }

    /// Files `v` in every cell of `r`'s span; returns how many.
    pub fn insert_span(&mut self, r: &Region, v: T) -> usize {
        let mut n = 0;
        for i in self.grid.span(r) {
            self.cells[i].push(v);
            n += 1;
        }
        n
    }

    /// Removes one `v` from every cell of `r`'s span; returns how many
    /// cells held one.
    pub fn remove_span(&mut self, r: &Region, v: T) -> usize {
        let cells = &mut self.cells;
        self.grid
            .span(r)
            .filter(|&i| remove_one(&mut cells[i], v))
            .count()
    }
}

fn remove_one<T: PartialEq>(bucket: &mut Vec<T>, v: T) -> bool {
    match bucket.iter().position(|x| *x == v) {
        Some(i) => {
            bucket.swap_remove(i);
            true
        }
        None => false,
    }
}
