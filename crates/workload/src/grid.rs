//! The discretized workload cell grid.
//!
//! The paper assigns workload to *cells*: "The cell at the center of a hot
//! spot has the highest normalized workload 1". [`WorkloadGrid`] discretizes
//! the plane into square cells, evaluates the hot-spot field at each cell
//! center, and answers "how much query workload falls inside this region" —
//! the quantity a region's owner node has to serve.

use std::fmt;

use geogrid_geometry::{Point, Region, Space};

use crate::hotspot::HotSpotField;

/// A uniform grid of workload cells over a [`Space`].
///
/// # Examples
///
/// ```
/// use geogrid_geometry::{Region, Space};
/// use geogrid_workload::{HotSpot, HotSpotField, WorkloadGrid};
/// use geogrid_geometry::Point;
///
/// let space = Space::paper_evaluation();
/// let field = HotSpotField::new(vec![HotSpot::new(Point::new(32.0, 32.0), 8.0)]);
/// let grid = WorkloadGrid::from_field(space, 0.5, &field);
/// let near = grid.region_load(&Region::new(24.0, 24.0, 16.0, 16.0));
/// let far = grid.region_load(&Region::new(0.0, 0.0, 8.0, 8.0));
/// assert!(near > far);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadGrid {
    space: Space,
    cell_size: f64,
    cols: usize,
    rows: usize,
    /// Row-major cell workloads (row = latitude index from the south).
    cells: Vec<f64>,
}

impl WorkloadGrid {
    /// Builds a grid of `cell_size`-sided cells and fills it from `field`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite or exceeds
    /// either space extent.
    pub fn from_field(space: Space, cell_size: f64, field: &HotSpotField) -> Self {
        let mut grid = Self::zeroed(space, cell_size);
        grid.fill(field);
        grid
    }

    /// Builds an all-zero grid (useful for custom workloads in tests).
    ///
    /// # Panics
    ///
    /// See [`Self::from_field`].
    pub fn zeroed(space: Space, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive, got {cell_size}"
        );
        let (w, h) = space.extent();
        assert!(
            cell_size <= w && cell_size <= h,
            "cell size {cell_size} exceeds space extent {w} x {h}"
        );
        let cols = (w / cell_size).ceil() as usize;
        let rows = (h / cell_size).ceil() as usize;
        Self {
            space,
            cell_size,
            cols,
            rows,
            cells: vec![0.0; cols * rows],
        }
    }

    /// Re-evaluates every cell from `field`, replacing previous contents.
    /// Called after each hot-spot migration epoch.
    pub fn fill(&mut self, field: &HotSpotField) {
        // Evaluating every cell against every spot is O(cells * spots);
        // restrict to each spot's bounding box instead.
        self.cells.iter_mut().for_each(|c| *c = 0.0);
        let bounds = self.space.bounds();
        for spot in field.spots() {
            let bb = spot.circle().bounding_region();
            let lo_col = (((bb.x() - bounds.x()) / self.cell_size).floor().max(0.0)) as usize;
            let lo_row = (((bb.y() - bounds.y()) / self.cell_size).floor().max(0.0)) as usize;
            let hi_col = ((bb.east() - bounds.x()) / self.cell_size).ceil() as usize;
            let hi_row = ((bb.north() - bounds.y()) / self.cell_size).ceil() as usize;
            for row in lo_row..hi_row.min(self.rows) {
                for col in lo_col..hi_col.min(self.cols) {
                    let idx = row * self.cols + col;
                    self.cells[idx] += spot.weight(self.cell_center(col, row));
                }
            }
        }
    }

    /// Number of columns (longitude direction).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows (latitude direction).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Side length of a cell.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The space this grid covers.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Center point of cell `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn cell_center(&self, col: usize, row: usize) -> Point {
        assert!(
            col < self.cols && row < self.rows,
            "cell index out of range"
        );
        let bounds = self.space.bounds();
        Point::new(
            bounds.x() + (col as f64 + 0.5) * self.cell_size,
            bounds.y() + (row as f64 + 0.5) * self.cell_size,
        )
    }

    /// Workload of cell `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn cell(&self, col: usize, row: usize) -> f64 {
        assert!(
            col < self.cols && row < self.rows,
            "cell index out of range"
        );
        self.cells[row * self.cols + col]
    }

    /// Sets the workload of cell `(col, row)` (tests and custom fields).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or `value` is negative or
    /// non-finite.
    pub fn set_cell(&mut self, col: usize, row: usize, value: f64) {
        assert!(
            col < self.cols && row < self.rows,
            "cell index out of range"
        );
        assert!(
            value.is_finite() && value >= 0.0,
            "cell workload must be non-negative, got {value}"
        );
        self.cells[row * self.cols + col] = value;
    }

    /// Total workload over the whole grid.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Sum of the workloads of all cells whose centers fall inside
    /// `region`. Cell centers sit at half-cell offsets, so they never
    /// coincide with region boundaries produced by halving the space, and
    /// the half-open containment rule assigns each cell to exactly one
    /// region of a partition.
    pub fn region_load(&self, region: &Region) -> f64 {
        let bounds = self.space.bounds();
        // Index window that could possibly intersect the region.
        let lo_col = (((region.x() - bounds.x()) / self.cell_size)
            .floor()
            .max(0.0)) as usize;
        let lo_row = (((region.y() - bounds.y()) / self.cell_size)
            .floor()
            .max(0.0)) as usize;
        let hi_col = (((region.east() - bounds.x()) / self.cell_size).ceil()) as usize;
        let hi_row = (((region.north() - bounds.y()) / self.cell_size).ceil()) as usize;
        let mut load = 0.0;
        for row in lo_row..hi_row.min(self.rows) {
            for col in lo_col..hi_col.min(self.cols) {
                if region.contains(self.cell_center(col, row)) {
                    load += self.cells[row * self.cols + col];
                }
            }
        }
        load
    }
}

impl fmt::Display for WorkloadGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload grid {}x{} cells of {} (total {:.3})",
            self.cols,
            self.rows,
            self.cell_size,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotspot::HotSpot;
    use geogrid_geometry::SplitAxis;

    fn single_spot_grid() -> WorkloadGrid {
        let space = Space::paper_evaluation();
        let field = HotSpotField::new(vec![HotSpot::new(Point::new(32.0, 32.0), 8.0)]);
        WorkloadGrid::from_field(space, 0.5, &field)
    }

    #[test]
    fn grid_dimensions() {
        let g = single_spot_grid();
        assert_eq!(g.cols(), 128);
        assert_eq!(g.rows(), 128);
    }

    #[test]
    fn hottest_cell_is_at_spot_center() {
        let g = single_spot_grid();
        let mut best = (0, 0, f64::NEG_INFINITY);
        for row in 0..g.rows() {
            for col in 0..g.cols() {
                if g.cell(col, row) > best.2 {
                    best = (col, row, g.cell(col, row));
                }
            }
        }
        let center = g.cell_center(best.0, best.1);
        assert!(center.distance(Point::new(32.0, 32.0)) < 1.0);
    }

    #[test]
    fn region_loads_tile_totals() {
        let g = single_spot_grid();
        let space = g.space();
        let (a, b) = space.bounds().split(SplitAxis::Latitude);
        let (aa, ab) = a.split_preferred();
        let sum = g.region_load(&aa) + g.region_load(&ab) + g.region_load(&b);
        assert!((sum - g.total()).abs() < 1e-9);
    }

    #[test]
    fn total_matches_analytic_volume() {
        // Integral of (1 - d/r) over the disc = pi r^2 / 3; cell sum times
        // cell area should approximate it.
        let g = single_spot_grid();
        let cell_area = g.cell_size() * g.cell_size();
        let measured = g.total() * cell_area;
        let expected = std::f64::consts::PI * 8.0_f64.powi(2) / 3.0;
        let rel_err = (measured - expected).abs() / expected;
        assert!(rel_err < 0.02, "relative error {rel_err}");
    }

    #[test]
    fn fill_is_idempotent_and_replaces() {
        let space = Space::paper_evaluation();
        let field = HotSpotField::new(vec![HotSpot::new(Point::new(10.0, 10.0), 5.0)]);
        let mut g = WorkloadGrid::from_field(space, 1.0, &field);
        let t1 = g.total();
        g.fill(&field);
        assert!((g.total() - t1).abs() < 1e-12, "fill must not accumulate");
    }

    #[test]
    fn set_cell_and_region_load() {
        let mut g = WorkloadGrid::zeroed(Space::square(4.0), 1.0);
        g.set_cell(0, 0, 2.0);
        g.set_cell(3, 3, 1.0);
        assert_eq!(g.total(), 3.0);
        assert_eq!(g.region_load(&Region::new(0.0, 0.0, 2.0, 2.0)), 2.0);
        assert_eq!(g.region_load(&Region::new(2.0, 2.0, 2.0, 2.0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_index_bounds_checked() {
        single_spot_grid().cell(1000, 0);
    }
}
