//! Overlapping-tile partitioning and stitching of large fields.
//!
//! Full-chip ILT cannot simulate a whole layout in one FFT, so the runtime
//! cuts the target into square **windows** of `tile` pixels that overlap by
//! `2 * halo`. Each window is optimized independently; only its **core**
//! (the window minus a `halo`-pixel guard band on each interior side) is
//! trusted, because the circular convolution of the FFT-based imaging model
//! wraps at window borders. Cores partition the field exactly, so every
//! output pixel comes from one tile's core and stitching is a
//! bit-deterministic hard crop.
//!
//! The guard band should be at least the optical interaction radius —
//! `halo * nm_per_px >= lambda / NA` (~143 nm for the contest stack) is a
//! practical floor; the acceptance tests use features `>= halo` away from
//! seams, where tiled and untiled aerial images agree to ~1e-6.

use ilt_field::Field2D;

/// How tile results are merged across seams. Crop is the one policy; the
/// type stays only while the benchmark names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeamPolicy {
    /// Every output pixel comes from exactly one tile's core (deterministic
    /// hard crop).
    Crop,
}

/// Placement of one tile: its simulation window and trusted core region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileSpec {
    /// Dense tile index (row-major over the tile grid).
    pub index: usize,
    /// Tile-grid coordinates.
    pub grid_row: usize,
    /// Tile-grid coordinates.
    pub grid_col: usize,
    /// Top-left corner of the `tile x tile` simulation window, field px.
    pub window_r0: usize,
    /// Top-left corner of the `tile x tile` simulation window, field px.
    pub window_c0: usize,
    /// Top-left corner of the trusted core region, field px.
    pub core_r0: usize,
    /// Top-left corner of the trusted core region, field px.
    pub core_c0: usize,
    /// Core height in px (edge tiles may carry a short final core).
    pub core_rows: usize,
    /// Core width in px.
    pub core_cols: usize,
}

impl TileSpec {
    /// Core origin relative to the tile window.
    pub fn core_in_window(&self) -> (usize, usize) {
        (self.core_r0 - self.window_r0, self.core_c0 - self.window_c0)
    }
}

/// The tile decomposition of a square field.
#[derive(Clone, Debug)]
pub struct TileGrid {
    field: usize,
    tile: usize,
    halo: usize,
    per_side: usize,
}

impl TileGrid {
    /// Plans the decomposition of a `field x field` target into `tile`-pixel
    /// windows with a `halo`-pixel guard band.
    ///
    /// # Errors
    ///
    /// Returns a message if `tile` is not a power of two, the halo leaves no
    /// core (`2 * halo >= tile`), or the field is smaller than one tile.
    pub fn new(field: usize, tile: usize, halo: usize) -> Result<Self, String> {
        if !tile.is_power_of_two() {
            return Err(format!("tile size {tile} must be a power of two"));
        }
        if 2 * halo >= tile {
            return Err(format!("halo {halo} leaves no core in a {tile}-px tile"));
        }
        if field < tile {
            return Err(format!(
                "field {field} smaller than tile {tile}; run it as a whole clip"
            ));
        }
        let core = tile - 2 * halo;
        let per_side = field.div_ceil(core);
        Ok(TileGrid { field, tile, halo, per_side })
    }

    /// Simulation window side length in pixels.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Core side length (`tile - 2 * halo`).
    pub fn core(&self) -> usize {
        self.tile - 2 * self.halo
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.per_side * self.per_side
    }

    /// One axis of the placement: `(window0, core0, core_len)` for tile `i`.
    fn axis(&self, i: usize) -> (usize, usize, usize) {
        let core = self.core();
        let core0 = i * core;
        let core_len = core.min(self.field - core0);
        // Keep the full window inside the field; edge windows shift inward
        // so their core sits asymmetrically in the window.
        let ideal = core0 as isize - self.halo as isize;
        let window0 = ideal.clamp(0, (self.field - self.tile) as isize) as usize;
        (window0, core0, core_len)
    }

    /// All tile placements, row-major and deterministic.
    pub fn specs(&self) -> Vec<TileSpec> {
        let mut out = Vec::with_capacity(self.len());
        for gr in 0..self.per_side {
            let (wr0, cr0, crows) = self.axis(gr);
            for gc in 0..self.per_side {
                let (wc0, cc0, ccols) = self.axis(gc);
                out.push(TileSpec {
                    index: gr * self.per_side + gc,
                    grid_row: gr,
                    grid_col: gc,
                    window_r0: wr0,
                    window_c0: wc0,
                    core_r0: cr0,
                    core_c0: cc0,
                    core_rows: crows,
                    core_cols: ccols,
                });
            }
        }
        out
    }

    /// Cuts the tile's simulation window out of the full field.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not belong to a grid of this geometry.
    pub fn extract(&self, field: &Field2D, spec: &TileSpec) -> Field2D {
        field.crop(spec.window_r0, spec.window_c0, self.tile, self.tile)
    }

    /// Reassembles per-tile results into a full field.
    ///
    /// `tiles[i]` must be the `tile x tile` result for `specs()[i]`; each
    /// pixel takes its value from the one core that holds it, and `None`
    /// entries (failed jobs) leave their core at `fallback`'s values.
    ///
    /// # Panics
    ///
    /// Panics if a tile has the wrong shape or `fallback` is not field-sized.
    pub fn stitch(
        &self,
        tiles: &[Option<Field2D>],
        seam: SeamPolicy,
        fallback: &Field2D,
    ) -> Field2D {
        assert_eq!(tiles.len(), self.len(), "tile count mismatch");
        assert_eq!(fallback.shape(), (self.field, self.field), "fallback shape");
        let SeamPolicy::Crop = seam;
        let mut out = fallback.clone();
        for (spec, tile) in self.specs().iter().zip(tiles) {
            let Some(tile) = tile else { continue };
            assert_eq!(tile.shape(), (self.tile, self.tile), "tile shape");
            let (or, oc) = spec.core_in_window();
            let core = tile.crop(or, oc, spec.core_rows, spec.core_cols);
            out.paste(&core, spec.core_r0, spec.core_c0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_geometry() {
        assert!(TileGrid::new(1024, 100, 8).is_err()); // non power of two
        assert!(TileGrid::new(1024, 64, 32).is_err()); // no core left
        assert!(TileGrid::new(128, 256, 16).is_err()); // field < tile
    }

    #[test]
    fn cores_partition_the_field_exactly() {
        let grid = TileGrid::new(640, 256, 32).expect("valid");
        let mut coverage = vec![0u8; 640 * 640];
        for s in grid.specs() {
            for r in s.core_r0..s.core_r0 + s.core_rows {
                for c in s.core_c0..s.core_c0 + s.core_cols {
                    coverage[r * 640 + c] += 1;
                }
            }
        }
        assert!(coverage.iter().all(|&n| n == 1), "cores must tile exactly once");
    }

    #[test]
    fn windows_stay_inside_the_field() {
        let grid = TileGrid::new(640, 256, 32).expect("valid");
        for s in grid.specs() {
            assert!(s.window_r0 + grid.tile() <= 640);
            assert!(s.window_c0 + grid.tile() <= 640);
            // The core must sit inside its window with the halo honored on
            // interior sides.
            let (or, oc) = s.core_in_window();
            assert!(or + s.core_rows <= grid.tile());
            assert!(oc + s.core_cols <= grid.tile());
            if s.grid_row > 0 {
                assert!(or >= grid.halo, "interior tile missing top halo");
            }
        }
    }

    #[test]
    fn crop_stitch_is_exact_for_identical_tiles() {
        // If every tile is the matching crop of one source field, stitching
        // reproduces the source bit-for-bit.
        let grid = TileGrid::new(512, 256, 64).expect("valid");
        let src = Field2D::from_fn(512, 512, |r, c| (r * 7 + c * 13) as f64 * 0.01);
        let tiles: Vec<Option<Field2D>> =
            grid.specs().iter().map(|s| Some(grid.extract(&src, s))).collect();
        let crop = grid.stitch(&tiles, SeamPolicy::Crop, &Field2D::zeros(512, 512));
        assert_eq!(crop, src);
    }

    #[test]
    fn failed_tiles_fall_back() {
        let grid = TileGrid::new(512, 256, 64).expect("valid");
        let fallback = Field2D::filled(512, 512, 0.25);
        let mut tiles: Vec<Option<Field2D>> = vec![None; grid.len()];
        tiles[0] = Some(Field2D::filled(256, 256, 1.0));
        let out = grid.stitch(&tiles, SeamPolicy::Crop, &fallback);
        let s0 = &grid.specs()[0];
        assert_eq!(out[(s0.core_r0, s0.core_c0)], 1.0);
        assert_eq!(out[(511, 511)], 0.25, "missing tile keeps fallback");
    }

    #[test]
    fn single_row_geometry() {
        // field == tile is rejected upstream, but field slightly above one
        // core still produces a valid 2x2 decomposition.
        let grid = TileGrid::new(300, 256, 32).expect("valid");
        assert_eq!(grid.per_side, 2);
        let specs = grid.specs();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[3].core_rows, 300 - 192);
    }
}
