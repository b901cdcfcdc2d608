//! Uniform-grid spatial index.
//!
//! Every bound-model decision is a neighbourhood query — "which clients'
//! spheres does this action's sphere touch?" (Eq. 1). A uniform grid over
//! the world bounds answers those in O(cells covered + occupants of those
//! cells) and — unlike hash-based indexes — iterates deterministically.
//! That is cheap only when cells are sized to the query radius *and* the
//! occupancy: a map far smaller than 64 cells a side spends its queries on
//! empty cells (the static wall set has its own density-sized index in
//! [`crate::terrain`] for that reason).
//!
//! The grid stores `(key, position)` pairs for any small `key` type
//! (object ids, client ids). Items are re-inserted when they move; the
//! structure is optimized for frequent small updates.

use crate::geometry::{Aabb, Vec2};

/// A uniform grid over a bounding box, mapping positions to items of type `K`.
#[derive(Clone, Debug)]
pub struct UniformGrid<K: Copy + Eq> {
    bounds: Aabb,
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<(K, Vec2)>>,
}

impl<K: Copy + Eq> UniformGrid<K> {
    /// Create a grid over `bounds` with cells of side `cell_size`.
    ///
    /// `cell_size` should be on the order of the query radius: queries then
    /// touch at most ~9 cells.
    pub fn new(bounds: Aabb, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let cols = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        Self {
            bounds,
            cell: cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// Is the grid empty?
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(Vec::is_empty)
    }

    #[inline]
    fn cell_coords(&self, p: Vec2) -> (usize, usize) {
        let p = self.bounds.clamp(p);
        let cx = (((p.x - self.bounds.min.x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((p.y - self.bounds.min.y) / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn cell_index(&self, p: Vec2) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    /// Insert an item at a position. The same key may be inserted at most
    /// once; use [`UniformGrid::relocate`] to move it.
    pub fn insert(&mut self, key: K, pos: Vec2) {
        let idx = self.cell_index(pos);
        debug_assert!(
            !self.cells[idx].iter().any(|&(k, _)| k == key),
            "duplicate key inserted into the same grid cell"
        );
        self.cells[idx].push((key, pos));
    }

    /// Remove an item previously inserted at `pos`. Returns whether it was
    /// found.
    pub fn remove(&mut self, key: K, pos: Vec2) -> bool {
        let idx = self.cell_index(pos);
        let cell = &mut self.cells[idx];
        if let Some(i) = cell.iter().position(|&(k, _)| k == key) {
            cell.remove(i);
            true
        } else {
            false
        }
    }

    /// Move an item from `old_pos` to `new_pos`. Returns whether it was
    /// found at `old_pos`.
    pub fn relocate(&mut self, key: K, old_pos: Vec2, new_pos: Vec2) -> bool {
        let old_idx = self.cell_index(old_pos);
        let new_idx = self.cell_index(new_pos);
        if old_idx == new_idx {
            // Fast path: same cell, just update the stored position.
            if let Some(entry) = self.cells[old_idx].iter_mut().find(|(k, _)| *k == key) {
                entry.1 = new_pos;
                return true;
            }
            return false;
        }
        if self.remove(key, old_pos) {
            self.insert(key, new_pos);
            true
        } else {
            false
        }
    }

    /// Visit every item within `radius` of `center`, in deterministic
    /// (cell-major, insertion) order.
    pub fn for_each_within(&self, center: Vec2, radius: f64, mut f: impl FnMut(K, Vec2)) {
        let r2 = radius * radius;
        let (cx0, cy0) = self.cell_coords(center - Vec2::new(radius, radius));
        let (cx1, cy1) = self.cell_coords(center + Vec2::new(radius, radius));
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                for &(k, p) in &self.cells[cy * self.cols + cx] {
                    if center.dist2(p) <= r2 {
                        f(k, p);
                    }
                }
            }
        }
    }

    /// Visit every item stored in the cells covering the box
    /// `center ± radius`, in deterministic (cell-major, insertion) order,
    /// **without** applying the grid's own distance test.
    ///
    /// For callers whose membership predicate is not `dist2 ≤ r²` — e.g.
    /// the Eq. 1 sphere test, whose `dist() ≤ slack` comparison differs
    /// from the squared form by a rounding in `sqrt` — this yields a
    /// superset of candidates to which the caller applies its *exact*
    /// predicate, so an index-accelerated scan stays bit-identical to the
    /// linear one. The box is inflated by one part in 2⁴⁰ (plus an
    /// absolute epsilon) so boundary items can never fall outside the
    /// visited cells through floating-point rounding of the corners.
    pub fn for_each_candidate(&self, center: Vec2, radius: f64, mut f: impl FnMut(K, Vec2)) {
        let r = radius.max(0.0);
        let pad = r * (1.0 / (1u64 << 40) as f64) + 1e-9;
        let reach = Vec2::new(r + pad, r + pad);
        let (cx0, cy0) = self.cell_coords(center - reach);
        let (cx1, cy1) = self.cell_coords(center + reach);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                for &(k, p) in &self.cells[cy * self.cols + cx] {
                    f(k, p);
                }
            }
        }
    }

    /// Collect every item within `radius` of `center`.
    pub fn query_within(&self, center: Vec2, radius: f64) -> Vec<(K, Vec2)> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |k, p| out.push((k, p)));
        out
    }

    /// Count items within `radius` of `center`.
    pub fn count_within(&self, center: Vec2, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(center, radius, |_, _| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> UniformGrid<u32> {
        UniformGrid::new(Aabb::from_size(100.0, 100.0), 10.0)
    }

    #[test]
    fn insert_query_remove() {
        let mut g = grid();
        g.insert(1, Vec2::new(5.0, 5.0));
        g.insert(2, Vec2::new(15.0, 5.0));
        g.insert(3, Vec2::new(95.0, 95.0));
        assert_eq!(g.len(), 3);
        let near = g.query_within(Vec2::new(5.0, 5.0), 12.0);
        let keys: Vec<u32> = near.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2]);
        assert!(g.remove(2, Vec2::new(15.0, 5.0)));
        assert!(!g.remove(2, Vec2::new(15.0, 5.0)));
        assert_eq!(g.count_within(Vec2::new(5.0, 5.0), 12.0), 1);
    }

    #[test]
    fn radius_is_inclusive_boundary_behaviour() {
        let mut g = grid();
        g.insert(1, Vec2::new(50.0, 50.0));
        assert_eq!(
            g.count_within(Vec2::new(40.0, 50.0), 10.0),
            1,
            "exactly at radius"
        );
        assert_eq!(g.count_within(Vec2::new(39.9, 50.0), 10.0), 0);
    }

    #[test]
    fn relocate_within_and_across_cells() {
        let mut g = grid();
        g.insert(7, Vec2::new(1.0, 1.0));
        // Same cell.
        assert!(g.relocate(7, Vec2::new(1.0, 1.0), Vec2::new(2.0, 2.0)));
        assert_eq!(g.count_within(Vec2::new(2.0, 2.0), 0.5), 1);
        // Across cells.
        assert!(g.relocate(7, Vec2::new(2.0, 2.0), Vec2::new(55.0, 55.0)));
        assert_eq!(g.count_within(Vec2::new(2.0, 2.0), 5.0), 0);
        assert_eq!(g.count_within(Vec2::new(55.0, 55.0), 1.0), 1);
        // Relocating a missing key reports failure.
        assert!(!g.relocate(8, Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0)));
    }

    #[test]
    fn positions_outside_bounds_are_clamped_not_lost() {
        let mut g = grid();
        g.insert(1, Vec2::new(-10.0, 200.0)); // clamps to (0, 100) cell
        assert_eq!(g.count_within(Vec2::new(0.0, 100.0), 150.0), 1);
    }

    #[test]
    fn candidate_visit_is_a_superset_of_the_radius_query() {
        let mut g = grid();
        g.insert(1, Vec2::new(5.0, 5.0));
        g.insert(2, Vec2::new(15.0, 5.0));
        g.insert(3, Vec2::new(95.0, 95.0));
        // Exactly at the radius boundary: the candidate visit must include
        // everything the exact query includes.
        let center = Vec2::new(5.0, 5.0);
        for radius in [0.0, 10.0, 12.0, 200.0] {
            let exact: Vec<u32> = g
                .query_within(center, radius)
                .iter()
                .map(|&(k, _)| k)
                .collect();
            let mut cand = Vec::new();
            g.for_each_candidate(center, radius, |k, _| cand.push(k));
            for k in &exact {
                assert!(cand.contains(k), "candidate visit missed {k} at r={radius}");
            }
        }
    }

    #[test]
    fn query_matches_brute_force() {
        // Deterministic pseudo-random layout.
        let mut g = UniformGrid::new(Aabb::from_size(200.0, 200.0), 7.0);
        let mut pts = Vec::new();
        let mut x: u64 = 0x12345678;
        for k in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let px = ((x >> 16) % 2000) as f64 / 10.0;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let py = ((x >> 16) % 2000) as f64 / 10.0;
            let p = Vec2::new(px, py);
            g.insert(k, p);
            pts.push((k, p));
        }
        for &(center, radius) in &[
            (Vec2::new(100.0, 100.0), 25.0),
            (Vec2::new(0.0, 0.0), 50.0),
            (Vec2::new(199.0, 3.0), 10.0),
        ] {
            let mut got: Vec<u32> = g
                .query_within(center, radius)
                .iter()
                .map(|&(k, _)| k)
                .collect();
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .filter(|&&(_, p)| center.dist2(p) <= radius * radius)
                .map(|&(k, _)| k)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
