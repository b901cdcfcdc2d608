//! Immutable terrain: the walls of Manhattan People.
//!
//! Walls never change, so they are not replicated world state — every
//! replica shares one read-only [`Terrain`] (the paper's obstruction
//! geometry). Two things matter about walls:
//!
//! 1. **Collision**: a move must detect crossing a wall and turn 90°.
//! 2. **Cost**: "each move evaluation checked for conflicts with a varying
//!    number of walls closest to the client's avatar ... clients required an
//!    average of 6.95 ms per move per 1,000 visible walls" (Section V-A.2).
//!    The number of *visible* walls (within avatar visibility) drives the
//!    simulated compute cost.
//!
//! # The wall index
//!
//! Walls are bucketed by midpoint into one static row-major grid stored in
//! CSR form: `offsets[c]..offsets[c + 1]` are the slots of cell `c`, and a
//! slot holds a wall's midpoint and its index into [`Terrain::walls`]. The
//! index is built once, in O(walls), and never changes.
//!
//! **Cell size.** `from_walls` sizes cells from wall *density*: side
//! `sqrt(2 · area / walls)`, i.e. about two walls a cell, never below the
//! floor `max(extent / 64, 5)` (at most 64 cells a side, never finer than
//! half a wall) and never above the extent (one cell). A fixed
//! `extent / 64` rule gave the small dense maps hundreds of empty cells —
//! 784 for 160 walls on 140² — and a query spent its time walking them; a
//! query costs O(rows covered + walls tested), not O(1).
//!
//! **Which walls a query sees.** A wall belongs to a query `(p, r)` iff its
//! midpoint lies within `r + L/2` of `p` (`L` = the longest wall) *and* the
//! precise predicate holds ([`Segment::within`] for the cost model,
//! [`Segment::intersects`] for collision). Both are functions of the wall
//! alone, so the answer does not depend on the cell size. Midpoints outside
//! the bounds are clamped into the edge cells, as positions are everywhere
//! else in this crate.
//!
//! **Counting in O(rows).** `walls_within` runs once per evaluation on every
//! replica. Per grid row it splits the covered cells in two: the contiguous
//! span of cells lying wholly inside the circle of radius `r` shrunk by a
//! rounding margin — every wall there passes both predicates, so the span is
//! counted by one `offsets` subtraction — and the boundary cells either
//! side, whose walls are tested one by one. Edge cells are never counted
//! wholesale (a clamped midpoint may lie anywhere beyond them). The count is
//! exactly the per-wall count; the grid walk it replaced survives as the
//! test-only `GridWalkReference`.

use crate::geometry::{Aabb, Segment, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The immutable wall set of a world, with a spatial index.
#[derive(Clone, Debug)]
pub struct Terrain {
    bounds: Aabb,
    walls: Vec<Segment>,
    max_wall_len: f64,
    /// Side of a grid cell.
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR row-major cell index: cell `c` owns slots
    /// `offsets[c]..offsets[c + 1]`; `cols * rows + 1` entries.
    offsets: Vec<u32>,
    /// Per slot: the wall's midpoint.
    mids: Vec<Vec2>,
    /// Per slot: the wall's index in `walls`.
    ids: Vec<u32>,
    /// Largest coordinate magnitude of the bounds, for the rounding margin.
    coord_scale: f64,
}

impl Terrain {
    /// Build terrain from explicit wall segments.
    pub fn from_walls(bounds: Aabb, walls: Vec<Segment>) -> Self {
        let max_wall_len = walls.iter().map(Segment::len).fold(0.0, f64::max);
        let extent = bounds.width().max(bounds.height());
        // About two walls a cell, between the floor and one cell.
        let floor = (extent / 64.0).max(5.0);
        let by_density = (2.0 * bounds.width() * bounds.height() / walls.len() as f64).sqrt();
        // (`max` first: it also absorbs the NaN of no area and no walls.)
        let cell = by_density.max(floor).min(extent.max(floor));
        let cols = (bounds.width() / cell).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell).ceil().max(1.0) as usize;
        let mut t = Self {
            bounds,
            walls,
            max_wall_len,
            cell,
            cols,
            rows,
            offsets: vec![0; cols * rows + 1],
            mids: Vec::new(),
            ids: Vec::new(),
            coord_scale: [bounds.min.x, bounds.min.y, bounds.max.x, bounds.max.y]
                .iter()
                .fold(0.0, |m, c| c.abs().max(m)),
        };
        // Counting sort of the walls by cell, stable in wall order.
        let cells: Vec<usize> = t.walls.iter().map(|w| t.cell_index(w.midpoint())).collect();
        for &c in &cells {
            t.offsets[c + 1] += 1;
        }
        for c in 0..cols * rows {
            t.offsets[c + 1] += t.offsets[c];
        }
        let mut next = t.offsets.clone();
        t.ids = vec![0; cells.len()];
        for (i, &c) in cells.iter().enumerate() {
            t.ids[next[c] as usize] = i as u32;
            next[c] += 1;
        }
        t.mids = t
            .ids
            .iter()
            .map(|&i| t.walls[i as usize].midpoint())
            .collect();
        t
    }

    /// Terrain with no walls.
    pub fn empty(bounds: Aabb) -> Self {
        Self::from_walls(bounds, Vec::new())
    }

    /// Generate `count` axis-aligned walls of length `wall_len`, uniformly
    /// placed, alternating orientation pseudo-randomly — the Manhattan
    /// People layout ("each wall had length 10, and the number of walls was
    /// limited to 100,000", Section V-A.2). Deterministic in `seed`.
    pub fn manhattan(bounds: Aabb, count: usize, wall_len: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut walls = Vec::with_capacity(count);
        for _ in 0..count {
            let x = rng.gen_range(bounds.min.x..bounds.max.x);
            let y = rng.gen_range(bounds.min.y..bounds.max.y);
            let a = Vec2::new(x, y);
            let b = if rng.gen_bool(0.5) {
                Vec2::new((x + wall_len).min(bounds.max.x), y)
            } else {
                Vec2::new(x, (y + wall_len).min(bounds.max.y))
            };
            walls.push(Segment::new(a, b));
        }
        Self::from_walls(bounds, walls)
    }

    /// The world bounds.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Total number of walls.
    #[inline]
    pub fn wall_count(&self) -> usize {
        self.walls.len()
    }

    /// All walls.
    #[inline]
    pub fn walls(&self) -> &[Segment] {
        &self.walls
    }

    /// Column of `x`, clamped into the grid (monotone in `x`).
    #[inline]
    fn col(&self, x: f64) -> usize {
        let x = x.clamp(self.bounds.min.x, self.bounds.max.x);
        (((x - self.bounds.min.x) / self.cell) as usize).min(self.cols - 1)
    }

    /// Row of `y`, clamped into the grid (monotone in `y`).
    #[inline]
    fn row(&self, y: f64) -> usize {
        let y = y.clamp(self.bounds.min.y, self.bounds.max.y);
        (((y - self.bounds.min.y) / self.cell) as usize).min(self.rows - 1)
    }

    #[inline]
    fn cell_index(&self, p: Vec2) -> usize {
        self.row(p.y) * self.cols + self.col(p.x)
    }

    /// The slots of a run of consecutive cells.
    #[inline]
    fn slots(&self, cells: Range<usize>) -> Range<usize> {
        self.offsets[cells.start] as usize..self.offsets[cells.end] as usize
    }

    /// The cells covering the box `p ± reach`: first and last column, first
    /// and last row. Clamping is monotone, so every midpoint within `reach`
    /// of `p` — in bounds or clamped — is stored in one of them.
    #[inline]
    fn covered(&self, p: Vec2, reach: f64) -> (usize, usize, usize, usize) {
        (
            self.col(p.x - reach),
            self.col(p.x + reach),
            self.row(p.y - reach),
            self.row(p.y + reach),
        )
    }

    /// The cells `lo..hi` of row `cy`, among columns `cx0..=cx1`, that lie
    /// wholly inside the circle of radius `inner` about `p`; `lo == hi` when
    /// there are none. Edge rows and columns never qualify.
    #[inline]
    fn row_inside(&self, cy: usize, p: Vec2, inner: f64, cx0: usize, cx1: usize) -> (usize, usize) {
        let none = (cx0, cx0);
        if cy == 0 || cy + 1 == self.rows {
            return none;
        }
        let y0 = self.bounds.min.y + cy as f64 * self.cell;
        let far = (p.y - y0).abs().max((p.y - (y0 + self.cell)).abs());
        let half2 = inner * inner - far * far;
        if half2 <= 0.0 {
            return none;
        }
        let half = half2.sqrt();
        let min_x = self.bounds.min.x;
        let lo = ((p.x - half - min_x) / self.cell).ceil().max(1.0) as usize;
        let hi = ((p.x + half - min_x) / self.cell).floor().max(0.0) as usize;
        let (lo, hi) = (lo.max(cx0), hi.min(self.cols - 1).min(cx1 + 1));
        if lo < hi {
            (lo, hi)
        } else {
            none
        }
    }

    /// Count walls any part of which lies within `radius` of `p` — the
    /// "visible walls" input to the per-move cost model. See the module
    /// doc for why the per-row span count is exact.
    pub fn walls_within(&self, p: Vec2, radius: f64) -> usize {
        let reach = radius + self.max_wall_len * 0.5;
        let reach2 = reach * reach;
        // `radius` less a length far above any rounding error in the cell
        // and distance arithmetic of this query, far below anything
        // geometric: a midpoint this close is a point of its wall within
        // `radius`, so `Segment::within` holds without being computed.
        let inner = radius - 1e-9 * (self.coord_scale + p.x.abs() + p.y.abs() + reach.abs());
        let inner2 = if inner > 0.0 { inner * inner } else { -1.0 };
        let tested = |cells: Range<usize>| {
            self.slots(cells)
                .filter(|&s| {
                    let d2 = p.dist2(self.mids[s]);
                    d2 <= reach2
                        && (d2 <= inner2 || self.walls[self.ids[s] as usize].within(p, radius))
                })
                .count()
        };
        // A cell fits inside the circle only if its diagonal does.
        let spans = self.cell * std::f64::consts::SQRT_2 < 2.0 * inner;
        let (cx0, cx1, cy0, cy1) = self.covered(p, reach);
        let mut n = 0;
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            let (lo, hi) = if spans {
                self.row_inside(cy, p, inner, cx0, cx1)
            } else {
                (cx0, cx0)
            };
            n += tested(row + cx0..row + lo);
            n += self.slots(row + lo..row + hi).len();
            n += tested(row + hi..row + cx1 + 1);
        }
        n
    }

    /// Visit, until `f` returns true, every wall whose midpoint is within
    /// `reach` of `p`. Returns whether `f` stopped the walk.
    fn any_mid_within(&self, p: Vec2, reach: f64, mut f: impl FnMut(&Segment) -> bool) -> bool {
        let reach2 = reach * reach;
        let (cx0, cx1, cy0, cy1) = self.covered(p, reach);
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            for s in self.slots(row + cx0..row + cx1 + 1) {
                if p.dist2(self.mids[s]) <= reach2 && f(&self.walls[self.ids[s] as usize]) {
                    return true;
                }
            }
        }
        false
    }

    /// Visit walls near `p` (within `radius`, conservatively), for collision
    /// testing. Visits a superset of the exact set; the caller applies the
    /// precise geometric test.
    pub fn for_each_wall_near(&self, p: Vec2, radius: f64, mut f: impl FnMut(&Segment)) {
        self.any_mid_within(p, radius + self.max_wall_len * 0.5, |w| {
            f(w);
            false
        });
    }

    /// Does the path from `from` to `to` cross any wall?
    ///
    /// This is the Manhattan People collision predicate. The search radius
    /// covers the whole path.
    pub fn path_blocked(&self, from: Vec2, to: Vec2) -> bool {
        let path = Segment::new(from, to);
        let reach = from.dist(to) * 0.5 + self.max_wall_len * 0.5;
        self.any_mid_within(path.midpoint(), reach, |w| path.intersects(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::UniformGrid;

    /// The grid walk `walls_within` used before the CSR index: a
    /// `UniformGrid` of `max(extent / 64, 5)`-unit cells keyed on midpoints,
    /// every covered cell visited and every wall in it tested. Kept as the
    /// reference the span count must equal on every query.
    struct GridWalkReference<'a> {
        terrain: &'a Terrain,
        grid: UniformGrid<u32>,
    }

    impl<'a> GridWalkReference<'a> {
        fn new(terrain: &'a Terrain) -> Self {
            let b = terrain.bounds;
            let mut grid = UniformGrid::new(b, (b.width().max(b.height()) / 64.0).max(5.0));
            for (i, w) in terrain.walls.iter().enumerate() {
                grid.insert(i as u32, w.midpoint());
            }
            Self { terrain, grid }
        }

        fn walls_within(&self, p: Vec2, radius: f64) -> usize {
            let t = self.terrain;
            let mut n = 0;
            self.grid
                .for_each_within(p, radius + t.max_wall_len * 0.5, |i, _| {
                    if t.walls[i as usize].within(p, radius) {
                        n += 1;
                    }
                });
            n
        }
    }

    fn bounds() -> Aabb {
        Aabb::from_size(100.0, 100.0)
    }

    /// The three benchmark maps, the paper's map, and a hand-built one whose
    /// midpoints sit on cell edges, on the bounds and outside them.
    fn geometries() -> Vec<Terrain> {
        let mut out: Vec<Terrain> = [(140.0, 160), (90.0, 45), (4000.0, 1000), (1000.0, 100_000)]
            .into_iter()
            .map(|(side, n)| Terrain::manhattan(Aabb::from_size(side, side), n, 10.0, 0x5E4E_2009))
            .collect();
        // 160 walls on 140²: cells are sqrt(245) wide; put midpoints exactly
        // on multiples of that, on the bounds, and up to 60 units outside.
        let b = Aabb::from_size(140.0, 140.0);
        let cell = (2.0 * 140.0 * 140.0 / 160.0_f64).sqrt();
        let mut rng = StdRng::seed_from_u64(7);
        let walls = (0..160)
            .map(|i| {
                let mid = match i % 4 {
                    0 => Vec2::new(cell * (i % 9) as f64, cell * (i / 9 % 9) as f64),
                    1 => Vec2::new(rng.gen_range(-60.0..200.0), rng.gen_range(-60.0..200.0)),
                    2 => Vec2::new([0.0, 140.0][i / 4 % 2], rng.gen_range(0.0..140.0)),
                    _ => Vec2::new(rng.gen_range(0.0..140.0), rng.gen_range(0.0..140.0)),
                };
                let half = Vec2::from_angle(rng.gen_range(0.0..6.3)) * rng.gen_range(0.0..9.0);
                Segment::new(mid - half, mid + half)
            })
            .collect();
        out.push(Terrain::from_walls(b, walls));
        out
    }

    #[test]
    fn cells_are_sized_for_two_walls_each_within_the_old_bounds() {
        let side = |t: &Terrain| (t.cell, t.cols, t.rows);
        let g = geometries();
        assert_eq!(side(&g[0]), (245.0_f64.sqrt(), 9, 9), "crowd: was 28x28");
        assert_eq!(side(&g[1]), (360.0_f64.sqrt(), 5, 5), "loopback: was 18x18");
        assert_eq!(side(&g[2]).1, 23, "sprawl: was 64x64");
        assert_eq!(side(&g[3]), (1000.0 / 64.0, 64, 64), "floor: extent / 64");
        assert_eq!(side(&Terrain::empty(bounds())), (100.0, 1, 1));
        let tiny = Terrain::manhattan(Aabb::from_size(20.0, 20.0), 500, 10.0, 1);
        assert_eq!(side(&tiny), (5.0, 4, 4), "floor: 5 units");
        for t in &g {
            assert_eq!(t.offsets.len(), t.cols * t.rows + 1);
            assert_eq!(*t.offsets.last().unwrap() as usize, t.walls.len());
            let mut seen: Vec<u32> = t.ids.clone();
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..t.walls.len() as u32));
        }
    }

    /// The span count equals the grid walk it replaced and the per-wall
    /// definition, and the collision query equals brute force, for points
    /// inside and outside the bounds and radii from 0 to twice the extent.
    #[test]
    fn span_count_equals_the_grid_walk_and_brute_force() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut wholesale = 0usize;
        for t in geometries() {
            let reference = GridWalkReference::new(&t);
            let extent = t.bounds.width();
            let queries = if t.walls.len() > 10_000 {
                2_000
            } else {
                20_000
            };
            for q in 0..queries {
                let p = Vec2::new(
                    rng.gen_range(-0.5 * extent..1.5 * extent),
                    rng.gen_range(-0.5 * extent..1.5 * extent),
                );
                let r = match q % 4 {
                    0 => 56.42,
                    1 => rng.gen_range(0.0..2.0 * extent),
                    2 => rng.gen_range(0.0..30.0),
                    _ => [0.0, t.cell, 2.0 * extent][q / 4 % 3],
                };
                let fast = t.walls_within(p, r);
                assert_eq!(fast, reference.walls_within(p, r), "p {p:?} r {r}");
                if t.walls.len() <= 10_000 {
                    let reach = r + t.max_wall_len * 0.5;
                    let brute = t
                        .walls
                        .iter()
                        .filter(|w| p.dist2(w.midpoint()) <= reach * reach && w.within(p, r))
                        .count();
                    assert_eq!(fast, brute, "p {p:?} r {r}");
                }
                wholesale += usize::from(r < extent && fast > t.walls.len() / 2);

                let to = p + Vec2::from_angle(rng.gen_range(0.0..6.3)) * rng.gen_range(0.0..12.0);
                if q % 8 == 0 || t.walls.len() <= 1_000 {
                    let path = Segment::new(p, to);
                    let brute = t.walls.iter().any(|w| path.intersects(w));
                    assert_eq!(t.path_blocked(p, to), brute, "{p:?} -> {to:?}");
                }
            }
        }
        assert!(wholesale > 1_000, "the wholesale span path was exercised");
    }

    #[test]
    fn for_each_wall_near_visits_a_superset_of_the_exact_set() {
        let mut rng = StdRng::seed_from_u64(3);
        for t in geometries().iter().filter(|t| t.walls.len() <= 1_000) {
            for _ in 0..2_000 {
                let p = Vec2::new(rng.gen_range(-20.0..160.0), rng.gen_range(-20.0..160.0));
                let r = rng.gen_range(0.0..80.0);
                let mut seen = Vec::new();
                t.for_each_wall_near(p, r, |w| seen.push(*w));
                for w in t.walls.iter().filter(|w| w.within(p, r)) {
                    assert!(seen.contains(w), "missed {w:?} at {p:?} r {r}");
                }
            }
        }
    }

    #[test]
    fn empty_terrain_blocks_nothing() {
        let t = Terrain::empty(bounds());
        assert_eq!(t.wall_count(), 0);
        assert!(!t.path_blocked(Vec2::new(0.0, 0.0), Vec2::new(100.0, 100.0)));
        assert_eq!(t.walls_within(Vec2::new(50.0, 50.0), 50.0), 0);
    }

    #[test]
    fn explicit_wall_blocks_crossing_path() {
        let wall = Segment::new(Vec2::new(50.0, 40.0), Vec2::new(50.0, 60.0));
        let t = Terrain::from_walls(bounds(), vec![wall]);
        assert!(t.path_blocked(Vec2::new(45.0, 50.0), Vec2::new(55.0, 50.0)));
        assert!(!t.path_blocked(Vec2::new(45.0, 30.0), Vec2::new(55.0, 30.0)));
        // Parallel path alongside the wall does not collide.
        assert!(!t.path_blocked(Vec2::new(49.0, 40.0), Vec2::new(49.0, 60.0)));
    }

    #[test]
    fn walls_within_counts_by_distance_to_segment() {
        let wall = Segment::new(Vec2::new(50.0, 50.0), Vec2::new(60.0, 50.0));
        let t = Terrain::from_walls(bounds(), vec![wall]);
        assert_eq!(
            t.walls_within(Vec2::new(65.0, 50.0), 5.0),
            1,
            "5 from endpoint"
        );
        assert_eq!(
            t.walls_within(Vec2::new(55.0, 58.0), 8.5),
            1,
            "8 above midsection"
        );
        assert_eq!(
            t.walls_within(Vec2::new(70.0, 50.0), 5.0),
            0,
            "10 from endpoint"
        );
    }

    #[test]
    fn manhattan_generation_is_deterministic_and_in_bounds() {
        let t1 = Terrain::manhattan(bounds(), 200, 10.0, 42);
        let t2 = Terrain::manhattan(bounds(), 200, 10.0, 42);
        assert_eq!(t1.wall_count(), 200);
        assert_eq!(t1.walls(), t2.walls(), "same seed, same walls");
        let t3 = Terrain::manhattan(bounds(), 200, 10.0, 43);
        assert_ne!(t1.walls(), t3.walls(), "different seed, different walls");
        for w in t1.walls() {
            assert!(bounds().contains(w.a) && bounds().contains(w.b));
            assert!(w.len() <= 10.0 + 1e-9);
        }
    }

    #[test]
    fn wall_density_scales_count_within() {
        let sparse = Terrain::manhattan(bounds(), 50, 10.0, 1);
        let dense = Terrain::manhattan(bounds(), 2000, 10.0, 1);
        let p = Vec2::new(50.0, 50.0);
        assert!(dense.walls_within(p, 30.0) > sparse.walls_within(p, 30.0) * 10);
    }
}
