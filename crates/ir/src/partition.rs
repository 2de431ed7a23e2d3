//! First-class, structured partitions of stores.
//!
//! Partitions map points of a launch domain to sub-stores (Figure 3). The two
//! kinds from the paper are implemented: replication (`None` in the paper,
//! [`Partition::Replicate`] here to avoid clashing with `Option::None`) and
//! affine tilings with projection functions. The critical property is that two
//! partitions can be compared for equality (the conservative alias check used
//! by the fusion constraints) in constant time, without enumerating
//! sub-stores.

use crate::deps;
use crate::domain::{Domain, Point, Rect};

/// A projection function applied to a launch-domain point before the tile
/// bounds are computed (Figure 3d–3e).
///
/// Projections are represented structurally so that equality is syntactic and
/// constant-time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Projection {
    /// The identity projection.
    Identity,
    /// Keep only the listed dimensions of the point, in order. For example
    /// `SelectDims([0])` maps `(i, j)` to `(i,)`, producing a partition of a
    /// vector that is aliased along the second launch-domain dimension.
    SelectDims(Vec<usize>),
    /// Map every point to a fixed point (full aliasing).
    Constant(Point),
    /// Pad the point with trailing zeros up to `rank` dimensions, e.g. mapping
    /// `(g,)` to `(g, 0)`. Used to tile a 2-D store by row blocks over a 1-D
    /// launch domain. This projection is injective, so the resulting tiling is
    /// still disjoint across points.
    PadZeros {
        /// Target rank of the projected point.
        rank: usize,
    },
}

impl Projection {
    /// Applies the projection to a point.
    pub fn apply(&self, point: &[i64]) -> Point {
        match self {
            Projection::Identity => point.to_vec(),
            Projection::SelectDims(dims) => dims.iter().map(|&d| point[d]).collect(),
            Projection::Constant(p) => p.clone(),
            Projection::PadZeros { rank } => {
                let mut p = point.to_vec();
                p.resize(*rank, 0);
                p
            }
        }
    }

    /// The rank of the projected point given an input of rank `input_rank`.
    pub fn output_rank(&self, input_rank: usize) -> usize {
        match self {
            Projection::Identity => input_rank,
            Projection::SelectDims(dims) => dims.len(),
            Projection::Constant(p) => p.len(),
            Projection::PadZeros { rank } => *rank,
        }
    }

    /// Whether the projection is injective (distinct points map to distinct
    /// projected points). Injective projections keep tilings disjoint across
    /// launch-domain points.
    pub fn is_injective(&self) -> bool {
        matches!(self, Projection::Identity | Projection::PadZeros { .. })
    }
}

/// A partition of a store: a scale-free mapping from launch-domain points to
/// sub-stores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Partition {
    /// Every point maps to the entire store (the paper's `None` partition).
    Replicate,
    /// An affine tiling: point `p` maps to the rectangle
    /// `[proj(p) * tile, proj(p + 1) * tile) + offset`, clamped to the store
    /// bounds (Figure 3e).
    Tiling {
        /// Shape of each tile.
        tile: Vec<u64>,
        /// Offset of the tiling from the store origin.
        offset: Vec<i64>,
        /// Projection applied to launch-domain points.
        proj: Projection,
    },
}

impl Partition {
    /// Convenience constructor for a tiling partition.
    pub fn tiling(tile: Vec<u64>, offset: Vec<i64>, proj: Projection) -> Self {
        assert_eq!(
            tile.len(),
            offset.len(),
            "tile shape and offset must have the same rank"
        );
        Partition::Tiling { tile, offset, proj }
    }

    /// An identity-projection tiling with zero offset: the standard block
    /// decomposition used by the dense library.
    pub fn block(tile: Vec<u64>) -> Self {
        let offset = vec![0; tile.len()];
        Partition::tiling(tile, offset, Projection::Identity)
    }

    /// Whether this is the replicated partition.
    pub fn is_replicate(&self) -> bool {
        matches!(self, Partition::Replicate)
    }

    /// Whether two *different* launch-domain points may map to overlapping
    /// sub-stores. Replication and tilings with non-identity projection
    /// functions alias across points; identity tilings are disjoint.
    ///
    /// The fusion constraints use this: a write through a partition that
    /// aliases across points can never be part of a point-wise dependence with
    /// a later access, even through the identical partition.
    pub fn may_alias_across_points(&self) -> bool {
        match self {
            Partition::Replicate => true,
            Partition::Tiling { proj, .. } => !proj.is_injective(),
        }
    }

    /// Computes the sub-store bounds for launch-domain point `point` of a
    /// store with shape `store_shape` (Figure 3e). The result is clamped to
    /// the store bounds and may be empty for points that fall outside the
    /// store.
    pub fn sub_store_bounds(&self, store_shape: &[u64], point: &[i64]) -> Rect {
        let store_rect = Rect::new(
            vec![0; store_shape.len()],
            store_shape.iter().map(|&s| s as i64).collect(),
        );
        match self {
            Partition::Replicate => store_rect,
            Partition::Tiling { tile, offset, proj } => {
                let p = proj.apply(point);
                let p_next: Point = p.iter().map(|&x| x + 1).collect();
                assert_eq!(
                    p.len(),
                    tile.len(),
                    "projected point rank must match tile rank"
                );
                let lo: Vec<i64> = p
                    .iter()
                    .zip(tile)
                    .zip(offset)
                    .map(|((&pi, &ti), &oi)| pi * ti as i64 + oi)
                    .collect();
                let hi: Vec<i64> = p_next
                    .iter()
                    .zip(tile)
                    .zip(offset)
                    .map(|((&pi, &ti), &oi)| pi * ti as i64 + oi)
                    .collect();
                Rect::new(lo, hi).intersect(&store_rect)
            }
        }
    }

    /// The number of elements in [`Partition::sub_store_bounds`]`(store_shape,
    /// point)`, computed per dimension without building the rectangle. The
    /// runtime prices every launch point's kernel with it, so it allocates
    /// nothing.
    pub fn sub_store_volume(&self, store_shape: &[u64], point: &[i64]) -> u64 {
        let Partition::Tiling { tile, offset, proj } = self else {
            return store_shape.iter().product();
        };
        assert_eq!(
            proj.output_rank(point.len()),
            tile.len(),
            "projected point rank must match tile rank"
        );
        assert_eq!(store_shape.len(), tile.len(), "rank mismatch in intersect");
        let mut volume = 1u64;
        for (d, ((&t, &o), &s)) in tile.iter().zip(offset).zip(store_shape).enumerate() {
            let q = match proj {
                Projection::Identity => point[d],
                Projection::SelectDims(dims) => point[dims[d]],
                Projection::Constant(c) => c[d],
                Projection::PadZeros { .. } => point.get(d).copied().unwrap_or(0),
            };
            let lo = (q * t as i64 + o).max(0);
            let hi = ((q + 1) * t as i64 + o).min(s as i64);
            volume *= (hi - lo).max(0) as u64;
        }
        volume
    }

    /// Whether the partition covers every element of a store with shape
    /// `store_shape` when launched over `launch_domain` — the `covers`
    /// predicate used by temporary-store elimination (Definition 4): the
    /// launch's sub-stores are pairwise disjoint and together hold every
    /// element of the store.
    ///
    /// Replication always covers. For `Identity` tilings and `PadZeros`
    /// tilings that keep every domain dimension this is a closed form in
    /// O(dims): the projection is injective, so the tiles never overlap, and
    /// per dimension they form the contiguous run `[o, E·t + o)` (`t` the
    /// tile extent, `o` the offset, `E` the domain extent, 1 for a padded
    /// dimension), clipped to `[0, S)`. The partition covers the store when
    /// the product of the clipped run lengths equals the store volume. Other
    /// projections fall back to [`deps::covers_by_enumeration`], which
    /// checks every pair of launch points; that function is also the
    /// reference the closed form is tested against.
    pub fn covers(&self, store_shape: &[u64], launch_domain: &Domain) -> bool {
        if self.is_replicate() {
            return true;
        }
        match self.tile_runs(store_shape, launch_domain) {
            Some(runs) => {
                let covered: u64 = runs.map(|(lo, hi)| (hi - lo).max(0) as u64).product();
                covered == store_shape.iter().product::<u64>()
            }
            None => deps::covers_by_enumeration(self, store_shape, launch_domain),
        }
    }

    /// The bounding box of every sub-store a launch over `launch_domain`
    /// accesses in a store with shape `store_shape`: the union of the
    /// non-empty [`Partition::sub_store_bounds`] over the domain's points,
    /// or an empty rectangle when every sub-store is empty.
    ///
    /// For replication it is the store itself (when the domain has a point),
    /// and for the tilings [`Partition::covers`] handles in closed form it is
    /// the per-dimension clipped tile run, both in O(dims). Other projections
    /// fall back to the enumerating reference,
    /// [`deps::bounding_box_by_enumeration`].
    pub fn bounding_box(&self, store_shape: &[u64], launch_domain: &Domain) -> Rect {
        let rect = if self.is_replicate() {
            if launch_domain.is_empty() {
                return Rect::empty(store_shape.len());
            }
            Domain::new(store_shape.to_vec()).to_rect()
        } else {
            match self.tile_runs(store_shape, launch_domain) {
                Some(runs) => {
                    let (lo, hi) = runs.unzip();
                    Rect::new(lo, hi)
                }
                None => return deps::bounding_box_by_enumeration(self, store_shape, launch_domain),
            }
        };
        if rect.is_empty() {
            Rect::empty(store_shape.len())
        } else {
            rect
        }
    }

    /// The closed-form tiling geometry behind [`Partition::covers`] and
    /// [`Partition::bounding_box`]: per store dimension, the clipped run
    /// `[max(o, 0), min(E·t + o, S))` that the tiles of a launch over
    /// `launch_domain` span (empty when `hi <= lo`). `None` for replication,
    /// for non-injective or truncating projections, and for rank mismatches,
    /// which the enumerating references handle.
    fn tile_runs<'a>(
        &'a self,
        store_shape: &'a [u64],
        launch_domain: &'a Domain,
    ) -> Option<impl Iterator<Item = (i64, i64)> + 'a> {
        let Partition::Tiling { tile, offset, proj } = self else {
            return None;
        };
        let dims = launch_domain.dims();
        let closed = match proj {
            Projection::Identity => dims == tile.len(),
            Projection::PadZeros { rank } => *rank >= dims && *rank == tile.len(),
            Projection::SelectDims(_) | Projection::Constant(_) => false,
        };
        if !closed || store_shape.len() != tile.len() {
            return None;
        }
        let extents = launch_domain.shape();
        Some(
            tile.iter()
                .zip(offset)
                .zip(store_shape)
                .enumerate()
                .map(move |(d, ((&t, &o), &s))| {
                    let e = extents.get(d).copied().unwrap_or(1);
                    (o.max(0), (e as i64 * t as i64 + o).min(s as i64))
                }),
        )
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partition::Replicate => write!(f, "Replicate"),
            Partition::Tiling { tile, offset, proj } => {
                write!(f, "Tiling(tile={tile:?}, offset={offset:?}, proj={proj:?})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    #[test]
    fn projection_apply() {
        assert_eq!(Projection::Identity.apply(&[1, 2]), vec![1, 2]);
        assert_eq!(Projection::SelectDims(vec![0]).apply(&[1, 2]), vec![1]);
        assert_eq!(Projection::SelectDims(vec![1, 0]).apply(&[1, 2]), vec![2, 1]);
        assert_eq!(Projection::Constant(vec![0]).apply(&[5, 7]), vec![0]);
        assert_eq!(Projection::Identity.output_rank(3), 3);
        assert_eq!(Projection::SelectDims(vec![0]).output_rank(2), 1);
        assert_eq!(Projection::Constant(vec![0, 0]).output_rank(1), 2);
    }

    #[test]
    fn figure3a_2x2_tiling_of_4x4_store() {
        // 2x2 tiles of a 4x4 store over a (2,2) domain.
        let p = Partition::block(vec![2, 2]);
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[0, 0]),
            Rect::new(vec![0, 0], vec![2, 2])
        );
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[1, 1]),
            Rect::new(vec![2, 2], vec![4, 4])
        );
        assert!(p.covers(&[4, 4], &Domain::new(vec![2, 2])));
    }

    #[test]
    fn figure3b_row_tiling() {
        // 1x4 tiles of a 4x4 store over a (4,1) domain.
        let p = Partition::block(vec![1, 4]);
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[2, 0]),
            Rect::new(vec![2, 0], vec![3, 4])
        );
        assert!(p.covers(&[4, 4], &Domain::new(vec![4, 1])));
    }

    #[test]
    fn figure3c_offset_tiling() {
        // 1x1 tiles offset by (1,1): sub-stores sit in the interior.
        let p = Partition::tiling(vec![1, 1], vec![1, 1], Projection::Identity);
        assert_eq!(
            p.sub_store_bounds(&[4, 4], &[0, 0]),
            Rect::new(vec![1, 1], vec![2, 2])
        );
        // Offset tilings do not cover the store.
        assert!(!p.covers(&[4, 4], &Domain::new(vec![2, 2])));
    }

    #[test]
    fn figure3d_aliased_projection_tiling() {
        // A length-4 vector tiled over a (2,2) domain with a projection that
        // drops the second dimension: points (i, 0) and (i, 1) alias.
        let p = Partition::tiling(vec![2], vec![0], Projection::SelectDims(vec![0]));
        let a = p.sub_store_bounds(&[4], &[1, 0]);
        let b = p.sub_store_bounds(&[4], &[1, 1]);
        assert_eq!(a, b);
        assert_eq!(a, Rect::new(vec![2], vec![4]));
        assert!(!p.covers(&[4], &Domain::new(vec![2, 2])));
    }

    #[test]
    fn replicate_maps_everything() {
        let p = Partition::Replicate;
        assert!(p.is_replicate());
        assert_eq!(
            p.sub_store_bounds(&[8], &[3]),
            Rect::new(vec![0], vec![8])
        );
        assert!(p.covers(&[8], &Domain::linear(4)));
    }

    #[test]
    fn out_of_store_tiles_clamp_to_empty() {
        let p = Partition::block(vec![4]);
        let r = p.sub_store_bounds(&[8], &[5]);
        assert!(r.is_empty());
    }

    #[test]
    fn padzeros_projection_tiles_2d_by_row_blocks() {
        // A (8, 4) store tiled by 2-row blocks over a 1-D launch domain of 4.
        let p = Partition::tiling(vec![2, 4], vec![0, 0], Projection::PadZeros { rank: 2 });
        assert_eq!(
            p.sub_store_bounds(&[8, 4], &[1]),
            Rect::new(vec![2, 0], vec![4, 4])
        );
        assert_eq!(
            p.sub_store_bounds(&[8, 4], &[3]),
            Rect::new(vec![6, 0], vec![8, 4])
        );
        assert!(p.covers(&[8, 4], &Domain::linear(4)));
        assert!(!p.may_alias_across_points());
        assert!(Projection::PadZeros { rank: 2 }.is_injective());
        assert_eq!(Projection::PadZeros { rank: 2 }.apply(&[3]), vec![3, 0]);
        assert_eq!(Projection::PadZeros { rank: 2 }.output_rank(1), 2);
    }

    #[test]
    fn aliasing_across_points() {
        assert!(Partition::Replicate.may_alias_across_points());
        assert!(!Partition::block(vec![4]).may_alias_across_points());
        assert!(!Partition::tiling(vec![4], vec![1], Projection::Identity)
            .may_alias_across_points());
        assert!(Partition::tiling(vec![2], vec![0], Projection::SelectDims(vec![0]))
            .may_alias_across_points());
        assert!(Partition::tiling(vec![2], vec![0], Projection::Constant(vec![0]))
            .may_alias_across_points());
    }

    #[test]
    fn partition_equality_is_the_alias_check() {
        let a = Partition::block(vec![2, 2]);
        let b = Partition::block(vec![2, 2]);
        let c = Partition::tiling(vec![2, 2], vec![0, 1], Projection::Identity);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Partition::Replicate);
    }

    #[test]
    fn bounding_box_of_block_tiling_is_the_whole_store() {
        let p = Partition::block(vec![2, 2]);
        assert_eq!(
            p.bounding_box(&[4, 4], &Domain::new(vec![2, 2])),
            Rect::new(vec![0, 0], vec![4, 4])
        );
        // A domain that reaches only the first tile row bounds half the store.
        assert_eq!(
            p.bounding_box(&[4, 4], &Domain::new(vec![1, 2])),
            Rect::new(vec![0, 0], vec![2, 4])
        );
    }

    #[test]
    fn bounding_box_of_offset_tiling_shifts_and_clips() {
        // Tiles of 3 shifted by 1 over 4 points: [1,4), [4,7), [7,10), [10,12)
        // clipped at the store's end; the leading element is never touched.
        let p = Partition::tiling(vec![3], vec![1], Projection::Identity);
        let bb = p.bounding_box(&[12], &Domain::linear(4));
        assert_eq!(bb, Rect::new(vec![1], vec![12]));
        assert_eq!(bb.volume(), 11);
    }

    #[test]
    fn bounding_box_of_ragged_tiling_stops_at_the_clipped_edge_tile() {
        // 10 elements in tiles of 4 over 4 points: the third tile is clipped
        // to [8,10) and the fourth is empty, so it adds nothing.
        let p = Partition::block(vec![4]);
        assert!(p.sub_store_bounds(&[10], &[3]).is_empty());
        assert_eq!(
            p.bounding_box(&[10], &Domain::linear(4)),
            Rect::new(vec![0], vec![10])
        );
        // Only empty tiles: the box is empty.
        let past_end = Partition::tiling(vec![4], vec![16], Projection::Identity);
        let bb = past_end.bounding_box(&[10], &Domain::linear(2));
        assert!(bb.is_empty());
        assert_eq!(bb.volume(), 0);
    }

    #[test]
    fn bounding_box_of_replicated_partition_is_the_store() {
        assert_eq!(
            Partition::Replicate.bounding_box(&[6, 3], &Domain::linear(5)),
            Rect::new(vec![0, 0], vec![6, 3])
        );
    }

    /// Which edge cases one grid run reached, so the exhaustive tests can
    /// assert that their grids exercise every case the closed form clips.
    #[derive(Default)]
    struct GridCoverage {
        ragged_tile: bool,
        tile_past_end: bool,
        empty_domain: bool,
        covering: bool,
    }

    /// Checks the closed-form `covers` and `bounding_box` of one partition
    /// against the enumerating references in `deps`, and every point's
    /// `sub_store_volume` against its rectangle, and records which edge
    /// cases the case reached.
    fn check_against_reference(
        p: &Partition,
        shape: &[u64],
        domain: &Domain,
        seen: &mut GridCoverage,
    ) {
        let covers = p.covers(shape, domain);
        assert_eq!(
            covers,
            deps::covers_by_enumeration(p, shape, domain),
            "covers: {p} over {domain} on store {shape:?}"
        );
        assert_eq!(
            p.bounding_box(shape, domain),
            deps::bounding_box_by_enumeration(p, shape, domain),
            "bounding_box: {p} over {domain} on store {shape:?}"
        );
        seen.covering |= covers && !p.is_replicate();
        seen.empty_domain |= domain.is_empty();
        for pt in domain.points() {
            let r = p.sub_store_bounds(shape, &pt);
            assert_eq!(p.sub_store_volume(shape, &pt), r.volume(), "{p} at {pt:?}");
            if let Partition::Tiling { tile, .. } = p {
                let full: u64 = tile.iter().product();
                seen.ragged_tile |= !r.is_empty() && r.volume() < full;
                seen.tile_past_end |= r.is_empty() && full > 0;
            }
        }
    }

    const TILES: [u64; 5] = [0, 1, 2, 3, 4];

    #[test]
    fn closed_form_matches_enumeration_on_1d_grid() {
        let mut seen = GridCoverage::default();
        for store in 0..=7u64 {
            for extent in 0..=4u64 {
                let domain = Domain::linear(extent);
                check_against_reference(&Partition::Replicate, &[store], &domain, &mut seen);
                for t in TILES {
                    for o in [-5i64, -2, -1, 0, 1, 3, 6] {
                        for proj in [Projection::Identity, Projection::PadZeros { rank: 1 }] {
                            let p = Partition::tiling(vec![t], vec![o], proj);
                            check_against_reference(&p, &[store], &domain, &mut seen);
                        }
                    }
                }
            }
        }
        assert!(seen.ragged_tile && seen.tile_past_end && seen.empty_domain && seen.covering);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn closed_form_matches_enumeration_on_2d_grid() {
        const OFFSETS: [i64; 3] = [-2, 0, 1];
        const EXTENTS: [u64; 3] = [0, 3, 5];
        let mut seen = GridCoverage::default();
        for (s0, s1) in EXTENTS.iter().flat_map(|&a| EXTENTS.map(|b| (a, b))) {
            let shape = [s0, s1];
            for t0 in TILES {
                for t1 in TILES {
                    for (o0, o1) in OFFSETS.iter().flat_map(|&a| OFFSETS.map(|b| (a, b))) {
                        let tiling = |proj| Partition::tiling(vec![t0, t1], vec![o0, o1], proj);
                        // Identity over 2-D domains.
                        for e0 in 0..=3u64 {
                            for e1 in 0..=2u64 {
                                let domain = Domain::new(vec![e0, e1]);
                                let p = tiling(Projection::Identity);
                                check_against_reference(&p, &shape, &domain, &mut seen);
                            }
                        }
                        // Row blocks: PadZeros over 1-D domains.
                        for e0 in 0..=4u64 {
                            let domain = Domain::linear(e0);
                            let p = tiling(Projection::PadZeros { rank: 2 });
                            check_against_reference(&p, &shape, &domain, &mut seen);
                            check_against_reference(&Partition::Replicate, &shape, &domain, &mut seen);
                        }
                    }
                }
            }
        }
        assert!(seen.ragged_tile && seen.tile_past_end && seen.empty_domain && seen.covering);
    }

    #[test]
    fn projections_without_a_closed_form_use_the_reference() {
        // An aliased projection, a constant one and a truncating PadZeros:
        // the public methods answer exactly what the references do, and the
        // per-point volume matches the per-point rectangle.
        let domain = Domain::new(vec![2, 2]);
        for p in [
            Partition::tiling(vec![2], vec![0], Projection::SelectDims(vec![0])),
            Partition::tiling(vec![4], vec![0], Projection::Constant(vec![0])),
            Partition::tiling(vec![2], vec![0], Projection::PadZeros { rank: 1 }),
        ] {
            assert_eq!(p.covers(&[4], &domain), deps::covers_by_enumeration(&p, &[4], &domain));
            assert_eq!(
                p.bounding_box(&[4], &domain),
                deps::bounding_box_by_enumeration(&p, &[4], &domain)
            );
            for pt in domain.points() {
                assert_eq!(p.sub_store_volume(&[4], &pt), p.sub_store_bounds(&[4], &pt).volume());
            }
        }
    }

    #[test]
    #[should_panic]
    fn tile_offset_rank_mismatch_panics() {
        let _ = Partition::tiling(vec![2, 2], vec![0], Projection::Identity);
    }
}
