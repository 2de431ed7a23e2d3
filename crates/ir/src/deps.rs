//! Ground-truth dependence definitions (Definitions 1–3 of the paper).
//!
//! These functions *materialize* point tasks, sub-stores and dependence maps.
//! They scale with the number of processors and exist for two purposes: the
//! scale-aware dependence analysis of the Legion-style runtime, and property
//! tests that check the scale-free fusion constraints of the `fusion` crate
//! against these definitions (soundness: whenever the constraints admit
//! fusion, the ground-truth dependence map must be at most point-wise).
//!
//! The enumerating tiling geometry ([`covers_by_enumeration`],
//! [`bounding_box_by_enumeration`]) lives here too: it is the reference the
//! closed forms of [`Partition::covers`] and [`Partition::bounding_box`] are
//! tested against, and their fallback for projections without a closed
//! form.

use std::collections::HashMap;

use crate::domain::{Domain, Point, Rect};
use crate::partition::Partition;
use crate::store::StoreId;
use crate::task::{IndexTask, Privilege};

/// Reference `covers` (Definition 4) by enumeration: materializes every
/// launch point's sub-store, rejects any overlap between two of them, and
/// compares the summed volumes with the store's. O(points²).
///
/// [`Partition::covers`] answers the same question in closed form for the
/// tilings the libraries emit and falls back to this function for the rest
/// (`SelectDims`, `Constant` and truncating `PadZeros` projections).
pub fn covers_by_enumeration(
    partition: &Partition,
    store_shape: &[u64],
    launch_domain: &Domain,
) -> bool {
    match partition {
        Partition::Replicate => true,
        Partition::Tiling { .. } => {
            let total: u64 = store_shape.iter().product();
            let mut covered: u64 = 0;
            let mut rects: Vec<Rect> = Vec::new();
            for p in launch_domain.points() {
                let r = partition.sub_store_bounds(store_shape, &p);
                if rects.iter().any(|prev| prev.overlaps(&r)) {
                    return false;
                }
                covered += r.volume();
                rects.push(r);
            }
            covered == total
        }
    }
}

/// Reference bounding box by enumeration: the union of the non-empty
/// sub-stores over every launch point, or an empty rectangle when all are
/// empty. O(points).
///
/// [`Partition::bounding_box`] computes the same rectangle in closed form
/// for replication and the tilings the libraries emit, and falls back to
/// this function for the rest.
pub fn bounding_box_by_enumeration(
    partition: &Partition,
    store_shape: &[u64],
    launch_domain: &Domain,
) -> Rect {
    let mut acc: Option<Rect> = None;
    for p in launch_domain.points() {
        let r = partition.sub_store_bounds(store_shape, &p);
        if r.is_empty() {
            continue;
        }
        acc = Some(match acc {
            None => r,
            Some(prev) => Rect::new(
                prev.lo.iter().zip(&r.lo).map(|(&a, &b)| a.min(b)).collect(),
                prev.hi.iter().zip(&r.hi).map(|(&a, &b)| a.max(b)).collect(),
            ),
        });
    }
    acc.unwrap_or_else(|| Rect::empty(store_shape.len()))
}

/// The materialized sub-stores accessed by one point task: for each argument,
/// the (store, privilege, bounds) triple.
pub fn point_task_substores(
    task: &IndexTask,
    store_shapes: &HashMap<StoreId, Vec<u64>>,
    point: &[i64],
) -> Vec<(StoreId, Privilege, Rect)> {
    task.args
        .iter()
        .map(|arg| {
            let shape = store_shapes
                .get(&arg.store)
                .unwrap_or_else(|| panic!("missing shape for {}", arg.store));
            (
                arg.store,
                arg.privilege,
                arg.partition.sub_store_bounds(shape, point),
            )
        })
        .collect()
}

/// Definition 1: whether point task `t2[p2]` depends on point task `t1[p1]`,
/// where `t1` is issued before `t2`.
pub fn dep(
    t1: &IndexTask,
    p1: &[i64],
    t2: &IndexTask,
    p2: &[i64],
    store_shapes: &HashMap<StoreId, Vec<u64>>,
) -> bool {
    let acc1 = point_task_substores(t1, store_shapes, p1);
    let acc2 = point_task_substores(t2, store_shapes, p2);
    for (s1, pr1, r1) in &acc1 {
        for (s2, pr2, r2) in &acc2 {
            if s1 != s2 || !r1.overlaps(r2) {
                continue;
            }
            // true dependence: write followed by read, write, or reduce.
            if pr1.writes() && (pr2.reads() || pr2.writes() || pr2.reduces()) {
                return true;
            }
            // anti dependence: read followed by write or reduce.
            if pr1.reads() && (pr2.writes() || pr2.reduces()) {
                return true;
            }
            // reduction dependence: reduce followed by read or write.
            if pr1.reduces() && (pr2.reads() || pr2.writes()) {
                return true;
            }
        }
    }
    false
}

/// Definition 2: the dependence map `D(t1, t2)`, mapping each point of `t1`'s
/// launch domain to the points of `t2`'s launch domain that depend on it.
pub fn dependence_map(
    t1: &IndexTask,
    t2: &IndexTask,
    store_shapes: &HashMap<StoreId, Vec<u64>>,
) -> HashMap<Point, Vec<Point>> {
    let mut map = HashMap::new();
    for p1 in t1.launch_domain.points() {
        let mut dependents = Vec::new();
        for p2 in t2.launch_domain.points() {
            if dep(t1, &p1, t2, &p2, store_shapes) {
                dependents.push(p2.clone());
            }
        }
        map.insert(p1, dependents);
    }
    map
}

/// Definition 3: whether `t1` and `t2` are fusible according to the ground
/// truth — every dependence is at most point-wise
/// (`D(t1, t2)[p] ⊆ {p}` for all `p`).
pub fn fusible_ground_truth(
    t1: &IndexTask,
    t2: &IndexTask,
    store_shapes: &HashMap<StoreId, Vec<u64>>,
) -> bool {
    if t1.launch_domain != t2.launch_domain {
        // Dependence maps across different domains are not point-wise
        // comparable; conservatively require equal launch domains, mirroring
        // the launch-domain-equivalence constraint.
        return dependence_map(t1, t2, store_shapes)
            .values()
            .all(|deps| deps.is_empty());
    }
    dependence_map(t1, t2, store_shapes)
        .iter()
        .all(|(p, deps)| deps.iter().all(|q| q == p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Partition, Projection, StoreArg, TaskId};

    fn shapes(entries: &[(u64, Vec<u64>)]) -> HashMap<StoreId, Vec<u64>> {
        entries
            .iter()
            .map(|(id, s)| (StoreId(*id), s.clone()))
            .collect()
    }

    fn simple_task(id: u64, args: Vec<StoreArg>, points: u64) -> IndexTask {
        IndexTask::new(TaskId(id), 0, format!("t{id}"), Domain::linear(points), args, vec![])
    }

    #[test]
    fn pointwise_writer_then_reader_dependence_map() {
        // T1 writes S0 block-tiled, T2 reads S0 with the same tiling: the
        // dependence map is point-wise (Figure 4a).
        let shapes = shapes(&[(0, vec![16])]);
        let block = Partition::block(vec![4]);
        let t1 = simple_task(
            0,
            vec![StoreArg::new(StoreId(0), block.clone(), Privilege::Write)],
            4,
        );
        let t2 = simple_task(
            1,
            vec![StoreArg::new(StoreId(0), block, Privilege::Read)],
            4,
        );
        let map = dependence_map(&t1, &t2, &shapes);
        for p in t1.launch_domain.points() {
            assert_eq!(map[&p], vec![p.clone()]);
        }
        assert!(fusible_ground_truth(&t1, &t2, &shapes));
    }

    #[test]
    fn replicated_read_after_tiled_write_is_not_pointwise() {
        // T1 writes S0 tiled, T2 reads S0 replicated: every point of T2
        // depends on every point of T1 (an all-gather).
        let shapes = shapes(&[(0, vec![16])]);
        let t1 = simple_task(
            0,
            vec![StoreArg::new(
                StoreId(0),
                Partition::block(vec![4]),
                Privilege::Write,
            )],
            4,
        );
        let t2 = simple_task(
            1,
            vec![StoreArg::new(StoreId(0), Partition::Replicate, Privilege::Read)],
            4,
        );
        let map = dependence_map(&t1, &t2, &shapes);
        assert_eq!(map[&vec![0]].len(), 4);
        assert!(!fusible_ground_truth(&t1, &t2, &shapes));
    }

    #[test]
    fn shifted_view_write_creates_stencil_dependences() {
        // Figure 1: writing the center view then reading the north view needs
        // neighbour communication, so fusion must be rejected.
        let shapes = shapes(&[(0, vec![6])]);
        let center = Partition::tiling(vec![1], vec![1], Projection::Identity);
        let north = Partition::tiling(vec![1], vec![0], Projection::Identity);
        let t1 = simple_task(
            0,
            vec![StoreArg::new(StoreId(0), center, Privilege::Write)],
            4,
        );
        let t2 = simple_task(
            1,
            vec![StoreArg::new(StoreId(0), north, Privilege::Read)],
            4,
        );
        assert!(!fusible_ground_truth(&t1, &t2, &shapes));
    }

    #[test]
    fn reading_different_views_is_fusible() {
        // Reading two different views of the same store creates no dependences
        // at all.
        let shapes = shapes(&[(0, vec![6]), (1, vec![4])]);
        let center = Partition::tiling(vec![1], vec![1], Projection::Identity);
        let north = Partition::tiling(vec![1], vec![0], Projection::Identity);
        let t1 = simple_task(
            0,
            vec![
                StoreArg::new(StoreId(0), center, Privilege::Read),
                StoreArg::new(StoreId(1), Partition::block(vec![1]), Privilege::Write),
            ],
            4,
        );
        let t2 = simple_task(
            1,
            vec![
                StoreArg::new(StoreId(0), north, Privilege::Read),
                StoreArg::new(StoreId(1), Partition::block(vec![1]), Privilege::Read),
            ],
            4,
        );
        assert!(fusible_ground_truth(&t1, &t2, &shapes));
    }

    #[test]
    fn reductions_to_same_view_do_not_conflict() {
        let shapes = shapes(&[(0, vec![1])]);
        let t1 = simple_task(
            0,
            vec![StoreArg::new(
                StoreId(0),
                Partition::Replicate,
                Privilege::Reduce(crate::ReductionOp::Sum),
            )],
            4,
        );
        let t2 = t1.clone();
        assert!(fusible_ground_truth(&t1, &t2, &shapes));
    }

    #[test]
    fn reduce_then_read_conflicts() {
        let shapes = shapes(&[(0, vec![1])]);
        let t1 = simple_task(
            0,
            vec![StoreArg::new(
                StoreId(0),
                Partition::Replicate,
                Privilege::Reduce(crate::ReductionOp::Sum),
            )],
            4,
        );
        let t2 = simple_task(
            1,
            vec![StoreArg::new(StoreId(0), Partition::Replicate, Privilege::Read)],
            4,
        );
        assert!(!fusible_ground_truth(&t1, &t2, &shapes));
    }

    #[test]
    fn disjoint_stores_never_depend() {
        let shapes = shapes(&[(0, vec![8]), (1, vec![8])]);
        let t1 = simple_task(
            0,
            vec![StoreArg::new(StoreId(0), Partition::block(vec![2]), Privilege::Write)],
            4,
        );
        let t2 = simple_task(
            1,
            vec![StoreArg::new(StoreId(1), Partition::block(vec![2]), Privilege::Write)],
            4,
        );
        assert!(fusible_ground_truth(&t1, &t2, &shapes));
        assert!(!dep(&t1, &[0], &t2, &[0], &shapes));
    }

    #[test]
    fn different_launch_domains_with_no_deps_are_ok() {
        let shapes = shapes(&[(0, vec![8]), (1, vec![8])]);
        let t1 = simple_task(
            0,
            vec![StoreArg::new(StoreId(0), Partition::block(vec![2]), Privilege::Write)],
            4,
        );
        let t2 = simple_task(
            1,
            vec![StoreArg::new(StoreId(1), Partition::block(vec![4]), Privilege::Write)],
            2,
        );
        assert!(fusible_ground_truth(&t1, &t2, &shapes));
    }
}
