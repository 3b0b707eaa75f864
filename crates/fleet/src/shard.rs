//! Deterministic partitioning of a DSE point set into shards.
//!
//! A [`ShardPlan`] deals the canonical point list of a
//! [`DseSpec`](db_pim::DseSpec) — every (model, width, geometry) point, in
//! the spec's enumeration order — round-robin into one [`Shard`] per
//! worker, so every shard sees a similar mix of geometries. Planning is a
//! pure function of the point list and the worker count, so every fleet
//! participant (and every resume) derives the same plan without
//! coordination; work stealing evens out whatever imbalance remains.
//!
//! The partition invariant — every point in exactly one shard, no gaps, no
//! duplicates — is what makes the merged fleet report provably equal to a
//! single-driver run; `tests/fleet_sharding.rs` asserts it.

use db_pim::DsePoint;

/// One shard of a plan: the point indices (into the spec's canonical point
/// list) a worker is initially responsible for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// The shard index (`0..plan.shards.len()`).
    pub id: usize,
    /// Point indices assigned to this shard, ascending.
    pub points: Vec<usize>,
}

/// A deterministic partition of a spec's point list into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Points the partitioned spec enumerates.
    pub total_points: usize,
    /// One shard per worker, id-ordered. Shards may be empty when there are
    /// more workers than points.
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// Deals `points` round-robin into `shards` shards (clamped to at
    /// least one): point `i` goes to shard `i % shards`.
    #[must_use]
    pub fn partition(points: &[DsePoint], shards: usize) -> Self {
        let count = shards.max(1);
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); count];
        for index in 0..points.len() {
            assigned[index % count].push(index);
        }
        Self {
            total_points: points.len(),
            shards: assigned
                .into_iter()
                .enumerate()
                .map(|(id, points)| Shard { id, points })
                .collect(),
        }
    }

    /// The shard owning each point index (`point → shard id`).
    #[must_use]
    pub fn owners(&self) -> Vec<usize> {
        let mut owners = vec![usize::MAX; self.total_points];
        for shard in &self.shards {
            for &point in &shard.points {
                owners[point] = shard.id;
            }
        }
        owners
    }

    /// `true` when the shards cover `0..total_points` with no duplicates
    /// and no gaps.
    #[must_use]
    pub fn is_complete_partition(&self) -> bool {
        let mut seen = vec![false; self.total_points];
        for shard in &self.shards {
            for &point in &shard.points {
                if point >= self.total_points || seen[point] {
                    return false;
                }
                seen[point] = true;
            }
        }
        seen.into_iter().all(|covered| covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_pim::{DseSpec, PipelineConfig};
    use dbpim_arch::ArchConfig;
    use dbpim_nn::ModelKind;
    use dbpim_sim::ArchGrid;

    fn sample_points() -> Vec<DsePoint> {
        let spec = DseSpec::new(
            ArchGrid::around(ArchConfig::paper())
                .with_macros(vec![2, 4, 8])
                .with_rows(vec![32, 64]),
            vec![ModelKind::AlexNet, ModelKind::MobileNetV2],
        );
        spec.points(PipelineConfig::fast().operand_width, db_pim::PruningSpec::none())
            .expect("feasible grid")
    }

    #[test]
    fn every_strategy_yields_a_complete_partition() {
        let points = sample_points();
        for shards in [1, 2, 3, 5, points.len(), points.len() + 3] {
            let plan = ShardPlan::partition(&points, shards);
            assert_eq!(plan.shards.len(), shards);
            assert!(plan.is_complete_partition(), "{shards} shards leave gaps or duplicates");
            assert_eq!(plan, ShardPlan::partition(&points, shards), "not a pure function");
        }
    }

    #[test]
    fn round_robin_interleaves_the_grid() {
        let points = sample_points();
        let rr = ShardPlan::partition(&points, 3);
        assert_eq!(rr.shards[0].points[..3], [0, 3, 6]);
        assert_eq!(rr.shards[1].points[..3], [1, 4, 7]);
    }

    #[test]
    fn owners_invert_the_plan() {
        let points = sample_points();
        let plan = ShardPlan::partition(&points, 4);
        let owners = plan.owners();
        assert_eq!(owners.len(), points.len());
        for shard in &plan.shards {
            for &point in &shard.points {
                assert_eq!(owners[point], shard.id);
            }
        }
    }
}
