//! CRD — the traditional "Centroid-Radius-Density" summarization (§8).
//!
//! The strawman the paper measures against: three aggregates that assume a
//! spherical cluster with uniform density. Cheap to build (one scan) and
//! cheap to match (three subtractions), but blind to shape, connectivity
//! and density distribution — which is what the quality study (Fig. 9)
//! demonstrates.

use sgs_core::kernel::rel_diff;
use sgs_summarize::MemberSet;

/// Centroid + radius + density summary of one cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct Crd {
    /// Mean position of all members.
    pub centroid: Box<[f64]>,
    /// Maximum member distance from the centroid.
    pub radius: f64,
    /// Members per unit volume of the bounding ball (degenerate radii are
    /// clamped so density stays finite).
    pub density: f64,
    /// Member count.
    pub population: u32,
}

impl Crd {
    /// Summarize a member set. Returns `None` for an empty cluster.
    pub fn from_members(members: &MemberSet) -> Option<Crd> {
        let n = members.population();
        if n == 0 {
            return None;
        }
        let mut centroid = vec![0.0; members.dim()];
        for p in members.iter_all() {
            for (a, x) in centroid.iter_mut().zip(p) {
                *a += x;
            }
        }
        for a in &mut centroid {
            *a /= n as f64;
        }
        let radius = members
            .iter_all()
            .map(|p| sgs_core::dist(p, &centroid))
            .fold(0.0f64, f64::max);
        let population = n as u32;
        let dim = members.dim() as i32;
        // Volume of a d-ball up to the constant factor — comparisons divide
        // it out, so r^d is sufficient and avoids Γ-function plumbing.
        let vol = radius.max(1e-9).powi(dim);
        Some(Crd {
            centroid: centroid.into(),
            radius,
            density: population as f64 / vol,
            population,
        })
    }

    /// Normalized distance in `[0, 1]` between two CRDs: equal-weight mean
    /// of relative differences of centroid offset, radius and density —
    /// the "subtraction function" of §8.2.
    pub fn distance(&self, other: &Crd) -> f64 {
        let span = self.radius.max(other.radius).max(1e-9);
        let centroid_d = (sgs_core::dist(&self.centroid, &other.centroid) / (2.0 * span)).min(1.0);
        let radius_d = rel_diff(self.radius, other.radius);
        let density_d = rel_diff(self.density, other.density);
        (centroid_d + radius_d + density_d) / 3.0
    }

    /// Bytes needed to archive this summary: `dim` f64s + radius + density
    /// + population.
    pub fn archived_bytes(&self) -> usize {
        self.centroid.len() * 8 + 8 + 8 + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: (f64, f64), n: usize, spread: f64) -> MemberSet {
        let cores = (0..n)
            .map(|i| {
                let ang = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![center.0 + spread * ang.cos(), center.1 + spread * ang.sin()].into()
            })
            .collect();
        MemberSet::new(cores, vec![])
    }

    #[test]
    fn summary_of_ring() {
        let crd = Crd::from_members(&blob((5.0, 5.0), 8, 1.0)).unwrap();
        assert!((crd.centroid[0] - 5.0).abs() < 1e-9);
        assert!((crd.centroid[1] - 5.0).abs() < 1e-9);
        assert!((crd.radius - 1.0).abs() < 1e-9);
        assert_eq!(crd.population, 8);
    }

    #[test]
    fn centroid_averages_all_members() {
        let cores = vec![vec![0.0, 0.0].into(), vec![2.0, 0.0].into()];
        let m = MemberSet::new(cores, vec![vec![1.0, 3.0].into()]);
        assert_eq!(Crd::from_members(&m).unwrap().centroid[..], [1.0, 1.0]);
    }

    #[test]
    fn empty_cluster_has_no_summary() {
        assert!(Crd::from_members(&MemberSet::default()).is_none());
    }

    #[test]
    fn identical_summaries_have_zero_distance() {
        let a = Crd::from_members(&blob((0.0, 0.0), 10, 2.0)).unwrap();
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn distance_grows_with_separation() {
        let a = Crd::from_members(&blob((0.0, 0.0), 10, 2.0)).unwrap();
        let near = Crd::from_members(&blob((1.0, 0.0), 10, 2.0)).unwrap();
        let far = Crd::from_members(&blob((10.0, 0.0), 10, 2.0)).unwrap();
        assert!(a.distance(&near) < a.distance(&far));
        assert!(a.distance(&far) <= 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Crd::from_members(&blob((0.0, 0.0), 10, 2.0)).unwrap();
        let b = Crd::from_members(&blob((3.0, 1.0), 20, 0.5)).unwrap();
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn crd_cannot_tell_ring_from_disc() {
        // The blindness the paper exploits: same centroid/radius/population
        // but very different shapes → near-zero CRD distance.
        let ring = blob((0.0, 0.0), 16, 2.0);
        let mut disc_pts: Vec<Box<[f64]>> = (0..15)
            .map(|i| {
                let r = 2.0 * (i as f64 / 15.0);
                let ang = i as f64 * 2.399963; // golden angle
                vec![r * ang.cos(), r * ang.sin()].into()
            })
            .collect();
        disc_pts.push(vec![2.0, 0.0].into()); // pin the radius to 2
        let disc = MemberSet::new(disc_pts, vec![]);
        let a = Crd::from_members(&ring).unwrap();
        let b = Crd::from_members(&disc).unwrap();
        assert!(a.distance(&b) < 0.25, "got {}", a.distance(&b));
    }

    #[test]
    fn archived_bytes() {
        let a = Crd::from_members(&blob((0.0, 0.0), 4, 1.0)).unwrap();
        assert_eq!(a.archived_bytes(), 2 * 8 + 20);
    }
}
