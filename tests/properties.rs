//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use streamsum::core::{dist, GridGeometry, Point, WindowSpec};
use streamsum::index::UnionFind;
use streamsum::matching::metric::rel_diff;
use streamsum::summarize::{coarsen, CellStatus, MemberSet, Sgs};

proptest! {
    /// Lemma 4.1 precondition: any two points mapped to the same basic
    /// cell are within θr of each other.
    #[test]
    fn same_cell_implies_neighbors(
        theta_r in 0.05f64..5.0,
        dim in 1usize..5,
        a in prop::collection::vec(-50.0f64..50.0, 4),
        delta in prop::collection::vec(-0.01f64..0.01, 4),
    ) {
        let g = GridGeometry::basic(dim, theta_r);
        let pa = Point::new(a[..dim].to_vec(), 0);
        let b: Vec<f64> = a[..dim].iter().zip(&delta[..dim]).map(|(x, d)| x + d).collect();
        let pb = Point::new(b, 0);
        if g.cell_of(&pa) == g.cell_of(&pb) {
            prop_assert!(pa.dist(&pb) <= theta_r + 1e-9);
        }
    }

    /// Every point within θr of a cell's contents lies in a reachable cell.
    #[test]
    fn reachable_cells_cover_neighbor_ball(
        theta_r in 0.1f64..3.0,
        x in -20.0f64..20.0,
        y in -20.0f64..20.0,
        angle in 0.0f64..std::f64::consts::TAU,
        frac in 0.0f64..1.0,
    ) {
        let g = GridGeometry::basic(2, theta_r);
        let p = Point::new(vec![x, y], 0);
        let r = theta_r * frac;
        let q = Point::new(vec![x + r * angle.cos(), y + r * angle.sin()], 0);
        let reachable = g.reachable_cells(&g.cell_of(&p));
        prop_assert!(reachable.contains(&g.cell_of(&q)));
    }

    /// Window membership arithmetic: every logical time in steady state
    /// participates in exactly win/slide windows.
    #[test]
    fn window_membership_count(
        slide in 1u64..50,
        views in 1u64..20,
        t_off in 0u64..10_000,
    ) {
        let win = slide * views;
        let spec = WindowSpec::count(win, slide).unwrap();
        let t = win + t_off; // past warm-up
        let first = spec.first_window_of(t);
        let last = spec.last_window_of(t);
        prop_assert_eq!(last - first + 1, views);
        prop_assert!(spec.window_start(first) <= t && t < spec.window_end(first));
        prop_assert!(spec.window_start(last) <= t && t < spec.window_end(last));
    }

    /// rel_diff is a bounded, symmetric dissimilarity.
    #[test]
    fn rel_diff_properties(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let d = rel_diff(a, b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(d, rel_diff(b, a));
        prop_assert_eq!(rel_diff(a, a), 0.0);
    }

    /// Union-find: unions are transitive and find is idempotent.
    #[test]
    fn union_find_transitivity(pairs in prop::collection::vec((0usize..30, 0usize..30), 0..50)) {
        let mut uf = UnionFind::with_len(30);
        for (a, b) in &pairs {
            uf.union(*a, *b);
        }
        for (a, b) in &pairs {
            prop_assert!(uf.connected(*a, *b));
        }
        for i in 0..30 {
            let r = uf.find(i);
            prop_assert_eq!(uf.find(r), r);
        }
    }

    /// SGS construction: population preserved, cells sorted, edge cells
    /// connection-free — for random member sets.
    #[test]
    fn sgs_invariants(
        cores in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..80),
        edges in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 0..20),
        theta_r in 0.2f64..2.0,
    ) {
        let members = MemberSet::new(
            cores.iter().map(|(x, y)| vec![*x, *y].into()).collect(),
            edges.iter().map(|(x, y)| vec![*x, *y].into()).collect(),
        );
        let sgs = Sgs::from_members(&members, &GridGeometry::basic(2, theta_r));
        prop_assert!(sgs.validate().is_ok());
        prop_assert_eq!(sgs.population() as usize, members.population());
        prop_assert!(sgs.core_count() <= sgs.volume());
    }

    /// A built summary lists every core–core connection in both cells'
    /// runs: Def. 4.3's connection is symmetric between core cells. An
    /// encoding that keeps each mirrored pair once rests on this;
    /// `coarsen`'s output does not keep it.
    #[test]
    fn from_members_mirrors_every_core_core_connection(
        dim in 2usize..5,
        cores in prop::collection::vec(prop::collection::vec(-4.0f64..4.0, 4), 1..60),
        edges in prop::collection::vec(prop::collection::vec(-4.0f64..4.0, 4), 0..20),
        theta_r in 0.5f64..2.5,
    ) {
        let cut = |points: &[Vec<f64>]| points.iter().map(|p| p[..dim].into()).collect();
        let members = MemberSet::new(cut(&cores), cut(&edges));
        let sgs = Sgs::from_members(&members, &GridGeometry::basic(dim, theta_r));
        let mut links = 0;
        for (i, cell) in sgs.cells.iter().enumerate() {
            if cell.status != CellStatus::Core {
                continue;
            }
            for &j in cell.connections {
                let other = sgs.cells.get(j as usize).unwrap();
                if other.status == CellStatus::Core {
                    links += 1;
                    prop_assert!(
                        other.connections.contains(&(i as u32)),
                        "core cell {} lists {}, which does not list it", i, j
                    );
                }
            }
        }
        prop_assert_eq!(links % 2, 0);
    }

    /// Multi-resolution coarsening preserves population and never
    /// increases the cell count; components never split.
    #[test]
    fn coarsen_invariants(
        cores in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..60),
        theta in 2u32..5,
    ) {
        let members = MemberSet::new(
            cores.iter().map(|(x, y)| vec![*x, *y].into()).collect(),
            vec![],
        );
        let base = Sgs::from_members(&members, &GridGeometry::basic(2, 1.0));
        let coarse = coarsen(&base, theta);
        prop_assert!(coarse.validate().is_ok());
        prop_assert_eq!(coarse.population(), base.population());
        prop_assert!(coarse.volume() <= base.volume());
        prop_assert!(coarse.components().len() <= base.components().len());
    }

    /// Distance function basics used throughout: symmetry and identity.
    #[test]
    fn euclidean_distance_properties(
        a in prop::collection::vec(-100.0f64..100.0, 3),
        b in prop::collection::vec(-100.0f64..100.0, 3),
    ) {
        prop_assert_eq!(dist(&a, &b), dist(&b, &a));
        prop_assert_eq!(dist(&a, &a), 0.0);
        prop_assert!(dist(&a, &b) >= 0.0);
    }
}
