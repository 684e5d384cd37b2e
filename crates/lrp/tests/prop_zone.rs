//! Property-based tests: zone operations against brute-force set
//! semantics on small windows.
//!
//! Every zone operation claims to be *exact*; these properties generate
//! random small zones (periods ≤ 6, arity ≤ 3, bounded constraints) and
//! compare each operation against the definition, pointwise.

use itdb_lrp::{Constraint, Lrp, Var, Zone, DEFAULT_RESIDUE_BUDGET};
use proptest::prelude::*;

const B: u64 = DEFAULT_RESIDUE_BUDGET;
const LO: i64 = -18;
const HI: i64 = 18;

fn lrp_strategy() -> impl Strategy<Value = Lrp> {
    (1i64..=6, 0i64..=5).prop_map(|(p, b)| Lrp::new(p, b % p).unwrap())
}

fn constraint_strategy(arity: usize) -> impl Strategy<Value = Constraint> {
    let a = arity;
    (0..a, 0..a, -7i64..=7, 0u8..6).prop_map(move |(i, j, c, kind)| match kind {
        0 => Constraint::LtVar(Var(i), Var(j), c),
        1 => Constraint::LeVar(Var(i), Var(j), c),
        2 => Constraint::EqVar(Var(i), Var(j), c),
        3 => Constraint::LeConst(Var(i), c),
        4 => Constraint::GeConst(Var(i), c),
        _ => Constraint::EqConst(Var(i), c),
    })
}

fn zone_strategy(arity: usize) -> impl Strategy<Value = Zone> {
    (
        proptest::collection::vec(lrp_strategy(), arity),
        proptest::collection::vec(constraint_strategy(arity), 0..=3),
    )
        .prop_map(|(lrps, cs)| Zone::with_constraints(lrps, &cs).unwrap())
}

/// All window points of a zone, straight from the definition.
fn brute(z: &Zone) -> Vec<Vec<i64>> {
    fn rec(z: &Zone, partial: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if partial.len() == z.arity() {
            if z.contains_point(partial) {
                out.push(partial.clone());
            }
            return;
        }
        for t in LO..=HI {
            partial.push(t);
            rec(z, partial, out);
            partial.pop();
        }
    }
    let mut out = Vec::new();
    rec(z, &mut Vec::new(), &mut out);
    out
}

fn in_union(zs: &[Zone], p: &[i64]) -> bool {
    zs.iter().any(|z| z.contains_point(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Emptiness is exact: an empty verdict means no point in any window
    /// (window points suffice to *refute* emptiness; for the converse we
    /// rely on sample_point).
    #[test]
    fn emptiness_exact(z in zone_strategy(2)) {
        let empty = z.is_empty(B).unwrap();
        let pts = brute(&z);
        if !pts.is_empty() {
            prop_assert!(!empty, "zone has window points but was declared empty");
        }
        if !empty {
            // A nonempty verdict must come with a witness.
            let w = z.sample_point(B).unwrap().expect("witness for nonempty zone");
            prop_assert!(z.contains_point(&w));
        }
    }

    /// Conjunction is pointwise intersection.
    #[test]
    fn conjoin_is_intersection(a in zone_strategy(2), b in zone_strategy(2)) {
        let meet = a.conjoin(&b).unwrap();
        for t1 in LO..=HI {
            for t2 in LO..=HI {
                let p = [t1, t2];
                let expect = a.contains_point(&p) && b.contains_point(&p);
                let got = meet.as_ref().is_some_and(|m| m.contains_point(&p));
                prop_assert_eq!(expect, got, "at {:?}", p);
            }
        }
    }

    /// Projection is exact: the projected union contains exactly the
    /// points with a witness.
    #[test]
    fn projection_exact(z in zone_strategy(2)) {
        let ps = z.project(&[0], B).unwrap();
        let pts = brute(&z);
        // Soundness on the window: every witnessed point appears.
        for p in &pts {
            prop_assert!(in_union(&ps, &[p[0]]), "missing {}", p[0]);
        }
        // Exactness: every projected point has a witness (possibly outside
        // the window) — verify by pinning and testing emptiness.
        for t in LO..=HI {
            if in_union(&ps, &[t]) {
                let mut w = z.clone();
                w.add_constraint(Constraint::EqConst(Var(0), t)).unwrap();
                prop_assert!(!w.is_empty(B).unwrap(), "spurious {}", t);
            }
        }
    }

    /// Subtraction is pointwise difference.
    #[test]
    fn subtraction_exact(a in zone_strategy(2), b in zone_strategy(2)) {
        let diff = a.subtract(&[&b], B).unwrap();
        for t1 in LO..=HI {
            for t2 in LO..=HI {
                let p = [t1, t2];
                let expect = a.contains_point(&p) && !b.contains_point(&p);
                prop_assert_eq!(expect, in_union(&diff, &p), "at {:?}", p);
            }
        }
    }

    /// Subsumption agrees with subtraction emptiness.
    #[test]
    fn subsumption_vs_subtraction(a in zone_strategy(2), b in zone_strategy(2), c in zone_strategy(2)) {
        let sub = a.subsumed_by(&[&b, &c], B).unwrap();
        let diff = a.subtract(&[&b, &c], B).unwrap();
        let diff_empty = diff.iter().all(|z| z.is_empty(B).unwrap());
        prop_assert_eq!(sub, diff_empty);
        if sub {
            for t1 in LO..=HI {
                for t2 in LO..=HI {
                    let p = [t1, t2];
                    if a.contains_point(&p) {
                        prop_assert!(b.contains_point(&p) || c.contains_point(&p), "at {:?}", p);
                    }
                }
            }
        }
    }

    /// Subsumption stays exact when the candidates mix periods and some
    /// miss `a`'s residues on a column: the verdict matches subtraction
    /// (which splits every candidate), is unchanged by dropping the
    /// disjoint candidate, and a positive verdict holds pointwise.
    #[test]
    fn subsumption_with_disjoint_and_refined_candidates(
        a in zone_strategy(2),
        b in zone_strategy(2),
        col in 0usize..2,
        mult in 2i64..=3,
        cs in proptest::collection::vec(constraint_strategy(2), 0..=2),
    ) {
        let residue = |k: usize, period: i64, offset: i64| {
            let mut lrps: Vec<Lrp> = a.lrps().to_vec();
            lrps[k] = Lrp::new(period, offset.rem_euclid(period)).unwrap();
            Zone::with_constraints(lrps, &cs).unwrap()
        };
        let (p, off) = (a.lrp(col).period(), a.lrp(col).offset());
        // Offset `off + 1` modulo a multiple of `p`: disjoint from `a`'s
        // column whenever `p > 1`.
        let disjoint = residue(col, p * mult, off + 1);
        // Every `mult`-th point of `a`'s residue class: a finer period.
        let refined = residue(1 - col, a.lrp(1 - col).period() * mult, a.lrp(1 - col).offset());
        let all = [&b, &disjoint, &refined];
        let sub = a.subsumed_by(&all, B).unwrap();
        let diff = a.subtract(&all, B).unwrap();
        prop_assert_eq!(sub, diff.iter().all(|z| z.is_empty(B).unwrap()));
        if p > 1 {
            prop_assert_eq!(sub, a.subsumed_by(&[&b, &refined], B).unwrap());
        }
        if sub {
            for t1 in LO..=HI {
                for t2 in LO..=HI {
                    let pt = [t1, t2];
                    if a.contains_point(&pt) {
                        prop_assert!(
                            all.iter().any(|z| z.contains_point(&pt)),
                            "at {:?}", pt
                        );
                    }
                }
            }
        }
    }

    /// Complement is pointwise negation.
    #[test]
    fn complement_exact(z in zone_strategy(2)) {
        let comp = z.complement();
        for t1 in LO..=HI {
            for t2 in LO..=HI {
                let p = [t1, t2];
                prop_assert_eq!(!z.contains_point(&p), in_union(&comp, &p), "at {:?}", p);
            }
        }
    }

    /// Shifting an attribute translates the point set.
    #[test]
    fn shift_translates(z in zone_strategy(2), c in -5i64..=5) {
        let mut s = z.clone();
        s.shift_attr(0, c).unwrap();
        for t1 in LO..=HI {
            for t2 in LO..=HI {
                prop_assert_eq!(
                    z.contains_point(&[t1, t2]),
                    s.contains_point(&[t1 + c, t2]),
                    "at ({}, {})", t1, t2
                );
            }
        }
    }

    /// Canonicalization preserves the point set.
    #[test]
    fn canonicalize_preserves_semantics(z in zone_strategy(3)) {
        let mut c = z.clone();
        let alive = c.canonicalize();
        for p in brute(&z) {
            prop_assert!(alive, "nonempty zone canonicalized to empty: {:?}", p);
            prop_assert!(c.contains_point(&p), "lost {:?}", p);
        }
        if alive {
            for p in brute(&c) {
                prop_assert!(z.contains_point(&p), "gained {:?}", p);
            }
        }
    }

    /// Uniform splitting partitions the zone.
    #[test]
    fn split_uniform_partitions(z in zone_strategy(2)) {
        let pieces = z.split_uniform(B).unwrap();
        for t1 in LO..=HI {
            for t2 in LO..=HI {
                let p = [t1, t2];
                let count = pieces.iter().filter(|q| q.contains_point(&p)).count();
                prop_assert_eq!(
                    z.contains_point(&p),
                    count == 1,
                    "at {:?}: {} pieces claim it", p, count
                );
                prop_assert!(count <= 1, "pieces overlap at {:?}", p);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lrp intersection via CRT is exact.
    #[test]
    fn lrp_intersection_exact(a in lrp_strategy(), b in lrp_strategy()) {
        let meet = a.intersect(&b).unwrap();
        for t in -40i64..=40 {
            let expect = a.contains(t) && b.contains(t);
            let got = meet.as_ref().is_some_and(|m| m.contains(t));
            prop_assert_eq!(expect, got, "t={}", t);
        }
    }

    /// Lrp subset test agrees with pointwise containment.
    #[test]
    fn lrp_subset_exact(a in lrp_strategy(), b in lrp_strategy()) {
        let sub = a.is_subset_of(&b);
        let pointwise = (-40i64..=40).all(|t| !a.contains(t) || b.contains(t));
        prop_assert_eq!(sub, pointwise);
    }

    /// Lrp complement partitions ℤ.
    #[test]
    fn lrp_complement_partitions(a in lrp_strategy()) {
        let comp = a.complement();
        for t in -40i64..=40 {
            let in_comp = comp.iter().any(|c| c.contains(t));
            prop_assert!(a.contains(t) ^ in_comp, "t={}", t);
        }
    }
}
