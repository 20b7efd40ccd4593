//! E4 — the Fig. 2 definition lattice, checked on generated traces.

use super::ExperimentResult;
use crate::report::Table;
use hinet_cluster::ctvg::HierarchyProvider;
use hinet_cluster::generators::{HiNetConfig, HiNetGen};
use hinet_cluster::stability::stream::{StabilityStream, WindowVerdict};
use hinet_graph::trace::TopologyProvider;

/// One implication `antecedent ⇒ consequent` checked over many traces.
struct Implication {
    name: &'static str,
    holds: usize,
    vacuous: usize,
    violated: usize,
}

/// E4: empirically exercise the Fig. 2 lattice — on a family of generated
/// traces spanning stable and churning regimes, whenever a higher-level
/// definition holds, all of its children must hold. A single violation
/// falsifies the verifier stack (the property tests at workspace level do
/// the same with random parameters).
pub(crate) fn e4_definition_lattice() -> ExperimentResult {
    let mut imps = vec![
        Implication {
            name: "Def 8 ⇒ Def 4 (stable hierarchy)",
            holds: 0,
            vacuous: 0,
            violated: 0,
        },
        Implication {
            name: "Def 8 ⇒ Def 7 (T-interval L-hop conn.)",
            holds: 0,
            vacuous: 0,
            violated: 0,
        },
        Implication {
            name: "Def 4 ⇒ Def 2 (stable head set)",
            holds: 0,
            vacuous: 0,
            violated: 0,
        },
        Implication {
            name: "Def 4 ⇒ Def 3 (each cluster stable)",
            holds: 0,
            vacuous: 0,
            violated: 0,
        },
        Implication {
            name: "Def 7 ⇒ Def 5 (head connectivity)",
            holds: 0,
            vacuous: 0,
            violated: 0,
        },
        Implication {
            name: "Def 7 ⇒ Def 6 (L-hop bound)",
            holds: 0,
            vacuous: 0,
            violated: 0,
        },
    ];

    let mut traces_checked = 0;
    for (t, l, rotate, reaffil, seed) in [
        (4usize, 2usize, false, 0.0, 1u64),
        (4, 2, true, 0.3, 2),
        (1, 3, true, 0.5, 3),
        (6, 1, false, 0.2, 4),
        (3, 4, true, 0.0, 5),
        (2, 2, true, 0.9, 6),
    ] {
        let cfg = HiNetConfig {
            n: 36,
            num_heads: 4,
            theta: 9,
            l,
            t,
            reaffil_prob: reaffil,
            rotate_heads: rotate,
            noise_edges: 5,
            seed,
        };
        let mut gen = HiNetGen::new(cfg);
        let mut stream = StabilityStream::new(t, l);
        let mut verdicts = Vec::new();
        for round in 0..3 * t {
            verdicts.extend(stream.push(&gen.graph_at(round), &gen.hierarchy_at(round)));
        }
        verdicts.extend(stream.finish().0);
        traces_checked += 1;

        // Antecedents are trace-wide (every aligned window); consequents
        // are read on the first window. Where a whole-trace Def 4 or Def 7
        // holds, so does the first window's, so Def 3 (all of `I`
        // unchanged, or each head's `M_k` unchanged) and Defs 5, 6 there
        // hold under either reading; a false antecedent scores vacuous.
        let all = |def: fn(&WindowVerdict) -> bool| verdicts.iter().all(def);
        let def8 = all(|v| v.def8);
        let def4 = all(|v| v.def4);
        let def7 = all(|v| v.def7);
        let def2 = all(|v| v.def2);
        let first = &verdicts[0];
        let (def3_all, def5, def6) = (first.def3, first.def5, first.def6);

        let mut score = |idx: usize, ante: bool, cons: bool| {
            if !ante {
                imps[idx].vacuous += 1;
            } else if cons {
                imps[idx].holds += 1;
            } else {
                imps[idx].violated += 1;
            }
        };
        score(0, def8, def4);
        score(1, def8, def7);
        score(2, def4, def2);
        score(3, def4, def3_all);
        score(4, def7, def5);
        score(5, def7, def6);
    }

    let mut table = Table::new(
        format!("Definition lattice over {traces_checked} generated traces"),
        &["implication", "holds", "vacuous", "violated"],
    );
    let mut violated_any = false;
    for imp in &imps {
        violated_any |= imp.violated > 0;
        table.push_row(vec![
            imp.name.into(),
            imp.holds.to_string(),
            imp.vacuous.to_string(),
            imp.violated.to_string(),
        ]);
    }
    ExperimentResult {
        id: "E4",
        title: "Fig. 2 — stability-definition lattice",
        tables: vec![table],
        notes: vec![if violated_any {
            "VIOLATION FOUND — verifier stack inconsistent with Fig. 2".into()
        } else {
            "All implications hold on every checked trace, matching Fig. 2.".into()
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_no_violations() {
        let r = e4_definition_lattice();
        let t = &r.tables[0];
        for row in t.rows() {
            assert_eq!(row[3], "0", "implication '{}' violated", row[0]);
        }
        assert!(r.notes[0].contains("All implications hold"));
    }

    #[test]
    fn lattice_not_fully_vacuous() {
        // At least the constructed stable traces must trigger the
        // antecedents, otherwise the experiment tests nothing.
        let r = e4_definition_lattice();
        let t = &r.tables[0];
        for row in t.rows() {
            let holds: usize = row[1].parse().unwrap();
            assert!(holds > 0, "implication '{}' never exercised", row[0]);
        }
    }
}
