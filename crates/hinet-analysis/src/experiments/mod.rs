//! The experiment registry (E1–E17).
//!
//! Each experiment regenerates one artifact of the paper's evaluation (or
//! one of the sweep "figures" the analysis implies but never measured —
//! see DESIGN.md §4 for the experiment ↔ artifact index) and returns
//! rendered tables plus free-form notes. Experiments are deterministic:
//! fixed seeds, fixed parameter grids.

mod adversarial;
mod analytic;
mod faults;
mod lattice;
mod multihop;
mod netcode;
mod progress;
mod simulated;
mod sweeps;

// The three table experiments are public for the CLI and the
// table_reproduction example; the rest are reached through the registry.
pub use analytic::{e1_table2, e2_table3};
pub use simulated::e3_simulated_table3;

use adversarial::e13_quiescence_trap;
use faults::e17_loss_resilience;
use lattice::e4_definition_lattice;
use multihop::e14_multihop_clusters;
use netcode::e15_network_coding;
use progress::e16_progress_curves;
use simulated::{e11_remark1_ablation, e12_emdg_clusters};
use sweeps::{e10_headline, e5_sweep_n, e6_sweep_k, e7_sweep_alpha, e8_sweep_l, e9_sweep_churn};

use crate::report::Table;

/// Output of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"E3"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Observations / errata callouts the tables don't carry.
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Render the whole result as plain text.
    pub fn to_text(&self) -> String {
        let mut out = format!("== {} — {} ==\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_text());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("note: ");
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// Render the whole result as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("> {n}\n"));
        }
        out
    }
}

/// A registry entry.
pub struct Experiment {
    /// Experiment id, e.g. `"E5"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Runner.
    pub run: fn() -> ExperimentResult,
}

/// Every experiment, in id order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            title: "Table 2 — analytical cost model",
            run: e1_table2,
        },
        Experiment {
            id: "E2",
            title: "Table 3 — numerical instantiation (paper vs formulas)",
            run: e2_table3,
        },
        Experiment {
            id: "E3",
            title: "Table 3, simulated — measured vs analytic",
            run: e3_simulated_table3,
        },
        Experiment {
            id: "E4",
            title: "Fig. 2 — stability-definition lattice",
            run: e4_definition_lattice,
        },
        Experiment {
            id: "E5",
            title: "Sweep — cost vs network size n₀",
            run: e5_sweep_n,
        },
        Experiment {
            id: "E6",
            title: "Sweep — cost vs token count k",
            run: e6_sweep_k,
        },
        Experiment {
            id: "E7",
            title: "Sweep — cost vs progress coefficient α",
            run: e7_sweep_alpha,
        },
        Experiment {
            id: "E8",
            title: "Sweep — cost vs hop bound L",
            run: e8_sweep_l,
        },
        Experiment {
            id: "E9",
            title: "Sweep — cost vs re-affiliation churn n_r",
            run: e9_sweep_churn,
        },
        Experiment {
            id: "E10",
            title: "Headline — communication reduction across regimes",
            run: e10_headline,
        },
        Experiment {
            id: "E11",
            title: "Ablation — Remark 1 (∞-stable heads) vs Algorithm 1",
            run: e11_remark1_ablation,
        },
        Experiment {
            id: "E12",
            title: "Extension — clusters over edge-Markovian dynamics",
            run: e12_emdg_clusters,
        },
        Experiment {
            id: "E13",
            title: "Adversarial — the quiescence trap",
            run: e13_quiescence_trap,
        },
        Experiment {
            id: "E14",
            title: "Extension — multi-hop (d-hop) clusters",
            run: e14_multihop_clusters,
        },
        Experiment {
            id: "E15",
            title: "Extension — network coding vs token forwarding",
            run: e15_network_coding,
        },
        Experiment {
            id: "E16",
            title: "Figure — dissemination progress curves",
            run: e16_progress_curves,
        },
        Experiment {
            id: "E17",
            title: "Robustness — graceful degradation under message loss",
            run: e17_loss_resilience,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_ordered() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 17);
        let ids: Vec<_> = exps.iter().map(|e| e.id).collect();
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(ids, sorted);
        assert_eq!(ids[0], "E1");
        assert_eq!(ids[16], "E17");
    }

    #[test]
    fn result_rendering_includes_everything() {
        let r = ExperimentResult {
            id: "EX",
            title: "demo",
            tables: vec![Table::new("t", &["a"])],
            notes: vec!["a note".into()],
        };
        let text = r.to_text();
        assert!(text.contains("EX"));
        assert!(text.contains("a note"));
        let md = r.to_markdown();
        assert!(md.contains("## EX"));
        assert!(md.contains("> a note"));
    }
}
