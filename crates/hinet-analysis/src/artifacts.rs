//! Persist experiment results to disk.
//!
//! `cargo run --example export_results` writes one markdown file and one
//! CSV per experiment table into an output directory, so downstream
//! plotting/diffing doesn't have to scrape terminal output. Formats come
//! from [`crate::report::Table`]'s own renderers — no serialization stack.

use crate::experiments::ExperimentResult;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Slugify a table title into a filename fragment.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_dash = true;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
        if out.len() >= 60 {
            break;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// Files written for one experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrittenArtifacts {
    /// The markdown report path.
    pub markdown: PathBuf,
    /// One CSV per table, in table order.
    pub csvs: Vec<PathBuf>,
}

/// Write `result` under `dir` (created if missing): `<id>.md` plus
/// `<id>-<table-slug>.csv` per table.
fn write_experiment(dir: &Path, result: &ExperimentResult) -> io::Result<WrittenArtifacts> {
    fs::create_dir_all(dir)?;
    let md_path = dir.join(format!("{}.md", result.id));
    fs::write(&md_path, result.to_markdown())?;
    let mut csvs = Vec::new();
    for (i, table) in result.tables.iter().enumerate() {
        let name = format!("{}-{}-{}.csv", result.id, i, slug(table.title()));
        let path = dir.join(name);
        fs::write(&path, table.to_csv())?;
        csvs.push(path);
    }
    Ok(WrittenArtifacts {
        markdown: md_path,
        csvs,
    })
}

/// Run every registered experiment and write all artifacts under `dir`.
/// Returns the paths written, in experiment order.
pub fn export_all(dir: &Path) -> io::Result<Vec<WrittenArtifacts>> {
    crate::experiments::all_experiments()
        .iter()
        .map(|e| write_experiment(dir, &(e.run)()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hinet-artifacts-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn slugify() {
        assert_eq!(slug("Table 2 — closed forms"), "table-2-closed-forms");
        assert_eq!(slug("a/b\\c"), "a-b-c");
        assert_eq!(slug("--x--"), "x");
    }

    #[test]
    fn writes_markdown_and_csvs() {
        let dir = tmpdir("write");
        let mut t = Table::new("Demo table", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let result = ExperimentResult {
            id: "EX",
            title: "demo",
            tables: vec![t],
            notes: vec!["note".into()],
        };
        let written = write_experiment(&dir, &result).unwrap();
        let md = fs::read_to_string(&written.markdown).unwrap();
        assert!(md.contains("## EX"));
        assert_eq!(written.csvs.len(), 1);
        let csv = fs::read_to_string(&written.csvs[0]).unwrap();
        assert!(csv.starts_with("a,b"));
        assert!(csv.contains("1,2"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_cheap_experiment_roundtrip() {
        // Only export the analytic experiments here (the full export runs
        // in the example binary); verifies path construction end to end.
        let dir = tmpdir("analytic");
        let r = crate::experiments::e2_table3();
        let written = write_experiment(&dir, &r).unwrap();
        assert!(written.markdown.exists());
        assert!(written.csvs.iter().all(|p| p.exists()));
        fs::remove_dir_all(&dir).unwrap();
    }
}
