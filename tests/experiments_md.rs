//! EXPERIMENTS.md publishes every experiment's tables. This test renders
//! them the way `examples/report_all.rs --markdown` prints them and
//! requires the document to carry the same lines from `## E1 ` onward, so
//! a change to any experiment's output must update the published numbers
//! in the same commit. The hand-written sections after the generated ones
//! (E17's oracle rerun, E18) are outside the comparison.

use hinet::analysis::all_experiments;

#[test]
fn experiments_md_matches_the_generated_report() {
    let mut generated = String::new();
    for exp in all_experiments() {
        generated.push_str(&(exp.run)().to_markdown());
        generated.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let first = doc
        .lines()
        .position(|line| line.starts_with("## E1 "))
        .expect("EXPERIMENTS.md has an `## E1 ` section");
    let mut published = doc.lines().skip(first);
    for (i, want) in generated.lines().enumerate() {
        let got = published.next();
        assert_eq!(
            got,
            Some(want),
            "EXPERIMENTS.md line {} differs from the generated report \
             (regenerate with `cargo run --release --example report_all -- --markdown`)",
            first + i + 1
        );
    }
}
