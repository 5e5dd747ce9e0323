//! Simulated outcomes pinned for the default seed.
//!
//! A reference computed in the run goes through the same `Cache` and
//! `Hierarchy` code as the timed path, so it catches only
//! non-determinism and disagreement between the batch and per-access
//! paths. A change that gets a policy, the cache or the hierarchy wrong
//! moves both sides alike. With `--seed 1`, `eval_grid` and
//! `eval_hierarchy` therefore check every cell and run against the
//! outcomes committed under `perfbench/pinned/`, which were taken from
//! the per-access enum-engine reference.
//!
//! After a change that is meant to alter simulated outcomes (the traces,
//! a policy's definition), rewrite them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored pin_`.

use std::collections::HashMap;

/// The seed whose outcomes are pinned (the default `--seed`).
pub const SEED: u64 = 1;

/// `eval_grid` cells at [`SEED`].
pub const GRID: &str = include_str!("../pinned/eval_grid-seed1.txt");
/// `eval_hierarchy` runs at [`SEED`].
pub const HIERARCHY: &str = include_str!("../pinned/eval_hierarchy-seed1.txt");

/// Rows of a pinned file: a label, a tab, and space-separated counts.
///
/// # Panics
///
/// Panics on a malformed line: the files are part of the benchmark.
pub fn parse(text: &str) -> Vec<(String, Vec<u64>)> {
    text.lines()
        .map(|line| {
            let (label, counts) = line
                .split_once('\t')
                .unwrap_or_else(|| panic!("pinned line without a tab: {line:?}"));
            let counts = counts
                .split(' ')
                .map(|n| n.parse().unwrap_or_else(|e| panic!("{line:?}: {e}")))
                .collect();
            (label.to_owned(), counts)
        })
        .collect()
}

/// The expected counts for each label, in the order given; `None` where
/// the file has no row for the label.
pub fn lookup(text: &str, labels: &[String]) -> Vec<Option<Vec<u64>>> {
    let rows: HashMap<String, Vec<u64>> = parse(text).into_iter().collect();
    labels.iter().map(|l| rows.get(l).cloned()).collect()
}

/// Render rows in the format [`parse`] reads.
#[cfg(test)]
pub fn render(rows: &[(String, Vec<u64>)]) -> String {
    rows.iter()
        .map(|(label, counts)| {
            let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
            format!("{label}\t{}\n", counts.join(" "))
        })
        .collect()
}

/// Write `rows` to `perfbench/pinned/<name>` (used by the `pin_` tests).
#[cfg(test)]
pub fn write(name: &str, rows: &[(String, Vec<u64>)]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pinned/").to_owned() + name;
    std::fs::write(&path, render(rows)).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_missing_labels_read_as_none() {
        let rows = vec![
            ("LRU@32KiB/8w zipf_hot".to_owned(), vec![10, 7, 3]),
            ("b".to_owned(), vec![0]),
        ];
        let text = render(&rows);
        assert_eq!(parse(&text), rows);
        let want = lookup(&text, &["b".to_owned(), "nope".to_owned()]);
        assert_eq!(want, vec![Some(vec![0]), None]);
    }
}
