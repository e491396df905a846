//! Reference digests: the canonical output rows of each workload's
//! campaign at its bin's default seed, recorded in `reference.txt`.

use crate::campaigns::Workload;
use crate::stats::Tally;
use std::collections::BTreeSet;

/// The recorded rows, one `<workload>\t<row>` per line.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// The rows recorded for `workload` in `text`.
pub fn expected_rows(text: &str, workload: Workload) -> Vec<String> {
    text.lines()
        .filter_map(|line| line.split_once('\t'))
        .filter(|(w, _)| *w == workload.name())
        .map(|(_, row)| row.to_string())
        .collect()
}

/// Compares `actual` against `expected`: each expected row is one
/// operation, failed when missing; each unexpected row is one more failed
/// operation. Every mismatch is printed.
pub fn compare(workload: Workload, expected: &[String], actual: &[String]) -> Tally {
    let mut t = Tally::default();
    t.check(!expected.is_empty(), || {
        format!("{}: no reference rows recorded", workload.name())
    });
    let have: BTreeSet<&String> = actual.iter().collect();
    let want: BTreeSet<&String> = expected.iter().collect();
    for row in expected {
        t.check(have.contains(row), || {
            format!("{} reference row missing: {row}", workload.name())
        });
    }
    for row in actual.iter().filter(|r| !want.contains(r)) {
        t.check(false, || {
            format!("{} unexpected row: {row}", workload.name())
        });
    }
    t
}

/// Runs the reference campaign of `workload` and checks it against the
/// rows in `text`.
pub fn check(workload: Workload, text: &str) -> Tally {
    let run = workload.run(workload.default_seed(), workload.reference_size());
    let mut t = compare(workload, &expected_rows(text, workload), &run.digest_rows());
    t.merge(run.check());
    t
}

/// The reference file's contents for the current code.
pub fn render() -> String {
    let mut out = String::new();
    for w in Workload::ALL {
        for row in w.run(w.default_seed(), w.reference_size()).digest_rows() {
            out.push_str(&format!("{}\t{row}\n", w.name()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(text: &[&str]) -> Vec<String> {
        text.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn matching_rows_pass() {
        let a = rows(&["hist CAN consistent=3", "entry x.json"]);
        let t = compare(Workload::FalsifyLink, &a, &a);
        assert_eq!((t.attempted, t.failed), (3, 0));
    }

    #[test]
    fn a_corrupted_reference_row_fails_operations() {
        let actual = rows(&["hist CAN consistent=3 double=1", "entry x.json"]);
        let corrupted = rows(&["hist CAN consistent=3 double=2", "entry x.json"]);
        let t = compare(Workload::FalsifyLink, &corrupted, &actual);
        // The corrupted row is missing, and the real row is unexpected.
        assert_eq!((t.attempted, t.failed), (4, 2));
        let t = compare(Workload::FalsifyLink, &[], &actual);
        assert!(t.failed >= 1, "an empty reference never passes");
    }

    #[test]
    fn a_corrupted_recorded_digest_fails_the_real_check() {
        // Runs the real falsify_link reference campaign against the
        // recorded file with one digit changed.
        let good = check(Workload::FalsifyLink, REFERENCE);
        assert_eq!(good.failed, 0, "recorded reference must match");
        let line = REFERENCE
            .lines()
            .find(|l| l.starts_with("falsify_link\thist"))
            .expect("a falsify_link histogram row");
        let bad_line = line.replacen("consistent=", "consistent=9", 1);
        let corrupted = REFERENCE.replace(line, &bad_line);
        let bad = check(Workload::FalsifyLink, &corrupted);
        assert_eq!(bad.attempted, good.attempted + 1);
        assert_eq!(bad.failed, 2);
    }

    #[test]
    fn rows_are_split_by_workload() {
        let text = "falsify_link\ta b\nsoak\trow {}\nfalsify_link\tc\n";
        assert_eq!(
            expected_rows(text, Workload::FalsifyLink),
            rows(&["a b", "c"])
        );
        assert_eq!(expected_rows(text, Workload::Soak), rows(&["row {}"]));
        assert!(expected_rows(text, Workload::Attack).is_empty());
    }
}
