//! Human-readable deduplication reports.
//!
//! Turns a [`Partition`] (plus the records and, optionally, the NN
//! relation) into the summary a data steward reviews before accepting a
//! merge: headline counts, the group-size histogram, and the duplicate
//! groups themselves annotated with intra-group distances — sorted so the
//! *least confident* merges (largest internal diameter) come first, which
//! is where review time is best spent.

use std::fmt::Write as _;

use crate::nnreln::NnReln;
use crate::partition::Partition;

/// Duplicate groups a report lists; the rest are counted.
const MAX_GROUPS: usize = 50;

/// Records a report prints per group; the rest are counted.
const MAX_RECORDS_PER_GROUP: usize = 8;

/// Render a report: at most 50 groups of at most 8 records each, the rest
/// counted. `reln` enables the per-group
/// diameter annotation and the confidence ordering; without it, groups are
/// listed in canonical order.
///
/// # Panics
/// Panics if `records.len() != partition.n()`.
pub fn render_report(
    partition: &Partition,
    records: &[Vec<String>],
    reln: Option<&NnReln>,
) -> String {
    assert_eq!(records.len(), partition.n(), "records must cover the partition");
    let mut out = String::new();

    let dup_groups: Vec<&Vec<u32>> = partition.duplicate_groups().collect();
    let dup_records: usize = dup_groups.iter().map(|g| g.len()).sum();
    let _ = writeln!(out, "# Deduplication report");
    let _ = writeln!(
        out,
        "{} records -> {} entities; {} duplicate group(s) covering {} records ({} pairs)",
        partition.n(),
        partition.num_groups(),
        dup_groups.len(),
        dup_records,
        partition.num_duplicate_pairs(),
    );

    // Size histogram, ascending.
    let mut histogram: Vec<(usize, usize)> =
        partition.size_histogram().into_iter().filter(|&(size, _)| size > 1).collect();
    histogram.sort_unstable();
    let _ = write!(out, "group sizes:");
    for (size, count) in &histogram {
        let _ = write!(out, " {size}x{count}");
    }
    let _ = writeln!(out);

    // Order groups by descending diameter (least confident first) when NN
    // lists are available.
    let diameter_of =
        |group: &[u32]| -> Option<f64> { reln.and_then(|r| crate::criteria::diameter(r, group)) };
    let mut ordered: Vec<(&Vec<u32>, Option<f64>)> =
        dup_groups.iter().map(|g| (*g, diameter_of(g))).collect();
    ordered.sort_by(|a, b| {
        b.1.unwrap_or(f64::INFINITY)
            .total_cmp(&a.1.unwrap_or(f64::INFINITY))
            .then_with(|| a.0[0].cmp(&b.0[0]))
    });

    for (i, (group, diameter)) in ordered.iter().take(MAX_GROUPS).enumerate() {
        match diameter {
            Some(d) => {
                let _ =
                    writeln!(out, "\ngroup {} (size {}, diameter {:.3}):", i + 1, group.len(), d);
            }
            None => {
                let _ = writeln!(out, "\ngroup {} (size {}):", i + 1, group.len());
            }
        }
        for &id in group.iter().take(MAX_RECORDS_PER_GROUP) {
            let _ = writeln!(out, "  [{id}] {}", records[id as usize].join(" | "));
        }
        if group.len() > MAX_RECORDS_PER_GROUP {
            let _ = writeln!(out, "  ... and {} more", group.len() - MAX_RECORDS_PER_GROUP);
        }
    }
    if ordered.len() > MAX_GROUPS {
        let _ = writeln!(out, "\n... and {} more group(s)", ordered.len() - MAX_GROUPS);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnreln::NnEntry;
    use fuzzydedup_relation::Neighbor;

    fn records() -> Vec<Vec<String>> {
        vec![
            vec!["the doors".into(), "la woman".into()],
            vec!["doors".into(), "la woman".into()],
            vec!["aaliyah".into(), "are you ready".into()],
            vec!["shania twain".into(), "holdin on".into()],
            vec!["twian shania".into(), "holding on".into()],
        ]
    }

    fn partition() -> Partition {
        Partition::from_groups(5, vec![vec![0, 1], vec![3, 4]])
    }

    #[test]
    fn headline_counts() {
        let report = render_report(&partition(), &records(), None);
        assert!(report.contains("5 records -> 3 entities"));
        assert!(report.contains("2 duplicate group(s) covering 4 records (2 pairs)"));
        assert!(report.contains("group sizes: 2x2"));
        assert!(report.contains("the doors | la woman"));
    }

    #[test]
    fn diameter_ordering_puts_weak_merges_first() {
        let reln = NnReln::new(vec![
            NnEntry::new(0, vec![Neighbor::new(1, 0.1)], 2.0),
            NnEntry::new(1, vec![Neighbor::new(0, 0.1)], 2.0),
            NnEntry::new(2, vec![], 1.0),
            NnEntry::new(3, vec![Neighbor::new(4, 0.4)], 2.0),
            NnEntry::new(4, vec![Neighbor::new(3, 0.4)], 2.0),
        ]);
        let report = render_report(&partition(), &records(), Some(&reln));
        let twain_at = report.find("shania twain").unwrap();
        let doors_at = report.find("the doors").unwrap();
        assert!(twain_at < doors_at, "looser group (0.4) reviewed before tighter (0.1)");
        assert!(report.contains("diameter 0.400"));
    }

    #[test]
    fn limits_are_applied() {
        // One group of ten, then 61 pairs: 62 groups, twelve past the list.
        let n = 10 + 2 * 61;
        let recs: Vec<Vec<String>> = (0..n).map(|i| vec![format!("r{i}")]).collect();
        let mut groups: Vec<Vec<u32>> = vec![(0..10).collect()];
        groups.extend((0..61).map(|i| vec![10 + 2 * i, 11 + 2 * i]));
        let p = Partition::from_groups(n as usize, groups);
        let report = render_report(&p, &recs, None);
        assert!(report.contains("... and 12 more group(s)"));
        assert!(report.contains("... and 2 more\n"), "the group of ten prints eight");
        assert!(report.contains("[7] r7") && !report.contains("[8] r8"));
    }

    #[test]
    fn no_duplicates_report() {
        let p = Partition::singletons(3);
        let recs: Vec<Vec<String>> = (0..3).map(|i| vec![format!("r{i}")]).collect();
        let report = render_report(&p, &recs, None);
        assert!(report.contains("0 duplicate group(s)"));
    }

    #[test]
    #[should_panic(expected = "records must cover")]
    fn mismatched_records_panic() {
        render_report(&partition(), &records()[..3], None);
    }
}
