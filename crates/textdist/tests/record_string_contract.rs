//! The contract of [`Distance`]: a distance is a function of the record
//! string, `d(a, b) == d(&[record_string(a)], &[record_string(b)])` —
//! collapsing a record's fields to its joined normalized string does not
//! change the distance. The collapse pre-pass keys duplicate classes on
//! the record string because of it, and verification paths join +
//! normalize each record once at build time instead of once per pair.
//!
//! Both distances are checked called directly, through `&D`, and as
//! `Box<dyn Distance>` — the two forwarding impls the pipeline reaches
//! them through.

use fuzzydedup_textdist::{record_string, Distance, EditDistance, FuzzyMatchDistance, IdfModel};

fn corpus() -> Vec<Vec<String>> {
    [
        vec!["Acme Widgets Inc", "12 Main St", "Springfield", "IL", "62704"],
        vec!["ACME widgets, inc.", "12 Main Street", "Springfield", "IL", "62704"],
        vec!["Global Trans-Shipping", "Pier 9", "Oakland", "CA", "94607"],
        vec!["globel  transshipping", "pier 9", "oakland", "CA", "94607"],
        vec!["Müller & Söhne GmbH", "Hauptstraße 1", "Köln", "", "50667"],
        vec!["", "", "", "", ""],
        vec!["single"],
        vec!["a", "b", "c"],
    ]
    .into_iter()
    .map(|r| r.into_iter().map(str::to_owned).collect())
    .collect()
}

fn check_contract<D: Distance>(d: D) {
    let records = corpus();
    for a in &records {
        for b in &records {
            let fa: Vec<&str> = a.iter().map(String::as_str).collect();
            let fb: Vec<&str> = b.iter().map(String::as_str).collect();
            let direct = d.distance(&fa, &fb);
            let ja = record_string(&fa);
            let jb = record_string(&fb);
            let joined = d.distance(&[ja.as_str()], &[jb.as_str()]);
            assert!(
                (direct - joined).abs() < 1e-12,
                "{}: d({a:?}, {b:?}) = {direct} but joined form gives {joined}",
                d.name()
            );
        }
    }
}

#[test]
fn edit_distance_is_a_function_of_the_record_string() {
    check_contract(EditDistance);
    check_contract::<&EditDistance>(&EditDistance);
    check_contract::<Box<dyn Distance>>(Box::new(EditDistance));
}

#[test]
fn fuzzy_match_is_a_function_of_the_record_string() {
    let fms = FuzzyMatchDistance::new(IdfModel::fit_records(&corpus()));
    check_contract::<&FuzzyMatchDistance>(&fms);
    check_contract::<Box<dyn Distance>>(Box::new(fms.clone()));
    check_contract(fms);
}
