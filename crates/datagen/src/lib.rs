#![warn(missing_docs)]

//! Gold-labelled synthetic datasets for fuzzy duplicate elimination.
//!
//! The paper evaluates on two internal warehouses (`Media[artistName,
//! trackName]`, `Org[name, address, city, state, zipcode]`) and four
//! datasets from the Riddle repository (`Restaurants`, `BirdScott`,
//! `Parks`, `Census`). None of those is redistributable, so this crate
//! generates synthetic stand-ins with the same *error structure* (see
//! `DESIGN.md` §4): base entities drawn from per-domain vocabularies, and
//! fuzzy duplicates produced by a configurable [`errors::ErrorModel`]
//! covering the phenomena in the paper's Table 1 —
//!
//! * typos: `"Shania Twain"` → `"Twian, Shania"` (transposition),
//!   `"Im Holdin"` (dropped characters/apostrophes);
//! * token transposition: `"Beatles, The"`;
//! * dropped tokens: `"Doors"` for `"The Doors"`;
//! * abbreviations: `"corp"` / `"corporation"`, `"St"` / `"Street"`;
//! * confusable series: `"Ears/Eyes - Part II/III/IV"` — distinct entities
//!   at small edit distance, generated as *unique* records so that global
//!   thresholds are punished exactly as in the paper.
//!
//! Every generated [`dataset::Dataset`] carries gold entity labels, so
//! precision/recall are computable. Generation is fully deterministic for
//! a seed.

pub mod csvio;
pub mod dataset;
pub mod errors;
pub mod numeric;
pub mod seeds;

pub mod birds;
pub mod census;
pub mod media;
pub mod org;
pub mod parks;
pub mod restaurants;

pub use dataset::{Dataset, DatasetSpec, ErrorIntensity};
pub use errors::ErrorModel;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The standard battery of quality-experiment datasets (one per §5.1
/// figure), each at roughly the published scale.
pub fn standard_quality_datasets(seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        restaurants::generate(&mut rng, DatasetSpec::small()),
        birds::generate(&mut rng, DatasetSpec::small()),
        parks::generate(&mut rng, DatasetSpec::small()),
        census::generate(&mut rng, DatasetSpec::medium()),
        media::generate(&mut rng, DatasetSpec::medium()),
        org::generate(&mut rng, DatasetSpec::medium()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_battery_is_deterministic() {
        let a = standard_quality_datasets(7);
        let b = standard_quality_datasets(7);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.records, y.records);
            assert_eq!(x.gold, y.gold);
        }
        let c = standard_quality_datasets(8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.records != y.records));
    }

    #[test]
    fn battery_names_are_the_papers() {
        let battery = standard_quality_datasets(1);
        let names: Vec<&str> = battery.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["Restaurants", "BirdScott", "Parks", "Census", "Media", "Org"]);
    }
}
