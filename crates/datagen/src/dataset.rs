//! Dataset container and generation parameters.

use rand::Rng;

/// A labelled relation: records plus gold entity ids (`gold[i] == gold[j]`
/// iff records `i` and `j` are fuzzy duplicates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    /// Dataset name (matches the paper's dataset names).
    pub name: String,
    /// Attribute names.
    pub attributes: Vec<String>,
    /// The records, each with `attributes.len()` fields.
    pub records: Vec<Vec<String>>,
    /// Gold entity label per record.
    pub gold: Vec<usize>,
}

impl Dataset {
    /// Construct, checking shape invariants.
    pub fn new(
        name: impl Into<String>,
        attributes: Vec<String>,
        records: Vec<Vec<String>>,
        gold: Vec<usize>,
    ) -> Self {
        let name = name.into();
        assert_eq!(records.len(), gold.len(), "{name}: gold must cover all records");
        let arity = attributes.len();
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.len(), arity, "{name}: record {i} has wrong arity");
        }
        Self { name, attributes, records, gold }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of true duplicate pairs implied by the gold labels.
    pub fn true_pairs(&self) -> u64 {
        let mut counts = std::collections::HashMap::new();
        for &g in &self.gold {
            *counts.entry(g).or_insert(0u64) += 1;
        }
        counts.values().map(|&c| c * c.saturating_sub(1) / 2).sum()
    }

    /// Fraction of records belonging to a multi-record entity — the
    /// "fraction of duplicate tuples" the SN-threshold heuristic asks for.
    pub fn duplicate_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let mut counts = std::collections::HashMap::new();
        for &g in &self.gold {
            *counts.entry(g).or_insert(0u64) += 1;
        }
        let dup_records: u64 = self.gold.iter().filter(|g| counts[g] > 1).count() as u64;
        dup_records as f64 / self.records.len() as f64
    }
}

/// How hard the injected errors are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorIntensity {
    /// 1 perturbation per duplicate.
    Light,
    /// 1–2 perturbations.
    Medium,
    /// 3–4 perturbations (stress test).
    Heavy,
}

impl ErrorIntensity {
    /// Sample the number of perturbations to apply.
    pub fn num_edits<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match self {
            ErrorIntensity::Light => 1,
            ErrorIntensity::Medium => 1 + usize::from(rng.gen_bool(0.5)),
            ErrorIntensity::Heavy => 3 + usize::from(rng.gen_bool(0.5)),
        }
    }
}

/// Size/shape parameters for a generated dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Number of distinct base entities.
    pub n_entities: usize,
    /// Fraction of entities that receive at least one duplicate.
    pub dup_entity_fraction: f64,
    /// Probability that a duplicated entity receives yet another duplicate
    /// (geometric tail: most groups end up of size 2–3, matching the
    /// paper's "most groups of duplicates in practice are very small").
    pub extra_dup_prob: f64,
    /// Maximum group size.
    pub max_group: usize,
    /// Error intensity for duplicates.
    pub intensity: ErrorIntensity,
    /// Fraction of the *final* dataset consisting of **exact** re-emissions
    /// of already-generated records (default 0, i.e. off). `0.5` means half
    /// the output rows are bytewise copies of the other half — the
    /// duplicate-heavy ingest shape the exact-duplicate collapse pre-pass
    /// targets (DESIGN.md §7.10). Exact copies carry their source's gold
    /// label. Clamped below 1.
    pub dup_rate: f64,
}

impl DatasetSpec {
    /// ≈ 500 entities — Riddle-scale (Restaurants has 864 records).
    pub fn small() -> Self {
        Self {
            n_entities: 400,
            dup_entity_fraction: 0.20,
            extra_dup_prob: 0.3,
            max_group: 4,
            intensity: ErrorIntensity::Medium,
            dup_rate: 0.0,
        }
    }

    /// ≈ 2000 entities — enough for stable precision/recall curves.
    pub fn medium() -> Self {
        Self {
            n_entities: 1500,
            dup_entity_fraction: 0.20,
            extra_dup_prob: 0.3,
            max_group: 4,
            intensity: ErrorIntensity::Medium,
            dup_rate: 0.0,
        }
    }

    /// Custom entity count, keeping the standard shape.
    pub fn with_entities(n_entities: usize) -> Self {
        Self { n_entities, ..Self::small() }
    }

    /// Override the duplicated-entity fraction.
    pub fn dup_fraction(mut self, f: f64) -> Self {
        self.dup_entity_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Override the error intensity.
    pub fn intensity(mut self, intensity: ErrorIntensity) -> Self {
        self.intensity = intensity;
        self
    }

    /// Override the exact-duplicate rate (see [`Self::dup_rate`]).
    pub fn dup_rate(mut self, rate: f64) -> Self {
        self.dup_rate = rate.clamp(0.0, 0.95);
        self
    }

    /// Sample the total group size for a duplicated entity (≥ 2).
    fn sample_group_size<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut size = 2;
        while size < self.max_group && rng.gen_bool(self.extra_dup_prob) {
            size += 1;
        }
        size
    }
}

/// Shared generation skeleton: take base records (one per entity), decide
/// which entities get duplicates, apply `perturb` per extra copy, shuffle
/// deterministically, and label.
pub fn assemble_dataset(
    name: &str,
    attributes: &[&str],
    base_records: Vec<Vec<String>>,
    spec: DatasetSpec,
    rng: &mut impl Rng,
    mut perturb: impl FnMut(&mut dyn rand::RngCore, &[String]) -> Vec<String>,
) -> Dataset {
    let mut records: Vec<(usize, Vec<String>)> = Vec::new();
    for (entity, base) in base_records.into_iter().enumerate() {
        let group_size =
            if rng.gen_bool(spec.dup_entity_fraction) { spec.sample_group_size(rng) } else { 1 };
        for _ in 1..group_size {
            records.push((entity, perturb(rng, &base)));
        }
        records.push((entity, base));
    }
    // Exact-duplicate injection: re-emit already-generated rows verbatim
    // until copies make up `dup_rate` of the final dataset. Sampling from
    // the growing vector lets heavy classes form (a copy can itself be
    // copied). Gated so `dup_rate == 0` draws nothing and existing seeds
    // reproduce bit-identically.
    if spec.dup_rate > 0.0 && !records.is_empty() {
        let rate = spec.dup_rate.min(0.95);
        let extra = (rate / (1.0 - rate) * records.len() as f64).round() as usize;
        for _ in 0..extra {
            let source = records[rng.gen_range(0..records.len())].clone();
            records.push(source);
        }
    }
    // Deterministic shuffle so duplicates are not adjacent by construction.
    for i in (1..records.len()).rev() {
        let j = rng.gen_range(0..=i);
        records.swap(i, j);
    }
    let gold = records.iter().map(|(e, _)| *e).collect();
    let recs = records.into_iter().map(|(_, r)| r).collect();
    Dataset::new(name, attributes.iter().map(|s| s.to_string()).collect(), recs, gold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dataset_invariants() {
        let d = Dataset::new(
            "t",
            vec!["a".into()],
            vec![vec!["x".into()], vec!["y".into()], vec!["x2".into()]],
            vec![0, 1, 0],
        );
        assert_eq!(d.len(), 3);
        assert_eq!(d.true_pairs(), 1);
        assert!((d.duplicate_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gold must cover")]
    fn mismatched_gold_panics() {
        Dataset::new("t", vec!["a".into()], vec![vec!["x".into()]], vec![]);
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn wrong_arity_panics() {
        Dataset::new("t", vec!["a".into(), "b".into()], vec![vec!["x".into()]], vec![0]);
    }

    #[test]
    fn group_sizes_bounded() {
        let spec = DatasetSpec::small();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let s = spec.sample_group_size(&mut rng);
            assert!((2..=spec.max_group).contains(&s));
        }
    }

    #[test]
    fn assemble_produces_expected_dup_fraction() {
        let spec = DatasetSpec::with_entities(1000);
        let mut rng = StdRng::seed_from_u64(5);
        let base: Vec<Vec<String>> = (0..1000).map(|i| vec![format!("entity {i}")]).collect();
        let d = assemble_dataset("t", &["name"], base, spec, &mut rng, |_, b| b.to_vec());
        // ~20% of entities duplicated; duplicate-record fraction is a bit
        // higher than the entity fraction (each group has ≥ 2 records).
        let f = d.duplicate_fraction();
        assert!((0.25..0.45).contains(&f), "duplicate fraction {f}");
        assert!(d.len() >= 1000);
        assert!(d.true_pairs() > 100);
    }

    #[test]
    fn dup_rate_injects_exact_copies() {
        // No perturbed groups (identity perturb would blur the count):
        // every exact copy comes from the injection pass.
        let spec = DatasetSpec::with_entities(500).dup_fraction(0.0).dup_rate(0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let base: Vec<Vec<String>> = (0..500).map(|i| vec![format!("entity {i}")]).collect();
        let d = assemble_dataset("t", &["name"], base, spec, &mut rng, |_, b| b.to_vec());
        // Exactly-equal record share ≈ dup_rate: count records whose field
        // vector occurs more than once.
        let mut counts = std::collections::HashMap::new();
        for r in &d.records {
            *counts.entry(r.clone()).or_insert(0usize) += 1;
        }
        let n_unique = counts.len();
        let copies = d.len() - n_unique;
        let share = copies as f64 / d.len() as f64;
        assert!((0.40..=0.60).contains(&share), "exact-copy share {share}");
        // Copies carry their source's gold label: every exact-equal pair
        // is also a gold duplicate pair, so per record-content the gold
        // label set is a singleton... except perturb here is the identity,
        // so just check gold is consistent within equal contents.
        let mut label_of = std::collections::HashMap::new();
        for (r, &g) in d.records.iter().zip(&d.gold) {
            assert_eq!(*label_of.entry(r.clone()).or_insert(g), g, "copy changed gold label");
        }
    }

    #[test]
    fn dup_rate_zero_is_bit_identical_to_before() {
        let base = || -> Vec<Vec<String>> { (0..200).map(|i| vec![format!("e {i}")]).collect() };
        let spec = DatasetSpec::with_entities(200);
        let mut rng_a = StdRng::seed_from_u64(11);
        let a = assemble_dataset("t", &["name"], base(), spec, &mut rng_a, |_, b| b.to_vec());
        let mut rng_b = StdRng::seed_from_u64(11);
        let b = assemble_dataset("t", &["name"], base(), spec.dup_rate(0.0), &mut rng_b, |_, b| {
            b.to_vec()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn intensity_edit_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ErrorIntensity::Light.num_edits(&mut rng), 1);
        for _ in 0..20 {
            let n = ErrorIntensity::Medium.num_edits(&mut rng);
            assert!((1..=2).contains(&n));
        }
        for _ in 0..20 {
            let n = ErrorIntensity::Heavy.num_edits(&mut rng);
            assert!((3..=4).contains(&n));
        }
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new("e", vec!["a".into()], vec![], vec![]);
        assert!(d.is_empty());
        assert_eq!(d.true_pairs(), 0);
        assert_eq!(d.duplicate_fraction(), 0.0);
    }
}
