//! The four workloads: which corpus each one generates from the seed, and
//! the configuration it runs under. Why each exists is in `README.md`.

use std::path::Path;
use std::sync::Arc;

use fuzzydedup_core::{Aggregation, CollapseKey, CutSpec, DedupConfig, IndexChoice, Parallelism};
use fuzzydedup_datagen::{org, restaurants, DatasetSpec};
use fuzzydedup_nnindex::{InvertedIndexConfig, PostingsSource};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, FileDisk, InMemoryDisk};
use fuzzydedup_textdist::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker threads of every parallel stage: the machine the benchmark was
/// defined on has two cores, and a run keeps at most two threads busy.
pub const THREADS: usize = 2;

/// Records held by the quiet service that the batch workloads send their
/// point queries to.
pub const QUERY_CORPUS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OrgEdTopk,
    RestFmsPages,
    OrgDupCollapseSpill,
    ServiceReplay,
}

pub const ALL: [Workload; 4] = [
    Workload::OrgEdTopk,
    Workload::RestFmsPages,
    Workload::OrgDupCollapseSpill,
    Workload::ServiceReplay,
];

/// A generated corpus: the CSV header, the records, and the generator's
/// entity label per record.
pub struct Corpus {
    pub header: Vec<String>,
    pub records: Vec<Vec<String>>,
    pub gold: Vec<usize>,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrgEdTopk => "org_ed_topk",
            Workload::RestFmsPages => "rest_fms_pages",
            Workload::OrgDupCollapseSpill => "org_dup_collapse_spill",
            Workload::ServiceReplay => "service_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Records at full size.
    fn full_records(self) -> usize {
        match self {
            Workload::OrgEdTopk => 4_000,
            Workload::RestFmsPages => 3_000,
            Workload::OrgDupCollapseSpill => 8_000,
            Workload::ServiceReplay => 385,
        }
    }

    /// Generate the corpus from the seed, at `scale` of full size. The
    /// generators emit about 1.22 records per entity, so the entity count
    /// is inflated and the shuffled output truncated to the exact size.
    pub fn corpus(self, seed: u64, scale: f64) -> Corpus {
        let records = ((self.full_records() as f64 * scale) as usize).max(40);
        let mut rng = StdRng::seed_from_u64(seed);
        let spec =
            |entities: usize| DatasetSpec { n_entities: entities.max(1), ..DatasetSpec::medium() };
        let dataset = match self {
            Workload::OrgEdTopk | Workload::ServiceReplay => {
                org::generate(&mut rng, spec(records * 82 / 100))
            }
            Workload::RestFmsPages => restaurants::generate(&mut rng, spec(records * 82 / 100)),
            // Half the rows are exact copies, so half as many entities.
            Workload::OrgDupCollapseSpill => {
                org::generate(&mut rng, spec(records * 41 / 100).dup_rate(0.5))
            }
        };
        let keep = records.min(dataset.records.len());
        let mut corpus =
            Corpus { header: dataset.attributes, records: dataset.records, gold: dataset.gold };
        corpus.records.truncate(keep);
        corpus.gold.truncate(keep);
        corpus
    }

    pub fn distance(self) -> DistanceKind {
        match self {
            Workload::RestFmsPages => DistanceKind::FuzzyMatch,
            _ => DistanceKind::EditDistance,
        }
    }

    pub fn cut(self) -> CutSpec {
        match self {
            Workload::OrgEdTopk => CutSpec::Size(5),
            Workload::RestFmsPages => CutSpec::Diameter(0.3),
            Workload::OrgDupCollapseSpill => CutSpec::Diameter(0.15),
            Workload::ServiceReplay => CutSpec::Size(4),
        }
    }

    pub fn collapse(self) -> Option<CollapseKey> {
        (self == Workload::OrgDupCollapseSpill).then_some(CollapseKey::RecordString)
    }

    /// Index configuration of the batch workloads.
    pub fn index_config(self) -> InvertedIndexConfig {
        match self {
            Workload::RestFmsPages => InvertedIndexConfig {
                postings_source: PostingsSource::Pages,
                ..InvertedIndexConfig::default()
            },
            _ => InvertedIndexConfig::default(),
        }
    }

    /// Buffer-pool frames of the batch workloads. `rest_fms_pages` reads
    /// its postings (56 pages at full size) through a pool of under half
    /// as many frames.
    pub fn pool_frames(self) -> usize {
        match self {
            Workload::RestFmsPages => 16,
            Workload::OrgDupCollapseSpill => 512,
            _ => 4096,
        }
    }

    /// The facade configuration of a batch workload.
    pub fn dedup_config(self) -> DedupConfig {
        let base = DedupConfig::new(self.distance())
            .cut(self.cut())
            .aggregation(Aggregation::Max)
            .sn_threshold(4.0)
            .growth_multiplier(2.0)
            .index_choice(IndexChoice::Inverted(self.index_config()))
            .buffer_frames(self.pool_frames())
            .collapse(self.collapse())
            .parallelism(Parallelism::threads(THREADS));
        match self {
            Workload::RestFmsPages => base.via_tables(true).minimality(true),
            Workload::OrgDupCollapseSpill => base.spill_threshold(1),
            _ => base,
        }
    }

    /// A fresh buffer pool for one run. `org_dup_collapse_spill` backs it
    /// with a real file at `db_path`, which the caller removes.
    pub fn make_pool(self, db_path: &Path) -> Arc<BufferPool> {
        let config = BufferPoolConfig::with_capacity(self.pool_frames());
        match self {
            Workload::OrgDupCollapseSpill => {
                let disk = FileDisk::create(db_path).expect("create the pool's database file");
                Arc::new(BufferPool::new(config, Arc::new(disk)))
            }
            _ => Arc::new(BufferPool::new(config, Arc::new(InMemoryDisk::new()))),
        }
    }

    /// The cuts of the retune grid: the workload's own cut and tighter
    /// ones, which the run's materialized `NN_Reln` already answers.
    pub fn retune_cuts(self) -> Vec<CutSpec> {
        match self.cut() {
            CutSpec::Size(k) => (2..=k).rev().map(CutSpec::Size).collect(),
            CutSpec::Diameter(theta) => {
                [1.0, 0.85, 0.7, 0.5].iter().map(|f| CutSpec::Diameter(theta * f)).collect()
            }
            other => vec![other],
        }
    }
}
