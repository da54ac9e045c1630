//! Figure 9 bench: snapshot-statistics computation (percentiles over
//! entities, combinations, and types) and evidence grouping.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use surveyor::extract::{run_sharded_full, EvidenceTable, ExtractionConfig, GroupedEvidence};
use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_corpus::presets;
use surveyor_eval::snapshot_stats::snapshot_stats;

fn evidence_fixture() -> (EvidenceTable, surveyor_corpus::World) {
    let world = presets::long_tail_world(25, 80, 6, 5);
    let generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards: 4,
            ..CorpusConfig::default()
        },
    );
    let source = CorpusSource::new(&generator);
    let evidence =
        run_sharded_full(&source, world.kb(), &ExtractionConfig::paper_final(), 2).evidence;
    (evidence, world)
}

fn bench_snapshot_stats(c: &mut Criterion) {
    let (evidence, world) = evidence_fixture();
    let mut group = c.benchmark_group("fig9");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("snapshot_stats", |b| {
        b.iter(|| snapshot_stats(black_box(&evidence), world.kb(), 25));
    });
    group.bench_function("group_by_type_property", |b| {
        b.iter(|| GroupedEvidence::from_table(black_box(&evidence), world.kb()));
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot_stats);
criterion_main!(benches);
