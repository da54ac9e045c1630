//! Extraction scaling benches (§7.1): per-document annotation throughput
//! and sharded-runner scaling, the reproduction's stand-in for the
//! paper's "one hour on 5000 nodes for 40 TB".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use surveyor::extract::{extract_documents, run_sharded_full, ExtractionConfig};
use surveyor::nlp::{annotate, AnnotatedDocument, Lexicon};
use surveyor::prelude::*;
use surveyor::CorpusSource;
use surveyor_corpus::presets;

fn corpus_fixture() -> (CorpusGenerator, Lexicon, Vec<AnnotatedDocument>) {
    let world = presets::table2_world(5);
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: 4,
            ..CorpusConfig::default()
        },
    );
    let lexicon = generator.lexicon();
    let docs = generator.shard_annotated(0, &lexicon, None);
    (generator, lexicon, docs)
}

/// Raw NLP annotation throughput (tokenize + tag + parse + link).
fn bench_annotation(c: &mut Criterion) {
    let (generator, lexicon, _) = corpus_fixture();
    let raw: Vec<String> = generator
        .shard_text(0)
        .into_iter()
        .map(|d| d.text)
        .take(500)
        .collect();
    let kb = generator.world().kb().clone();
    let mut group = c.benchmark_group("annotation");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(raw.len() as u64));
    group.bench_function("annotate_500_docs", |b| {
        b.iter(|| {
            raw.iter()
                .enumerate()
                .map(|(i, text)| {
                    annotate(i as u64, black_box(text), &kb, &lexicon)
                        .sentences
                        .len()
                })
                .sum::<usize>()
        });
    });
    group.finish();
}

/// Pattern matching over pre-annotated documents (the map phase minus
/// parsing).
fn bench_pattern_extraction(c: &mut Criterion) {
    let (generator, _, docs) = corpus_fixture();
    let kb = generator.world().kb().clone();
    let config = ExtractionConfig::paper_final();
    let mut group = c.benchmark_group("pattern_extraction");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.bench_function("extract_shard", |b| {
        b.iter(|| extract_documents(black_box(&docs), &kb, &config));
    });
    group.finish();
}

/// The full sharded runner (generation + annotation + extraction + merge)
/// across worker counts.
fn bench_sharded_runner(c: &mut Criterion) {
    let world = presets::table2_world(5);
    let generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards: 8,
            ..CorpusConfig::default()
        },
    );
    let mut group = c.benchmark_group("sharded_runner");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let source = CorpusSource::new(&generator);
                    run_sharded_full(
                        &source,
                        world.kb(),
                        &ExtractionConfig::paper_final(),
                        threads,
                    )
                    .evidence
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_annotation,
    bench_pattern_extraction,
    bench_sharded_runner
);
criterion_main!(benches);
