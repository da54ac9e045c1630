//! Command implementations.

use crate::args::{DiffFormat, MineArgs, UpdateArgs};
use crate::error::CliError;
use std::sync::Arc;
use surveyor::obs::MetricsRegistry;
use surveyor::prelude::*;
use surveyor::wire::{Fnv64, IncrementalState};
use surveyor::{link_objective, LinkDirection, SubjectiveKb, WarmStart};
use surveyor_corpus::{presets, World};

/// Builds a preset world by name.
fn preset_world(preset: &str, seed: u64) -> Result<World, CliError> {
    match preset {
        "table2" => Ok(presets::table2_world(seed)),
        "cities" => Ok(presets::big_cities_world(seed)),
        "longtail" => Ok(presets::long_tail_world(40, 120, 8, seed)),
        other => Err(CliError::Usage(format!(
            "unknown preset: {other} (expected table2, cities, or longtail)"
        ))),
    }
}

/// The fault plan in effect over a world of `shard_count` shards: seeded
/// by the `--chaos-seed` flag, and empty without it. The plan always
/// spans the FULL world, so world shard `s` fails identically whether it
/// is reached by a base mine, a delta update, or a replay.
fn chaos_plan(seed: Option<u64>, shard_count: usize) -> FaultPlan {
    seed.map_or_else(FaultPlan::none, |seed| {
        FaultPlan::from_seed(seed, shard_count)
    })
}

/// Digest identifying the corpus a snapshot was mined from: the preset
/// world, master seed, total shard count (shard contents depend on it),
/// and the region restriction. `surveyor update` refuses a delta whose
/// digest disagrees with the base snapshot's.
fn corpus_digest(preset: &str, seed: u64, shards: usize, region: Option<&str>) -> u64 {
    let mut h = Fnv64::new();
    h.write(preset.as_bytes());
    h.write_u64(seed);
    h.write_u64(shards as u64);
    h.write(region.unwrap_or("").as_bytes());
    h.finish()
}

/// Replaces the file at `path` with what `write` puts into a fresh
/// sibling `<path>.tmp.<pid>`: written, `sync_all`ed, then renamed over
/// `path`, with a best-effort fsync of the directory behind it. A reader
/// — a server reloading `path`, an `update` whose `--out` is its own
/// input — sees the old bytes or the new, never a prefix; a failure at
/// any step leaves `path` as it was and removes the temporary file.
fn replace_file(
    path: &str,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp.{}", std::process::id());
    let replaced = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            write(&mut file)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = replaced {
        let _ = std::fs::remove_file(&tmp);
        return Err(CliError::Io(format!("cannot write {path}: {e}")));
    }
    // The rename is durable once the directory is; not every filesystem
    // lets a directory be opened and synced, and the data is safe either
    // way.
    let parent = match std::path::Path::new(path).parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => std::path::Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Writes snapshot bytes to `path` atomically ([`replace_file`]).
fn write_snapshot(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    use std::io::Write as _;
    replace_file(path, |file| file.write_all(bytes))
}

fn mine_store(
    args: &MineArgs,
    observer: Option<Arc<MetricsRegistry>>,
) -> Result<(SubjectiveKb, SurveyorRun, Arc<KnowledgeBase>, World), CliError> {
    let world = preset_world(&args.preset, args.seed)?;
    let kb = world.kb().clone();
    let mut generator = CorpusGenerator::new(
        world.clone(),
        CorpusConfig {
            num_shards: args.shards,
            ..CorpusConfig::default()
        },
    );
    let mut surveyor = Surveyor::new(
        kb.clone(),
        SurveyorConfig {
            rho: args.rho,
            ..SurveyorConfig::default()
        },
    );
    if let Some(obs) = observer {
        generator = generator.with_observer(obs.clone());
        surveyor = surveyor.with_observer(obs);
    }
    let source = match &args.region {
        Some(region) => CorpusSource::try_for_region(&generator, region)
            .map_err(|e| CliError::Usage(e.to_string()))?,
        None => CorpusSource::new(&generator),
    };
    // With `--ingest-shards M` only the prefix `[0, M)` of the world is
    // mined; without it the subset is the whole world, numbered as the
    // world numbers it. With no chaos seed the injector injects nothing.
    let shard_count = generator.shard_count();
    let plan = chaos_plan(args.chaos_seed, shard_count);
    let subset = ShardSubset::range(
        FaultInjector::new(source, plan),
        0,
        args.ingest_shards.unwrap_or(shard_count),
    );
    let run = surveyor.try_run(&subset, &RetryPolicy::default(), &args.failure_policy)?;
    let store = SubjectiveKb::from_output(&run.output, &kb);
    Ok((store, run, kb, world))
}

/// `surveyor mine` / `surveyor run`
pub fn mine(args: &MineArgs) -> Result<String, CliError> {
    let registry = args
        .report
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let (store, run, _, _) = mine_store(args, registry.clone())?;
    let json = store.to_json();
    let mut summary = format!(
        "mined {} statements into {} associations over {} combinations (rho = {})",
        run.output.evidence.total_statements(),
        store.len(),
        store.combinations().len(),
        args.rho,
    );
    let coverage = &run.coverage;
    if coverage.succeeded < coverage.shard_count || coverage.retries > 0 {
        summary.push_str(&format!(
            "\nshard coverage {:.3} ({}/{}); retries {}; quarantined {:?}",
            coverage.fraction(),
            coverage.succeeded,
            coverage.shard_count,
            coverage.retries,
            coverage.quarantined_shards(),
        ));
    }
    if let (Some(dest), Some(registry)) = (args.report.as_deref(), &registry) {
        let run_report = registry.report();
        if dest == "-" {
            summary = format!("{}\n{summary}", run_report.render());
        } else {
            std::fs::write(dest, run_report.to_json())
                .map_err(|e| CliError::Io(format!("cannot write {dest}: {e}")))?;
            summary.push_str(&format!("\nwrote run report to {dest}"));
        }
    }
    match args.out.as_deref() {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!("{summary}\nwrote {path}"))
        }
        None => Ok(format!("{summary}\n{json}")),
    }
}

/// `surveyor snapshot` — mine a preset and save the whole mined world
/// as a binary `surveyor-wire` snapshot (see FORMAT.md).
pub fn snapshot(args: &MineArgs, out: &str, store: Option<&str>) -> Result<String, CliError> {
    let (store_kb, run, _, _) = mine_store(args, None)?;
    let bytes = match args.ingest_shards {
        Some(m) => {
            // Record incremental state so `surveyor update` can extend
            // this snapshot: which shards made it in, and which were
            // quarantined and await replay.
            let quarantined = run.coverage.quarantined_shards();
            let mut state = IncrementalState {
                rho: args.rho,
                config_digest: SurveyorConfig {
                    rho: args.rho,
                    ..SurveyorConfig::default()
                }
                .digest(),
                corpus_digest: corpus_digest(
                    &args.preset,
                    args.seed,
                    args.shards,
                    args.region.as_deref(),
                ),
                ingested: Vec::new(),
                pending: quarantined.iter().map(|&s| s as u64).collect(),
            };
            state.pending.sort_unstable();
            for shard in 0..m {
                if !quarantined.contains(&shard) {
                    state.ingest_range(shard as u64, shard as u64 + 1);
                }
            }
            surveyor::save_snapshot_with_state(&run.output, &state)
        }
        None => surveyor::save_snapshot(&run.output),
    };
    write_snapshot(out, &bytes)?;
    let mut summary = format!(
        "snapshotted {} statements over {} combinations into {} bytes at {out}",
        run.output.evidence.total_statements(),
        run.output.results.len(),
        bytes.len(),
    );
    if let Some(m) = args.ingest_shards {
        summary.push_str(&format!(
            "\nincremental state: ingested shards [0, {m}) of {}, {} pending replay",
            args.shards,
            run.coverage.quarantined_shards().len(),
        ));
    }
    if let Some(path) = store {
        std::fs::write(path, store_kb.to_json())
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        summary.push_str(&format!("\nwrote store JSON to {path}"));
    }
    Ok(summary)
}

/// `surveyor update` — ingest a delta corpus into an existing snapshot:
/// extract only the requested shards (the delta range plus any shards
/// quarantined by earlier runs), merge the evidence, and re-decide only
/// the groups the delta touched. The written snapshot is byte-identical
/// to mining the concatenated corpus from scratch.
pub fn update(args: &UpdateArgs) -> Result<String, CliError> {
    let bytes = std::fs::read(&args.snapshot)
        .map_err(|e| CliError::Io(format!("cannot read {}: {e}", args.snapshot)))?;
    let (base, state) = surveyor::load_snapshot_with_state(&bytes)
        .map_err(|e| CliError::InvalidInput(format!("invalid snapshot {}: {e}", args.snapshot)))?;
    let mut state = state.ok_or_else(|| {
        CliError::InvalidInput(format!(
            "snapshot {} carries no incremental state; re-mine it with `surveyor snapshot \
             --ingest-shards` to make it updatable",
            args.snapshot
        ))
    })?;

    let preset = presets::delta_preset(&args.delta_preset).ok_or_else(|| {
        let known: Vec<&str> = presets::DELTA_PRESETS.iter().map(|p| p.name).collect();
        CliError::Usage(format!(
            "unknown delta preset: {} (expected one of: {})",
            args.delta_preset,
            known.join(", ")
        ))
    })?;

    // The update must run under the same mining configuration and over
    // the same corpus the base snapshot came from, or carried-forward
    // groups would be silently wrong.
    let config = SurveyorConfig {
        rho: state.rho,
        ..SurveyorConfig::default()
    };
    if config.digest() != state.config_digest {
        return Err(CliError::InvalidInput(format!(
            "snapshot {} was mined under a different configuration (digest {:#018x}, \
             this binary computes {:#018x})",
            args.snapshot,
            state.config_digest,
            config.digest(),
        )));
    }
    let digest = corpus_digest(
        preset.world,
        args.seed,
        preset.num_shards,
        args.region.as_deref(),
    );
    if state.corpus_digest != 0 && state.corpus_digest != digest {
        return Err(CliError::InvalidInput(format!(
            "delta preset {} (world {}, seed {}, {} shards{}) is not the corpus snapshot {} \
             was mined from",
            preset.name,
            preset.world,
            args.seed,
            preset.num_shards,
            args.region
                .as_deref()
                .map(|r| format!(", region {r}"))
                .unwrap_or_default(),
            args.snapshot,
        )));
    }

    // Requested shards: the delta range plus the replay queue, minus
    // anything already ingested.
    let mut requested: Vec<u64> = state.pending.clone();
    for shard in preset.delta_range() {
        let shard = shard as u64;
        if !state.contains(shard) && !requested.contains(&shard) {
            requested.push(shard);
        }
    }
    requested.sort_unstable();
    if let Some(&out_of_range) = requested.iter().find(|&&s| s >= preset.num_shards as u64) {
        return Err(CliError::InvalidInput(format!(
            "snapshot {} queues shard {out_of_range} for replay, but delta preset {} only \
             has {} shards",
            args.snapshot, preset.name, preset.num_shards,
        )));
    }
    if requested.is_empty() {
        // Nothing new and nothing pending: re-save unchanged (the write
        // is byte-identical to the input, so `update` is idempotent).
        let bytes = surveyor::save_snapshot_with_state(&base, &state);
        write_snapshot(&args.out, &bytes)?;
        return Ok(format!(
            "nothing to ingest: delta preset {} is fully covered by {} (wrote {} unchanged)",
            preset.name, args.snapshot, args.out,
        ));
    }

    let world = preset_world(preset.world, args.seed)?;
    let kb = world.kb().clone();
    let generator = CorpusGenerator::new(
        world,
        CorpusConfig {
            num_shards: preset.num_shards,
            ..CorpusConfig::default()
        },
    );
    let surveyor = Surveyor::new(kb, config);
    let source = match &args.region {
        Some(region) => CorpusSource::try_for_region(&generator, region)
            .map_err(|e| CliError::Usage(e.to_string()))?,
        None => CorpusSource::new(&generator),
    };
    let shard_list: Vec<usize> = requested.iter().map(|&s| s as usize).collect();
    let plan = chaos_plan(args.chaos_seed, generator.shard_count());
    let subset = ShardSubset::new(FaultInjector::new(source, plan), shard_list.clone());
    let outcome = surveyor.try_update(
        base,
        &subset,
        &RetryPolicy::default(),
        &args.failure_policy,
        WarmStart::Exact,
    )?;

    // Fold the run back into the state: quarantined shards (reported in
    // subset-local indexes) stay pending; everything else is ingested.
    let quarantined_world: Vec<u64> = outcome
        .coverage
        .quarantined_shards()
        .iter()
        .map(|&i| shard_list[i] as u64)
        .collect();
    for &shard in &requested {
        if !quarantined_world.contains(&shard) {
            state.ingest_range(shard, shard + 1);
        }
    }
    state.pending = quarantined_world;
    state.pending.sort_unstable();

    let bytes = surveyor::save_snapshot_with_state(&outcome.output, &state);
    write_snapshot(&args.out, &bytes)?;

    let stats = outcome.stats;
    let mut summary = format!(
        "updated {} -> {}: ingested {} of {} requested shards \
         ({} new statements over {} pairs)\n\
         modeled groups: {} total = {} carried forward + {} refit \
         ({} combinations touched by the delta, modeled or not)",
        args.snapshot,
        args.out,
        outcome.coverage.succeeded,
        requested.len(),
        stats.delta_statements,
        stats.delta_pairs,
        stats.groups_total,
        stats.groups_carried,
        stats.groups_refit,
        stats.groups_dirty,
    );
    if !state.pending.is_empty() || outcome.coverage.retries > 0 {
        summary.push_str(&format!(
            "\nshard coverage {:.3} ({}/{}); retries {}; pending replay {:?}",
            outcome.coverage.fraction(),
            outcome.coverage.succeeded,
            outcome.coverage.shard_count,
            outcome.coverage.retries,
            state.pending,
        ));
    }
    Ok(summary)
}

/// `surveyor load` — decode a binary snapshot into the store the query
/// server would serve from it and emit the store JSON, without re-mining.
/// Corrupt snapshots are [`CliError::InvalidInput`] (exit 3), never a
/// panic.
pub fn load(snapshot_path: &str, out: Option<&str>) -> Result<String, CliError> {
    let (store, bytes) = load_store(snapshot_path)?;
    let json = store.to_json();
    // `load_store` accepted the container, so the reader does too.
    let sections = surveyor_wire::SnapshotReader::new(&bytes)
        .map(|reader| reader.section_sizes())
        .unwrap_or_default();
    let sections: Vec<String> = (sections.iter())
        .map(|(tag, len)| format!("{tag} {len}"))
        .collect();
    let summary = format!(
        "loaded {} associations over {} combinations from {snapshot_path} (store_bytes {})\n\
         {} bytes by section: {}",
        store.len(),
        store.combinations().len(),
        store.resident_bytes(),
        bytes.len(),
        sections.join(", "),
    );
    match out {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!("{summary}\nwrote {path}"))
        }
        None => Ok(format!("{summary}\n{json}")),
    }
}

/// `surveyor serve` — serve a snapshot over HTTP with the fault-hardened
/// query server. Blocks until a client POSTs `/ctl/shutdown`, then
/// drains in-flight requests and returns a traffic summary.
pub fn serve(
    snapshot_path: &str,
    addr: &str,
    workers: usize,
    queue: usize,
    budget_ms: u64,
    debug_routes: bool,
) -> Result<String, CliError> {
    let bytes = std::fs::read(snapshot_path)
        .map_err(|e| CliError::Io(format!("cannot read {snapshot_path}: {e}")))?;
    let state = surveyor_server::ServedState::from_snapshot_bytes(&bytes, 1, snapshot_path)
        .map_err(|e| CliError::InvalidInput(format!("invalid snapshot {snapshot_path}: {e}")))?;
    let associations = state.store.len();
    let registry = Arc::new(MetricsRegistry::new());
    let config = surveyor_server::ServerConfig {
        addr: addr.to_owned(),
        workers,
        queue_capacity: queue,
        request_budget: std::time::Duration::from_millis(budget_ms),
        retry_after_seconds: 1,
        debug_routes,
    };
    let handle = surveyor_server::start(config, Arc::new(state), registry.clone())
        .map_err(|e| CliError::Io(format!("cannot bind {addr}: {e}")))?;
    println!(
        "serving {snapshot_path} ({associations} associations) on http://{}\n\
         endpoints: /decide/{{entity}}/{{property}}  /entity/{{entity}}  /model/{{type}}/{{property}}\n\
         \x20          /evidence/{{entity}}/{{property}}  /healthz  /readyz  /metrics\n\
         POST /ctl/reload?path=FILE to hot-reload, POST /ctl/shutdown to stop",
        handle.addr(),
    );
    handle.join();
    Ok(format!(
        "server stopped: {} requests served, {} shed, {} reloads accepted, {} rejected",
        registry.counter_value("serve.requests"),
        registry.counter_value("serve.shed"),
        registry.counter_value("serve.reload.ok"),
        registry.counter_value("serve.reload.rejected"),
    ))
}

fn read_snapshot_for_diff(path: &str) -> Result<surveyor_wire::Snapshot, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    surveyor_wire::decode(&bytes)
        .map_err(|e| CliError::InvalidInput(format!("invalid snapshot {path}: {e}")))
}

/// How many keys a human-format section lists before eliding.
const DIFF_HUMAN_KEY_CAP: usize = 8;

fn render_key_list(out: &mut String, label: &str, keys: &[String]) {
    if keys.is_empty() {
        return;
    }
    for key in keys.iter().take(DIFF_HUMAN_KEY_CAP) {
        out.push_str(&format!("    {label} {key}\n"));
    }
    if keys.len() > DIFF_HUMAN_KEY_CAP {
        out.push_str(&format!(
            "    {label} … and {} more\n",
            keys.len() - DIFF_HUMAN_KEY_CAP
        ));
    }
}

/// `surveyor diff` — compare two snapshots section by section, with the
/// decisions each one's models imply (`surveyor::diff_snapshots`).
/// Returns the rendered report and whether the snapshots are identical
/// (the CLI exits 1 on differences, like `bench diff`).
pub fn diff(old: &str, new: &str, format: DiffFormat) -> Result<(String, bool), CliError> {
    let snapshot_old = read_snapshot_for_diff(old)?;
    let snapshot_new = read_snapshot_for_diff(new)?;
    let diff = surveyor::diff_snapshots(&snapshot_old, &snapshot_new)
        .map_err(|e| CliError::InvalidInput(format!("cannot compare {old} and {new}: {e}")))?;
    let identical = diff.is_identical();
    let text = match format {
        DiffFormat::Json => {
            let sections: Vec<serde_json::Value> = diff
                .sections
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "section": s.section,
                        "count_old": s.count_a,
                        "count_new": s.count_b,
                        "added": s.added,
                        "removed": s.removed,
                        "changed": s.changed,
                    })
                })
                .collect();
            let value = serde_json::json!({
                "old": old,
                "new": new,
                "identical": identical,
                "sample_size_changed": diff.sample_size_changed,
                "differences": diff.difference_count(),
                "sections": sections,
            });
            serde_json::to_string_pretty(&value)
                .map_err(|e| CliError::InvalidInput(format!("cannot render diff: {e}")))?
        }
        DiffFormat::Human => {
            let mut out = format!("comparing {old} -> {new}\n");
            if diff.sample_size_changed {
                out.push_str("  provenance sample size changed\n");
            }
            for s in &diff.sections {
                let verdict = if s.is_identical() {
                    "identical".to_owned()
                } else {
                    format!(
                        "+{} -{} ~{}",
                        s.added.len(),
                        s.removed.len(),
                        s.changed.len()
                    )
                };
                out.push_str(&format!(
                    "  {:<11} {:>5} -> {:<5} {verdict}\n",
                    s.section, s.count_a, s.count_b
                ));
                render_key_list(&mut out, "+", &s.added);
                render_key_list(&mut out, "-", &s.removed);
                render_key_list(&mut out, "~", &s.changed);
            }
            out.push_str(if identical {
                "snapshots are identical"
            } else {
                "snapshots differ"
            });
            out
        }
    };
    Ok((text, identical))
}

/// The store the query server would serve from the snapshot at `path`
/// (`surveyor::load_store`), with the file's bytes. A missing file is
/// [`CliError::Io`] (exit 1), a corrupt one [`CliError::InvalidInput`]
/// (exit 3).
fn load_store(path: &str) -> Result<(SubjectiveKb, Vec<u8>), CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let store = surveyor::load_store(&bytes)
        .map_err(|e| CliError::InvalidInput(format!("invalid snapshot {path}: {e}")))?;
    Ok((store, bytes))
}

/// `surveyor query`
pub fn query(
    snapshot_path: &str,
    type_name: &str,
    property: &str,
    negative: bool,
    limit: usize,
) -> Result<String, CliError> {
    let (store, _) = load_store(snapshot_path)?;
    let property =
        Property::parse(property).ok_or_else(|| CliError::Usage("empty property".to_owned()))?;
    let hits = if negative {
        store.query_negative(type_name, &property)
    } else {
        store.query(type_name, &property)
    };
    if hits.is_empty() {
        return Ok(format!(
            "no results for \"{property} {type_name}\" (combination not modeled or no {} opinions)",
            if negative { "negative" } else { "positive" },
        ));
    }
    let mut out = format!(
        "{} {} of type `{type_name}` the dominant opinion calls{} `{property}`:\n",
        hits.len().min(limit),
        if hits.len() == 1 {
            "entity"
        } else {
            "entities"
        },
        if negative { " NOT" } else { "" },
    );
    for hit in hits.into_iter().take(limit) {
        let docs = if hit.supporting_documents.is_empty() {
            String::new()
        } else {
            format!(
                "  docs {}",
                hit.supporting_documents
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        out.push_str(&format!(
            "  {:<24} Pr = {:.3}  evidence +{}/-{}{docs}\n",
            hit.entity_name, hit.probability, hit.positive_statements, hit.negative_statements
        ));
    }
    Ok(out)
}

/// `surveyor combos`
pub fn combos(snapshot_path: &str) -> Result<String, CliError> {
    let (store, _) = load_store(snapshot_path)?;
    let mut out = format!("{} combinations:\n", store.combinations().len());
    for block in store.combinations() {
        let positives = block.opinions().filter(|o| o.positive).count();
        out.push_str(&format!(
            "  {:<12} {:<16} pA = {:.2}  np+S = {:>6.1}  np-S = {:>5.1}  ({} entities, {} positive)\n",
            block.type_name,
            block.property.to_string(),
            block.p_agree,
            block.rate_pos,
            block.rate_neg,
            block.len(),
            positives,
        ));
    }
    Ok(out)
}

/// `surveyor corpus`
pub fn corpus(preset: &str, seed: u64, shard: usize, limit: usize) -> Result<String, CliError> {
    let world = preset_world(preset, seed)?;
    let generator = CorpusGenerator::new(world, CorpusConfig::default());
    if shard >= generator.shard_count() {
        return Err(CliError::Usage(format!(
            "shard {shard} out of range (corpus has {} shards)",
            generator.shard_count()
        )));
    }
    let docs = generator.shard_text(shard);
    let mut out = format!(
        "shard {shard} of {} holds {} documents; first {}:\n",
        generator.shard_count(),
        docs.len(),
        limit.min(docs.len()),
    );
    for doc in docs.iter().take(limit) {
        out.push_str(&format!("  [{}] {}\n", doc.id, doc.text));
    }
    Ok(out)
}

/// `surveyor link`
pub fn link(preset: &str, attribute: &str, seed: u64, rho: u64) -> Result<String, CliError> {
    if preset != "cities" {
        return Err(CliError::Usage(
            "`link` currently supports --preset cities (population)".to_owned(),
        ));
    }
    let args = MineArgs {
        seed,
        rho,
        ..MineArgs::new(preset)
    };
    let (_, run, kb, world) = mine_store(&args, None)?;
    let domain = &world.domains()[0];
    let link = link_objective(
        &run.output,
        &kb,
        domain.type_id,
        &domain.property,
        attribute,
        10,
    )
    .ok_or_else(|| {
        CliError::InvalidInput(format!(
            "no {attribute} link found for `{}`",
            domain.property
        ))
    })?;
    Ok(format!(
        "`{} {}` aligns with {attribute} {} {:.0}\n\
         agreement {:.1}% over {} decided entities\n\
         (the paper's section 9: \"a lower bound on the population count of a city\n\
          starting from which an average user would call that city big\")",
        domain.property,
        kb.entity_type(domain.type_id).name(),
        match link.direction {
            LinkDirection::Above => ">=",
            LinkDirection::Below => "<",
        },
        link.threshold,
        link.agreement * 100.0,
        link.samples,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory for one test, named for this process so two
    /// test runs on one host (debug and release, two checkouts) never
    /// write into each other's.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("surveyor-cli-{name}-test-{}", std::process::id()))
    }

    #[test]
    fn unknown_preset_is_an_error() {
        assert!(preset_world("mars", 1).is_err());
        assert!(corpus("mars", 1, 0, 3).is_err());
    }

    #[test]
    fn corpus_prints_documents() {
        let out = corpus("table2", 3, 0, 3).unwrap();
        assert!(out.contains("documents"));
        assert!(out.lines().count() >= 2);
    }

    #[test]
    fn corpus_rejects_out_of_range_shard() {
        assert!(corpus("table2", 3, 99, 3).is_err());
    }

    #[test]
    fn mine_and_query_round_trip() {
        let dir = scratch_dir("round-trip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.swire");
        let path_str = path.to_str().unwrap();

        // Small, fast configuration.
        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 2,
            ..MineArgs::new("cities")
        };
        let summary = snapshot(&args, path_str, None).unwrap();
        assert!(summary.contains("snapshotted"), "{summary}");

        let out = query(path_str, "city", "big", false, 5).unwrap();
        assert!(out.contains("Pr ="), "{out}");
        let neg = query(path_str, "city", "big", true, 5).unwrap();
        assert!(neg.contains("NOT"), "{neg}");
        let listing = combos(path_str).unwrap();
        assert!(listing.contains("pA"), "{listing}");

        // Unknown combination reports cleanly.
        let none = query(path_str, "city", "purple", false, 5).unwrap();
        assert!(none.contains("no results"), "{none}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn link_discovers_population_boundary() {
        let out = link("cities", "population", 5, 40).unwrap();
        assert!(out.contains("population >="), "{out}");
        assert!(out.contains("agreement"), "{out}");
    }

    #[test]
    fn query_missing_store_is_an_error() {
        match query("/nonexistent/world.swire", "city", "big", false, 5) {
            Err(e @ CliError::Io(_)) => assert_eq!(e.exit_code(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let dir = scratch_dir("query-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.swire");
        std::fs::write(&bad, b"not a snapshot").unwrap();
        for result in [
            query(bad.to_str().unwrap(), "city", "big", false, 5),
            combos(bad.to_str().unwrap()),
        ] {
            match result {
                Err(e @ CliError::InvalidInput(_)) => {
                    assert_eq!(e.exit_code(), 3);
                    assert!(e.to_string().contains("invalid snapshot"), "{e}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_writes_a_parseable_run_report() {
        let dir = scratch_dir("report");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let report_str = report_path.to_str().unwrap();

        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 2,
            report: Some(report_str.to_owned()),
            ..MineArgs::new("cities")
        };
        let summary = mine(&args).unwrap();
        assert!(summary.contains("wrote run report"), "{summary}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        let report = surveyor::obs::RunReport::from_json(&json).unwrap();
        assert_eq!(report.version, surveyor::obs::REPORT_VERSION);
        for phase in ["extract", "group", "model", "decide", "index"] {
            assert!(report.phase(phase).is_some(), "report misses {phase}");
        }
        assert!(!report.em_groups.is_empty());
        std::fs::remove_file(report_path).ok();
    }

    #[test]
    fn mine_report_dash_renders_a_table() {
        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 2,
            report: Some("-".to_owned()),
            ..MineArgs::new("cities")
        };
        let out = mine(&args).unwrap();
        assert!(out.contains("phase"), "{out}");
        assert!(out.contains("extract"), "{out}");
        assert!(out.contains("EM convergence"), "{out}");
    }

    #[test]
    fn mine_unknown_region_is_a_usage_error_listing_known_regions() {
        let args = MineArgs {
            region: Some("atlantis".to_owned()),
            ..MineArgs::new("table2")
        };
        match mine(&args) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("unknown region: atlantis"), "{msg}");
                assert!(msg.contains("known regions:"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_then_load_reproduces_the_mined_store() {
        let dir = scratch_dir("snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("world.swire");
        let mined = dir.join("mined.json");
        let loaded = dir.join("loaded.json");

        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 2,
            ..MineArgs::new("cities")
        };
        let summary =
            snapshot(&args, snap.to_str().unwrap(), Some(mined.to_str().unwrap())).unwrap();
        assert!(summary.contains("snapshotted"), "{summary}");
        assert!(summary.contains("wrote store JSON"), "{summary}");

        let summary = load(snap.to_str().unwrap(), Some(loaded.to_str().unwrap())).unwrap();
        assert!(summary.contains("loaded"), "{summary}");

        // The loaded store is byte-identical JSON to the mined one.
        let mined_json = std::fs::read_to_string(&mined).unwrap();
        let loaded_json = std::fs::read_to_string(&loaded).unwrap();
        assert_eq!(mined_json, loaded_json);

        // Querying the snapshot reads the store `load` wrote.
        let out = query(snap.to_str().unwrap(), "city", "big", false, 5).unwrap();
        assert!(out.contains("Pr ="), "{out}");

        for path in [snap, mined, loaded] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn corrupt_snapshots_are_invalid_input_with_exit_3() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("world.swire");
        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 2,
            ..MineArgs::new("cities")
        };
        snapshot(&args, snap.to_str().unwrap(), None).unwrap();
        let good = std::fs::read(&snap).unwrap();

        // Each corruption is a typed error surfaced as InvalidInput
        // (exit 3) — never a panic.
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("bad magic", {
                let mut b = good.clone();
                b[0] ^= 0xff;
                b
            }),
            ("unsupported version", {
                let mut b = good.clone();
                b[8] = 0xff;
                b
            }),
            ("truncated", good[..good.len() / 2].to_vec()),
            ("crc mismatch", {
                let mut b = good.clone();
                let last = b.len() - 1;
                b[last] ^= 0xff;
                b
            }),
            // Sound frames, inconsistent content: two types whose names
            // are one name once lowercased, which the knowledge-base
            // builder refuses with a panic if it is ever asked.
            ("duplicate type name", {
                let mut snapshot = surveyor_wire::decode(&good).unwrap();
                let mut twin = snapshot.types[0].clone();
                twin.name = twin.name.to_uppercase();
                snapshot.types.push(twin);
                surveyor_wire::encode(&snapshot)
            }),
        ];
        let bad_path = dir.join("bad.swire");
        for (label, bytes) in cases {
            std::fs::write(&bad_path, &bytes).unwrap();
            match load(bad_path.to_str().unwrap(), None) {
                Err(e @ CliError::InvalidInput(_)) => {
                    assert_eq!(e.exit_code(), 3, "{label}");
                    assert!(e.to_string().contains("invalid snapshot"), "{label}: {e}");
                }
                other => panic!("{label}: unexpected {other:?}"),
            }
        }

        // A missing snapshot file is I/O trouble (exit 1), not corruption.
        match load("/nonexistent/world.swire", None) {
            Err(e @ CliError::Io(_)) => assert_eq!(e.exit_code(), 1),
            other => panic!("unexpected {other:?}"),
        }

        std::fs::remove_file(snap).ok();
        std::fs::remove_file(bad_path).ok();
    }

    #[test]
    fn diff_reports_identical_and_differing_snapshots() {
        let dir = scratch_dir("diff");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.swire");
        let b = dir.join("b.swire");
        let c = dir.join("c.swire");

        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 2,
            ..MineArgs::new("cities")
        };
        snapshot(&args, a.to_str().unwrap(), None).unwrap();
        snapshot(&args, b.to_str().unwrap(), None).unwrap();
        // A different seed generates a different corpus → real
        // differences in evidence counts (at least).
        let other = MineArgs { seed: 6, ..args };
        snapshot(&other, c.to_str().unwrap(), None).unwrap();

        let (text, identical) =
            diff(a.to_str().unwrap(), b.to_str().unwrap(), DiffFormat::Human).unwrap();
        assert!(identical, "{text}");
        assert!(text.contains("snapshots are identical"), "{text}");

        let (text, identical) =
            diff(a.to_str().unwrap(), c.to_str().unwrap(), DiffFormat::Human).unwrap();
        assert!(!identical, "{text}");
        assert!(text.contains("snapshots differ"), "{text}");

        // JSON format parses and carries the verdict + per-section keys.
        let (json, identical) =
            diff(a.to_str().unwrap(), c.to_str().unwrap(), DiffFormat::Json).unwrap();
        assert!(!identical);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["identical"], serde_json::Value::Bool(false));
        assert!(value["differences"].as_u64().unwrap() > 0);
        // Seven required sections plus the optional incremental and
        // fingerprint sections (reported even when absent on both sides).
        assert_eq!(value["sections"].as_array().unwrap().len(), 9);

        // A corrupt operand is InvalidInput (exit 3), not a diff result.
        let bad = dir.join("bad.swire");
        std::fs::write(&bad, b"junk").unwrap();
        match diff(
            a.to_str().unwrap(),
            bad.to_str().unwrap(),
            DiffFormat::Human,
        ) {
            Err(e @ CliError::InvalidInput(_)) => assert_eq!(e.exit_code(), 3),
            other => panic!("unexpected {other:?}"),
        }
        // A missing operand is I/O (exit 1).
        match diff(a.to_str().unwrap(), "/nonexistent.swire", DiffFormat::Human) {
            Err(e @ CliError::Io(_)) => assert_eq!(e.exit_code(), 1),
            other => panic!("unexpected {other:?}"),
        }

        for path in [a, b, c, bad] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn serve_rejects_missing_and_corrupt_snapshots() {
        match serve("/nonexistent.swire", "127.0.0.1:0", 1, 1, 100, false) {
            Err(e @ CliError::Io(_)) => assert_eq!(e.exit_code(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let dir = scratch_dir("serve");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.swire");
        std::fs::write(&bad, b"definitely not a snapshot").unwrap();
        match serve(bad.to_str().unwrap(), "127.0.0.1:0", 1, 1, 100, false) {
            Err(e @ CliError::InvalidInput(_)) => assert_eq!(e.exit_code(), 3),
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn serve_boots_answers_and_shuts_down() {
        use std::io::{Read, Write};

        let dir = scratch_dir("serve-e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("world.swire");
        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 2,
            ..MineArgs::new("cities")
        };
        snapshot(&args, snap.to_str().unwrap(), None).unwrap();

        // Boot on an OS-assigned port in a thread; discover the port by
        // racing a readyz poll is impossible without the addr, so bind
        // through the server API path instead: serve() prints the bound
        // address but the test needs it programmatically. Use the lower
        // server API directly for the e2e loop and reserve serve() for
        // its validation behavior (tested above); here we pin that the
        // CLI wiring produces a queryable server end to end.
        let bytes = std::fs::read(&snap).unwrap();
        let state = surveyor_server::ServedState::from_snapshot_bytes(&bytes, 1, "world").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let handle = surveyor_server::start(
            surveyor_server::ServerConfig::default(),
            Arc::new(state),
            registry,
        )
        .unwrap();
        let addr = handle.addr();

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /decide/Los%20Angeles/big HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("\"positive\": true"), "{body}");

        handle.shutdown();
        std::fs::remove_file(snap).ok();
    }

    #[test]
    fn update_matches_from_scratch_byte_identically() {
        let dir = scratch_dir("update");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.swire");
        let updated = dir.join("updated.swire");
        let scratch = dir.join("scratch.swire");

        // The `cities-tail` delta preset: a 4-shard cities world whose
        // base is shards [0, 3) and whose delta is shard 3.
        let preset = presets::delta_preset("cities-tail").unwrap();
        let mine = MineArgs {
            seed: 5,
            rho: 40,
            shards: preset.num_shards,
            ingest_shards: Some(preset.base_shards),
            ..MineArgs::new(preset.world)
        };
        let summary = snapshot(&mine, base.to_str().unwrap(), None).unwrap();
        assert!(summary.contains("incremental state"), "{summary}");

        let summary = update(&UpdateArgs {
            snapshot: base.to_str().unwrap().to_owned(),
            delta_preset: "cities-tail".to_owned(),
            out: updated.to_str().unwrap().to_owned(),
            seed: 5,
            region: None,
            failure_policy: FailurePolicy::FailFast,
            chaos_seed: None,
        })
        .unwrap();
        assert!(summary.contains("carried forward"), "{summary}");

        // A from-scratch mine of ALL shards (with state recorded so the
        // optional sections match) must be byte-identical to the update.
        let full = MineArgs {
            ingest_shards: Some(preset.num_shards),
            ..mine.clone()
        };
        snapshot(&full, scratch.to_str().unwrap(), None).unwrap();
        let updated_bytes = std::fs::read(&updated).unwrap();
        let scratch_bytes = std::fs::read(&scratch).unwrap();
        assert_eq!(updated_bytes, scratch_bytes, "update != from-scratch");

        // Running the same update again ingests nothing and rewrites the
        // snapshot unchanged.
        let again = update(&UpdateArgs {
            snapshot: updated.to_str().unwrap().to_owned(),
            delta_preset: "cities-tail".to_owned(),
            out: updated.to_str().unwrap().to_owned(),
            seed: 5,
            region: None,
            failure_policy: FailurePolicy::FailFast,
            chaos_seed: None,
        })
        .unwrap();
        assert!(again.contains("nothing to ingest"), "{again}");
        assert_eq!(std::fs::read(&updated).unwrap(), scratch_bytes);

        for path in [base, updated, scratch] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn update_onto_its_own_input_round_trips() {
        let dir = scratch_dir("update-in-place");
        std::fs::create_dir_all(&dir).unwrap();
        let in_place = dir.join("world.swire");
        let scratch = dir.join("scratch.swire");
        let preset = presets::delta_preset("cities-tail").unwrap();
        let mine = MineArgs {
            seed: 5,
            rho: 40,
            shards: preset.num_shards,
            ingest_shards: Some(preset.base_shards),
            ..MineArgs::new(preset.world)
        };
        snapshot(&mine, in_place.to_str().unwrap(), None).unwrap();
        let base_bytes = std::fs::read(&in_place).unwrap();
        let args = UpdateArgs {
            snapshot: in_place.to_str().unwrap().to_owned(),
            delta_preset: "cities-tail".to_owned(),
            out: in_place.to_str().unwrap().to_owned(),
            seed: 5,
            region: None,
            failure_policy: FailurePolicy::FailFast,
            chaos_seed: None,
        };
        // The base is read whole before anything is written, and replaced
        // in one rename: the file is the update of what it was.
        update(&args).unwrap();
        let full = MineArgs {
            ingest_shards: Some(preset.num_shards),
            ..mine
        };
        snapshot(&full, scratch.to_str().unwrap(), None).unwrap();
        let updated_bytes = std::fs::read(&in_place).unwrap();
        assert_ne!(updated_bytes, base_bytes);
        assert_eq!(updated_bytes, std::fs::read(&scratch).unwrap());
        // Again, down the nothing-to-ingest path: the same bytes.
        let again = update(&args).unwrap();
        assert!(again.contains("nothing to ingest"), "{again}");
        assert_eq!(std::fs::read(&in_place).unwrap(), updated_bytes);
        assert!(surveyor::load_snapshot_with_state(&updated_bytes).is_ok());
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(left.len(), 2, "temporary files left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_write_leaves_the_previous_file_and_no_temporary() {
        use std::io::Write as _;
        let dir = scratch_dir("atomic-write");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.swire");
        let path_str = path.to_str().unwrap();
        let names = || -> Vec<String> {
            let mut names: Vec<String> = (std::fs::read_dir(&dir).unwrap().flatten())
                .map(|entry| entry.file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };

        write_snapshot(path_str, b"generation one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"generation one");
        assert_eq!(names(), ["world.swire"]);

        // The writer dies half way: disk full, a signal, a panic upstream.
        let failed = replace_file(path_str, |file| {
            file.write_all(b"generation t")?;
            Err(std::io::Error::other("disk full"))
        });
        assert!(
            matches!(&failed, Err(CliError::Io(detail)) if detail.contains("disk full")),
            "{failed:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"generation one");
        assert_eq!(names(), ["world.swire"]);

        // The rename fails: the target is a directory that is not empty.
        let occupied = dir.join("occupied");
        std::fs::create_dir_all(occupied.join("inner")).unwrap();
        assert!(write_snapshot(occupied.to_str().unwrap(), b"bytes").is_err());
        assert!(occupied.join("inner").is_dir());
        assert_eq!(names(), ["occupied", "world.swire"]);

        // Nowhere to put the temporary file: nothing is created.
        let orphan = dir.join("missing").join("world.swire");
        assert!(write_snapshot(orphan.to_str().unwrap(), b"bytes").is_err());
        assert_eq!(names(), ["occupied", "world.swire"]);

        write_snapshot(path_str, b"generation two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"generation two");
        assert_eq!(names(), ["occupied", "world.swire"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_rejects_missing_state_bad_preset_and_wrong_corpus() {
        let dir = scratch_dir("update-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("plain.swire");
        let out = dir.join("out.swire");

        let mine = MineArgs {
            seed: 5,
            rho: 40,
            shards: 4,
            ..MineArgs::new("cities")
        };
        snapshot(&mine, plain.to_str().unwrap(), None).unwrap();

        let args = UpdateArgs {
            snapshot: plain.to_str().unwrap().to_owned(),
            delta_preset: "cities-tail".to_owned(),
            out: out.to_str().unwrap().to_owned(),
            seed: 5,
            region: None,
            failure_policy: FailurePolicy::FailFast,
            chaos_seed: None,
        };
        // A snapshot without incremental state is updatable data that
        // simply isn't there: invalid input, exit 3.
        match update(&args) {
            Err(e @ CliError::InvalidInput(_)) => {
                assert_eq!(e.exit_code(), 3);
                assert!(e.to_string().contains("no incremental state"), "{e}");
            }
            other => panic!("unexpected {other:?}"),
        }

        // Re-snapshot with state, then feed mismatching deltas.
        let preset = presets::delta_preset("cities-tail").unwrap();
        let with_state = MineArgs {
            shards: preset.num_shards,
            ingest_shards: Some(preset.base_shards),
            ..mine
        };
        snapshot(&with_state, plain.to_str().unwrap(), None).unwrap();

        // Unknown preset name: usage error, exit 2, listing valid names.
        match update(&UpdateArgs {
            delta_preset: "atlantis-tail".to_owned(),
            ..args.clone()
        }) {
            Err(e @ CliError::Usage(_)) => {
                assert_eq!(e.exit_code(), 2);
                assert!(e.to_string().contains("cities-tail"), "{e}");
            }
            other => panic!("unexpected {other:?}"),
        }

        // A delta from a different corpus (wrong world or wrong seed) is
        // refused before any mining happens.
        match update(&UpdateArgs {
            delta_preset: "table2-tail".to_owned(),
            ..args.clone()
        }) {
            Err(e @ CliError::InvalidInput(_)) => {
                assert_eq!(e.exit_code(), 3);
                assert!(e.to_string().contains("not the corpus"), "{e}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match update(&UpdateArgs {
            seed: 6,
            ..args.clone()
        }) {
            Err(e @ CliError::InvalidInput(_)) => assert_eq!(e.exit_code(), 3),
            other => panic!("unexpected {other:?}"),
        }

        // Missing file is I/O (exit 1); corrupt file is invalid (exit 3).
        match update(&UpdateArgs {
            snapshot: "/nonexistent.swire".to_owned(),
            ..args.clone()
        }) {
            Err(e @ CliError::Io(_)) => assert_eq!(e.exit_code(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let bad = dir.join("bad.swire");
        std::fs::write(&bad, b"junk").unwrap();
        match update(&UpdateArgs {
            snapshot: bad.to_str().unwrap().to_owned(),
            ..args
        }) {
            Err(e @ CliError::InvalidInput(_)) => assert_eq!(e.exit_code(), 3),
            other => panic!("unexpected {other:?}"),
        }

        for path in [plain, out, bad] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn chaos_quarantine_replays_to_the_clean_run_bytes() {
        let dir = scratch_dir("replay");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.swire");
        let updated = dir.join("updated.swire");
        let clean = dir.join("clean.swire");

        let preset = presets::delta_preset("cities-tail").unwrap();
        let max_attempts = RetryPolicy::default().max_attempts;
        // Find a chaos seed whose plan permanently kills at least one
        // BASE shard, so the base mine actually quarantines something.
        let chaos = (0..500)
            .find(|&s| {
                FaultPlan::from_seed(s, preset.num_shards)
                    .expected_quarantine(max_attempts)
                    .iter()
                    .any(|&shard| shard < preset.base_shards)
            })
            .expect("no chaos seed quarantines a base shard");

        let mine = MineArgs {
            seed: 5,
            rho: 40,
            shards: preset.num_shards,
            ingest_shards: Some(preset.base_shards),
            chaos_seed: Some(chaos),
            failure_policy: FailurePolicy::degrade_unchecked(),
            ..MineArgs::new(preset.world)
        };
        let summary = snapshot(&mine, base.to_str().unwrap(), None).unwrap();
        assert!(summary.contains("pending replay"), "{summary}");
        let (_, state) = surveyor::load_snapshot_with_state(&std::fs::read(&base).unwrap())
            .map(|(o, s)| (o, s.unwrap()))
            .unwrap();
        assert!(!state.pending.is_empty(), "base quarantined nothing");

        // Update WITHOUT chaos: the delta shard comes in and the
        // quarantined base shards replay.
        let summary = update(&UpdateArgs {
            snapshot: base.to_str().unwrap().to_owned(),
            delta_preset: "cities-tail".to_owned(),
            out: updated.to_str().unwrap().to_owned(),
            seed: 5,
            region: None,
            failure_policy: FailurePolicy::FailFast,
            chaos_seed: None,
        })
        .unwrap();
        assert!(summary.contains("updated"), "{summary}");

        // The replayed result is bit-for-bit the clean full run.
        let clean_args = MineArgs {
            chaos_seed: None,
            failure_policy: FailurePolicy::FailFast,
            ingest_shards: Some(preset.num_shards),
            ..mine
        };
        snapshot(&clean_args, clean.to_str().unwrap(), None).unwrap();
        assert_eq!(
            std::fs::read(&updated).unwrap(),
            std::fs::read(&clean).unwrap(),
            "replayed update != clean run"
        );

        for path in [base, updated, clean] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn mine_under_chaos_degrades_and_reports_coverage() {
        let args = MineArgs {
            seed: 5,
            rho: 40,
            shards: 4,
            chaos_seed: Some(7),
            failure_policy: FailurePolicy::degrade_unchecked(),
            ..MineArgs::new("cities")
        };
        let summary = mine(&args).unwrap();
        assert!(summary.contains("mined"), "{summary}");
        // The summary carries the coverage line exactly when the seeded
        // plan costs the run retries or shards.
        let plan = FaultPlan::from_seed(7, 4);
        let max_attempts = RetryPolicy::default().max_attempts;
        if plan.expected_retries(max_attempts) > 0
            || !plan.expected_quarantine(max_attempts).is_empty()
        {
            assert!(summary.contains("shard coverage"), "{summary}");
        } else {
            assert!(!summary.contains("shard coverage"), "{summary}");
        }
    }
}
