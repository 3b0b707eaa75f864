//! Workspace integration tests for the simulation-session layer: batched
//! sweeps must be bit-identical to independent `Pipeline` runs, artifact
//! caching must actually share work, and degenerate sweeps must behave.

use std::sync::Arc;

use db_pim::prelude::*;

fn small_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.evaluation_images = 2;
    config
}

/// Artifact reuse across the four sparsity configurations produces
/// bit-identical `CodesignResult`s (including every `RunReport`) to
/// independent `Pipeline` runs.
#[test]
fn batch_runner_matches_independent_pipeline_runs() {
    let config = small_config();
    let runner = BatchRunner::new(config).expect("valid config");
    let kinds = vec![ModelKind::AlexNet, ModelKind::MobileNetV2];
    let report =
        runner.run_with_fidelity(&SweepSpec::new(kinds.clone()), true).expect("sweep runs");
    assert_eq!(report.entries.len(), 2);
    assert_eq!(report.prepared_models, 2);
    assert_eq!(report.simulated_runs, 8);

    let pipeline = Pipeline::new(config).expect("valid config");
    for kind in kinds {
        let independent = pipeline.run_kind(kind).expect("pipeline runs");
        let swept = report.result(kind).expect("model swept");
        assert_eq!(swept, &independent, "{kind:?} sweep result diverges from Pipeline");
    }
}

/// The LRU cap actually evicts: a capacity-1 session holds one prepared
/// model at a time, counts each eviction, rebuilds an evicted model on
/// re-request — and none of it changes the computed results.
#[test]
fn capped_sessions_evict_least_recently_used_artifacts() {
    let config = small_config();
    let session = SimSession::new(config).expect("valid config");
    session.set_cache_capacity(Some(1));

    let alexnet_cold = session.artifacts(ModelKind::AlexNet).expect("prepares A");
    let stats = session.cache_stats();
    assert_eq!((stats.resident_artifacts, stats.artifact_evictions), (1, 0));

    // Preparing a second model evicts the first (cap 1).
    session.artifacts(ModelKind::MobileNetV2).expect("prepares B");
    let stats = session.cache_stats();
    assert_eq!(stats.resident_artifacts, 1, "cap was not enforced: {stats:?}");
    assert_eq!(stats.artifact_evictions, 1, "{stats:?}");

    // The evicted model is a miss again — rebuilt, not resurrected — and
    // the rebuild evicts the other model in turn.
    let alexnet_again = session.artifacts(ModelKind::AlexNet).expect("rebuilds A");
    assert!(!Arc::ptr_eq(&alexnet_cold, &alexnet_again), "evicted artifacts were resurrected");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_misses, 3, "A, B, then A again: {stats:?}");
    assert_eq!(stats.artifact_evictions, 2, "{stats:?}");
    assert_eq!(stats.resident_artifacts, 1);

    // Eviction must never change results: the rebuilt artifacts simulate
    // bit-identically to an uncapped session's.
    let uncapped = SimSession::new(config).expect("valid config");
    let reference = uncapped.artifacts(ModelKind::AlexNet).expect("prepares");
    let run_a = alexnet_again
        .simulate(config.arch, SparsityConfig::HybridSparsity)
        .expect("capped simulates");
    let run_b = reference.simulate(config.arch, SparsityConfig::HybridSparsity).expect("uncapped");
    assert_eq!(run_a, run_b, "eviction changed simulation results");

    // LRU order: with cap 2, touching A makes B the eviction victim.
    let session = SimSession::new(config).expect("valid config");
    session.set_cache_capacity(Some(2));
    session.artifacts(ModelKind::AlexNet).expect("A");
    session.artifacts(ModelKind::MobileNetV2).expect("B");
    session.artifacts(ModelKind::AlexNet).expect("touch A");
    session.artifacts(ModelKind::ResNet18).expect("C evicts B");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_evictions, 1);
    // A survived (hit), B is gone (miss on re-request).
    let before = session.cache_stats().artifact_misses;
    session.artifacts(ModelKind::AlexNet).expect("A still cached");
    assert_eq!(session.cache_stats().artifact_misses, before, "A was wrongly evicted");
    session.artifacts(ModelKind::MobileNetV2).expect("B rebuilt");
    assert_eq!(session.cache_stats().artifact_misses, before + 1, "B should have been evicted");
}

/// A capped `BatchRunner` propagates the cap to its per-width sessions and
/// aggregates their eviction counters.
#[test]
fn batch_runner_cache_cap_reaches_width_sessions() {
    let runner = BatchRunner::new(small_config()).expect("valid config").with_cache_cap(Some(1));
    let spec = SweepSpec::new(vec![ModelKind::AlexNet, ModelKind::MobileNetV2])
        .with_sparsity(vec![SparsityConfig::HybridSparsity])
        .with_widths(vec![OperandWidth::Int4]);
    let report = runner.run(&spec).expect("sweep runs");
    assert_eq!(report.entries.len(), 2);
    let stats = runner.cache_stats();
    assert!(stats.artifact_evictions >= 1, "the INT4 width session ignored the cap: {stats:?}");
    assert!(stats.resident_artifacts <= 2, "one per session at most: {stats:?}");
}

/// An empty sweep returns an empty report.
#[test]
fn empty_sweep_returns_empty_report() {
    let runner = BatchRunner::new(small_config()).expect("valid config");
    let report = runner.run(&SweepSpec::new(Vec::new())).expect("empty sweep runs");
    assert!(report.is_empty());
    assert_eq!(report.prepared_models, 0);
    assert_eq!(report.simulated_runs, 0);
    assert!(report.results().next().is_none());
}

/// The session hands out the *same* artifacts (pointer-equal) on repeated
/// requests, and the runner reuses them across sparsity configurations.
#[test]
fn session_caches_artifacts_per_model() {
    let session = SimSession::new(small_config()).expect("valid config");
    let first = session.artifacts(ModelKind::AlexNet).expect("prepares");
    let second = session.artifacts(ModelKind::AlexNet).expect("cached");
    assert!(Arc::ptr_eq(&first, &second), "artifacts were re-prepared");

    // Compiled programs are cached per geometry too.
    let arch = session.config().arch;
    let p1 = first.programs(arch).expect("compiles");
    let p2 = first.programs(arch).expect("cached");
    assert!(Arc::ptr_eq(&p1, &p2), "programs were re-compiled");
}

/// Parallel and sequential execution of the same sweep agree exactly, and
/// both equal running every lowered point through `run_point_pruned` — the
/// batch path has no engine of its own. The spec crosses two geometries,
/// two widths and two pruning specs with fidelity on, and its report
/// round-trips losslessly through serde_json.
#[test]
fn parallelism_does_not_change_results() {
    let config = small_config();
    let mut wide = config.arch;
    wide.macros *= 2;
    let spec = SweepSpec::new(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity])
        .with_archs(vec![config.arch, wide])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8])
        .with_pruning(vec![PruningSpec::none(), PruningSpec::unstructured(0.5)]);
    let sequential = BatchRunner::new(config)
        .expect("valid config")
        .with_threads(1)
        .run_with_fidelity(&spec, true)
        .expect("sequential sweep");
    let runner = BatchRunner::new(config).expect("valid config").with_threads(8);
    let parallel = runner.run_with_fidelity(&spec, true).expect("parallel sweep");
    assert_eq!(sequential.entries, parallel.entries);
    assert_eq!(parallel.entries.len(), 8);
    assert_eq!(parallel.prepared_models, 4, "one artifact set per (width, pruning)");
    assert_eq!(parallel.simulated_runs, 16);

    // Entry order is the lowered point order, and every entry equals the
    // per-point path.
    let points = spec.points(&config);
    assert_eq!(points.len(), parallel.entries.len());
    for (point, entry) in points.iter().zip(&parallel.entries) {
        assert_eq!(
            (entry.kind, entry.width, entry.pruning, entry.arch),
            (point.kind, point.width, point.pruning, point.arch)
        );
        let single = runner
            .run_point_pruned(
                point.kind,
                point.width,
                point.pruning,
                Some(point.arch),
                &spec.sparsity,
                true,
            )
            .expect("point runs");
        assert_eq!(&single, entry, "batched entry diverges from run_point_pruned");
    }
    assert!(parallel.entries.iter().any(|e| e.result.fidelity.is_some()), "fidelity was on");

    // Serialization round-trip is lossless for every field, active pruning
    // specs included.
    let json = serde_json::to_string(&parallel).expect("serializes");
    let back: SweepReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(parallel, back, "sweep report did not survive the JSON round trip");
}

/// A sparsity subset sweeps only the requested configurations, in canonical
/// Fig. 7 order.
#[test]
fn sparsity_subset_is_honoured() {
    let runner = BatchRunner::new(small_config()).expect("valid config");
    let spec = SweepSpec::new(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity, SparsityConfig::DenseBaseline]);
    let report = runner.run(&spec).expect("subset sweep");
    let result = report.result(ModelKind::AlexNet).expect("model swept");
    assert_eq!(result.runs.len(), 2);
    assert_eq!(result.runs[0].sparsity, SparsityConfig::DenseBaseline);
    assert_eq!(result.runs[1].sparsity, SparsityConfig::HybridSparsity);
    assert!(result.speedup(SparsityConfig::HybridSparsity) > 1.0);
}

/// Repeated sweeps at several operand widths reuse the prepared artifacts
/// of every width: re-requests are pointer-equal, nothing is prepared a
/// second time, and a second identical sweep reproduces the first.
#[test]
fn width_sweeps_reuse_cached_artifacts_across_runs() {
    let runner = BatchRunner::new(small_config()).expect("valid config");
    let spec = SweepSpec::new(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::DenseBaseline])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8]);

    let first = runner.run(&spec).expect("first sweep runs");
    assert_eq!(first.entries.len(), 2);
    assert_eq!(first.prepared_models, 2);
    let misses = runner.cache_stats().artifact_misses;
    assert_eq!(misses, 2, "one preparation per width");

    // Artifacts prepared by the sweep are pointer-identical on re-request
    // at every width, and the configured width (INT8) is the slot
    // `artifacts` serves.
    let session = runner.session();
    for width in [OperandWidth::Int4, OperandWidth::Int8] {
        let cached_a = session
            .artifacts_at(ModelKind::AlexNet, width, PruningSpec::none())
            .expect("cached artifacts");
        let cached_b = session
            .artifacts_at(ModelKind::AlexNet, width, PruningSpec::none())
            .expect("cached artifacts again");
        assert!(Arc::ptr_eq(&cached_a, &cached_b), "{width} artifacts were re-prepared");
        assert_eq!(cached_a.config().operand_width, width);
    }
    let configured = session.artifacts(ModelKind::AlexNet).expect("cached artifacts");
    let int8 = session
        .artifacts_at(ModelKind::AlexNet, OperandWidth::Int8, PruningSpec::none())
        .expect("cached artifacts");
    assert!(Arc::ptr_eq(&configured, &int8), "INT8 must be the configured variant");

    let second = runner.run(&spec).expect("second sweep runs");
    assert_eq!(first.entries, second.entries);
    assert_eq!(runner.cache_stats().artifact_misses, misses, "the second sweep re-prepared");
}

/// One session caches every (width, pruning) variant, all prepared from one
/// float model per zoo model, and the LRU cap counts per variant: under cap
/// 1, INT8 and INT4 AlexNet are both resident, and INT4 MobileNetV2 evicts
/// only INT4 AlexNet.
#[test]
fn cache_cap_counts_per_variant_over_one_shared_float_model() {
    let session = SimSession::new(small_config()).expect("valid config");
    session.set_cache_capacity(Some(1));
    let none = PruningSpec::none();

    let int8 = session.artifacts(ModelKind::AlexNet).expect("INT8 AlexNet");
    let int4 =
        session.artifacts_at(ModelKind::AlexNet, OperandWidth::Int4, none).expect("INT4 AlexNet");
    let stats = session.cache_stats();
    assert_eq!((stats.resident_artifacts, stats.artifact_evictions), (2, 0), "{stats:?}");
    assert!(std::ptr::eq(int8.model(), int4.model()), "the variants built two float models");

    session
        .artifacts_at(ModelKind::MobileNetV2, OperandWidth::Int4, none)
        .expect("INT4 MobileNetV2");
    let stats = session.cache_stats();
    assert_eq!((stats.resident_artifacts, stats.artifact_evictions), (2, 1), "{stats:?}");
    assert_eq!((stats.artifact_hits, stats.artifact_misses), (0, 3), "{stats:?}");

    // INT8 AlexNet survived in its own variant...
    let again = session.artifacts(ModelKind::AlexNet).expect("INT8 AlexNet again");
    assert!(Arc::ptr_eq(&int8, &again), "INT8 AlexNet was evicted");
    let stats = session.cache_stats();
    assert_eq!((stats.artifact_hits, stats.artifact_misses), (1, 3), "{stats:?}");
    // ...and INT4 AlexNet was the victim.
    let rebuilt =
        session.artifacts_at(ModelKind::AlexNet, OperandWidth::Int4, none).expect("rebuilds");
    assert!(!Arc::ptr_eq(&int4, &rebuilt), "evicted artifacts were resurrected");
    assert_eq!(session.cache_stats().artifact_misses, 4);
}

/// The session cache counters observe exactly what happened: one miss per
/// distinct model, hits on re-request, and program compilations counted
/// separately per geometry.
#[test]
fn session_cache_stats_count_builds_and_hits() {
    let session = SimSession::new(small_config()).expect("valid config");
    assert_eq!(session.cache_stats(), SessionCacheStats::default());

    session.artifacts(ModelKind::AlexNet).expect("prepares");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_misses, 1);
    assert_eq!(stats.artifact_hits, 0);
    assert_eq!(stats.resident_artifacts, 1);
    assert_eq!(stats.program_misses, 0, "no compilation before the first simulate");

    let artifacts = session.artifacts(ModelKind::AlexNet).expect("cached");
    let arch = session.config().arch;
    artifacts.simulate(arch, SparsityConfig::DenseBaseline).expect("simulates");
    artifacts.simulate(arch, SparsityConfig::HybridSparsity).expect("simulates");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_hits, 1);
    assert_eq!(stats.program_misses, 1, "both mappings compile under one miss");
    assert_eq!(stats.program_hits, 1);

    // A second model is a second miss; the aggregate `absorb` adds fields.
    session.artifacts(ModelKind::MobileNetV2).expect("prepares");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_misses, 2);
    assert_eq!(stats.resident_artifacts, 2);
    let mut total = SessionCacheStats::default();
    total.absorb(stats);
    total.absorb(stats);
    assert_eq!(total.artifact_misses, 4);
    assert_eq!(total.total_requests(), 2 * stats.total_requests());
}
