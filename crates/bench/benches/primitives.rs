//! Micro-benchmarks of the simulator's core primitives: per-layer cost
//! queries, full-graph costing, schedule evaluation, DES flattening and
//! the DES engine.
//! These bound the cost of the schedulers' inner loops.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use npu_dnn::models::attention::{fusion_block, FusionConfig};
use npu_dnn::models::{fe_bfpn, BifpnConfig, FeConfig};
use npu_dnn::{Layer, OpKind, PerceptionConfig};
use npu_maestro::{graph_cost, Accelerator, CostModel, FittedMaestro};
use npu_mcm::McmPackage;
use npu_pipesim::{simulate, SimConfig};
use npu_sched::sweep::chiplet_count_sweep;
use npu_sched::{evaluate, flatten_items, MatcherConfig, ThroughputMatcher};
use npu_tensor::Dtype;

fn bench(c: &mut Criterion) {
    let model = FittedMaestro::new();
    let os = Accelerator::shidiannao_like(256);

    let qkv = Layer::intrinsic(
        "qkv",
        OpKind::Dense {
            tokens: 12_800,
            in_features: 256,
            out_features: 768,
        },
    );
    c.bench_function("layer_cost_dense", |b| {
        b.iter(|| model.layer_cost(&qkv, &os))
    });

    let fe = fe_bfpn(&FeConfig::default(), &BifpnConfig::default());
    c.bench_function("graph_cost_fe_bfpn_60_layers", |b| {
        b.iter(|| graph_cost(&model, &fe, &os))
    });

    let s_fuse = fusion_block(&FusionConfig::spatial_default());
    c.bench_function("graph_cost_fusion", |b| {
        b.iter(|| graph_cost(&model, &s_fuse, &os))
    });

    let pipeline = PerceptionConfig::default().build();
    let pkg = McmPackage::simba_6x6();
    let outcome =
        ThroughputMatcher::new(&model, MatcherConfig::default()).match_throughput(&pipeline, &pkg);

    c.bench_function("evaluate_matched_schedule", |b| {
        b.iter(|| evaluate(&outcome.schedule, &pkg, &model, Dtype::Fp16))
    });

    c.bench_function("flatten_matched_schedule", |b| {
        b.iter(|| flatten_items(&outcome.schedule, &pkg, &model, Dtype::Fp16))
    });

    let mut g = c.benchmark_group("des");
    g.sample_size(10);
    g.bench_function("simulate_8_frames", |b| {
        b.iter(|| simulate(&outcome.schedule, &pkg, &model, &SimConfig::saturated(8)))
    });
    g.finish();

    // The cost model as the matcher, the sweeps and the DES flattening
    // call it: through `&dyn CostModel`, with no cache in front. This is
    // the price of every repeated `(accelerator, layer)` query.
    c.bench_function("layer_cost_fitted", |b| {
        let dyn_model: &dyn CostModel = black_box(&model);
        b.iter(|| dyn_model.layer_cost(black_box(&qkv), black_box(&os)))
    });

    // Serial vs parallel execution of a small sweep grid: the same
    // eight points, jobs pinned to 1 vs all cores. On a multi-core host
    // the parallel entry must beat the serial one; the BENCH_*.json
    // tracker records the gap. Results are bit-identical either way
    // (asserted by tests/par_determinism.rs).
    let grid: [(u32, u32); 8] = [
        (2, 2),
        (3, 2),
        (2, 3),
        (3, 3),
        (4, 2),
        (2, 4),
        (4, 3),
        (3, 4),
    ];
    let mut g = c.benchmark_group("sweep_grid");
    g.sample_size(10);
    g.bench_function("serial_jobs1", |b| {
        b.iter(|| npu_par::with_jobs(1, || chiplet_count_sweep(&pipeline, &grid, &model)))
    });
    g.bench_function("parallel_all_cores", |b| {
        b.iter(|| {
            npu_par::with_jobs(npu_par::available_jobs(), || {
                chiplet_count_sweep(&pipeline, &grid, &model)
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
