//! Criterion benchmarks of the seven backbones: one local training epoch
//! and one full inference on an 8k-node client-scale graph — the
//! per-client cost column of the paper's Table 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedgta_data::{generate_from_spec, DatasetSpec, Task};
use fedgta_nn::models::{build_model, GraphDataset, ModelConfig, ModelKind};
use fedgta_nn::{Adam, TrainHooks};
use std::hint::black_box;

fn dataset() -> GraphDataset {
    let spec = DatasetSpec {
        name: "bench",
        nodes: 8000,
        features: 64,
        classes: 8,
        avg_degree: 10.0,
        train_frac: 0.5,
        val_frac: 0.2,
        test_frac: 0.3,
        task: Task::Transductive,
        blocks_per_class: 2,
        homophily: 0.8,
        description: "bench",
    };
    generate_from_spec(&spec, 0).to_dataset()
}

fn cfg(kind: ModelKind) -> ModelConfig {
    ModelConfig::paper(kind, 64, 0)
}

fn bench_train_epoch(c: &mut Criterion) {
    let data = dataset();
    let mut g = c.benchmark_group("train_epoch_8k");
    for kind in ModelKind::all() {
        let mut model = build_model(&cfg(kind), data.num_features(), data.num_classes);
        let mut opt = Adam::new(0.01, 0.0);
        // Warm the decoupled precompute caches outside the timed region.
        let _ = model.predict(&data);
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, _| {
            b.iter(|| {
                black_box(model.train_epoch(&data, &mut opt, &mut TrainHooks::none()))
            });
        });
    }
    g.finish();
}

fn bench_inference(c: &mut Criterion) {
    let data = dataset();
    let mut g = c.benchmark_group("inference_8k");
    for kind in ModelKind::all() {
        let mut model = build_model(&cfg(kind), data.num_features(), data.num_classes);
        let _ = model.predict(&data); // warm caches
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, _| {
            b.iter(|| black_box(model.predict(&data)));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_train_epoch, bench_inference
}
criterion_main!(benches);
