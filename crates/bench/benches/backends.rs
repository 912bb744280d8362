//! Criterion bench: data-parallel ("GPU" stand-in) versus sequential ("CPU")
//! execution of the same sampling round — the paper's Fig. 4 (left)
//! ablation. The fused-versus-staged kernel cost is isolated by the
//! `isolated_kernel_cost` diagnostic in `tests/kernel_timing.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use htsat_core::{GdSampler, SamplerConfig};
use htsat_instances::suite::{table2_instance, SuiteScale};
use htsat_tensor::Backend;

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_speedup");
    group.sample_size(10);
    for name in ["or-100-20-8-UC-10", "90-10-10-q", "s15850a_15_7", "Prod-32"] {
        let instance = table2_instance(name, SuiteScale::Small).expect("known instance");
        for backend in [
            Backend::Sequential,
            Backend::Threads(0),
            Backend::DataParallel,
        ] {
            let config = SamplerConfig {
                batch_size: 512,
                backend,
                ..SamplerConfig::default()
            };
            let mut sampler = GdSampler::new(&instance.cnf, config).expect("transform");
            group.throughput(Throughput::Elements(512));
            group.bench_with_input(BenchmarkId::new(backend.label(), name), &backend, |b, _| {
                b.iter(|| sampler.sample_round())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
