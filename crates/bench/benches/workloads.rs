//! Criterion benchmarks wrapping miniature versions of the paper's
//! workloads (host time). The *figure data* comes from the `fig8_*`,
//! `fig9_*`, and `fig10_*` binaries, which report simulated metrics; these
//! benches track the harness's own performance so regressions in simulator
//! speed are caught.

use apps::driver::Design;
use apps::fio::Pattern;
use apps::stream::Kernel;
use bench::workloads::{
    run_fio_threads, run_kv_threads, run_redis_threads, run_stream_threads, KvKind, KvWorkload,
    RedisWorkload, Scale,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn tiny() -> Scale {
    let mut s = Scale::quick();
    s.redis_instances = 1;
    s.redis_keys = 300;
    s.redis_ops = 300;
    s.kv_instances = 1;
    s.kv_keys = 300;
    s.kv_ops = 300;
    s.fio_threads = 1;
    s.fio_region_bytes = 128 * 1024;
    s.fio_ops_per_thread = 1024;
    s.stream_threads = 1;
    s.stream_array_bytes = 128 * 1024;
    s
}

fn bench_workloads(c: &mut Criterion) {
    let s = tiny();
    let mut g = c.benchmark_group("workloads");
    g.sample_size(10);
    g.bench_function("redis-set/baseline", |b| {
        b.iter(|| run_redis_threads(Design::Baseline, RedisWorkload::SetOnly, &s, 1).unwrap())
    });
    g.bench_function("redis-set/tvarak", |b| {
        b.iter(|| run_redis_threads(Design::Tvarak, RedisWorkload::SetOnly, &s, 1).unwrap())
    });
    g.bench_function("ctree-insert/tvarak", |b| {
        b.iter(|| {
            run_kv_threads(Design::Tvarak, KvKind::CTree, KvWorkload::InsertOnly, &s, 1).unwrap()
        })
    });
    g.bench_function("fio-randwrite/tvarak", |b| {
        b.iter(|| run_fio_threads(Design::Tvarak, Pattern::RandWrite, &s, 1).unwrap())
    });
    g.bench_function("stream-triad/tvarak", |b| {
        b.iter(|| run_stream_threads(Design::Tvarak, Kernel::Triad, &s, 1).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_workloads);
criterion_main!(benches);
