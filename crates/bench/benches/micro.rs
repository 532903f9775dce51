//! Criterion micro-benchmarks of the hot-path data structures: the credit
//! manager's admission/release, the software ring, the LLC occupancy
//! model, and the event queue. These guard the simulator's own
//! performance, not the paper's results.

use ceio_core::{CreditManager, SwRing};
use ceio_mem::{BufferId, IoLlc};
use ceio_net::FlowId;
use ceio_sim::{EventQueue, Histogram, Time};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_credit_manager(c: &mut Criterion) {
    c.bench_function("credit_consume_release", |b| {
        let mut cm = CreditManager::new(3072);
        cm.add_flows(&(0..8).map(FlowId).collect::<Vec<_>>());
        let mut i = 0u32;
        b.iter(|| {
            let f = FlowId(i % 8);
            if cm.try_consume(black_box(f)) {
                cm.release(f, 1);
            }
            i = i.wrapping_add(1);
        });
    });
    c.bench_function("credit_add_remove_flows", |b| {
        b.iter(|| {
            let mut cm = CreditManager::new(3072);
            for wave in 0..4u32 {
                let ids: Vec<FlowId> = (wave * 8..wave * 8 + 8).map(FlowId).collect();
                cm.add_flows(&ids);
            }
            black_box(cm.free_pool())
        });
    });
}

fn bench_swring(c: &mut Criterion) {
    c.bench_function("swring_fast_push_recv", |b| {
        let mut r = SwRing::new(1024, 32);
        b.iter(|| {
            for i in 0..32u32 {
                let _ = r.push_fast(black_box(i));
            }
            black_box(r.async_recv(32).delivered.len())
        });
    });
    c.bench_function("swring_mixed_paths", |b| {
        let mut r = SwRing::new(1024, 32);
        b.iter(|| {
            for i in 0..16u32 {
                let _ = r.push_fast(i);
                let _ = r.push_slow(i + 100);
            }
            let out = r.async_recv(64);
            r.fetch_complete(out.fetch_issued);
            black_box(r.async_recv(64).delivered.len())
        });
    });
}

fn bench_llc(c: &mut Criterion) {
    c.bench_function("llc_insert_lookup_consume", |b| {
        let mut llc = IoLlc::new(6 << 20);
        let mut evicted = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            llc.insert(BufferId(i), 2048, &mut evicted);
            black_box(llc.lookup(BufferId(i)));
            llc.consume(BufferId(i));
            i += 1;
        });
    });
    c.bench_function("llc_thrash_evictions", |b| {
        let mut llc = IoLlc::new(64 * 2048);
        let mut evicted = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            evicted.clear();
            llc.insert(BufferId(i), 2048, &mut evicted);
            black_box(evicted.len());
            i += 1;
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            for k in 0..8 {
                q.schedule_at(Time(t + k * 7 + 1), k);
            }
            for _ in 0..8 {
                black_box(q.pop());
            }
            t = q.now().nanos();
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record_quantile", |b| {
        let mut h = Histogram::new();
        let mut x = 1u64;
        b.iter(|| {
            h.record(black_box(x % 1_000_000 + 1));
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        });
        black_box(h.p999());
    });
    c.bench_function("histogram_quantiles_single_pass", |b| {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..100_000 {
            h.record(x % 1_000_000 + 1);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        b.iter(|| black_box(h.quantiles(black_box(&[0.5, 0.9, 0.99, 0.999]))));
    });
}

criterion_group!(
    benches,
    bench_credit_manager,
    bench_swring,
    bench_llc,
    bench_event_queue,
    bench_histogram
);
criterion_main!(benches);
