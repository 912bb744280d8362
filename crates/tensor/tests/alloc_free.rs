//! Proof that the fused kernel's inner loop performs **zero heap
//! allocations per row** — one row at a time, and in the sampler's
//! `LANES`-row blocks (transpose in, every iteration, transpose out) —
//! checked with a counting global allocator rather than a promise.
//! The loop runs with `htsat-obs` instrumentation (a span guard and a
//! counter per row) armed, so the proof covers the kernel *as instrumented
//! code observes it*, not a bare variant.
//!
//! Runs without the libtest harness (`harness = false` in `Cargo.toml`) so
//! no concurrent harness thread can allocate while the counter is armed.

use htsat_tensor::{ops, FlatKernel, SoftCircuit, SoftGate, LANES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    // A circuit with every gate type, shared fan-out and n-ary fan-ins.
    let mut c = SoftCircuit::new(4);
    let a = c.input(0);
    let b = c.input(1);
    let x = c.input(2);
    let y = c.input(3);
    let one = c.constant(1.0);
    let buf = c.gate(SoftGate::Buf, vec![a]);
    let not = c.gate(SoftGate::Not, vec![b]);
    let and = c.gate(SoftGate::And, vec![buf, not, x]);
    let or = c.gate(SoftGate::Or, vec![a, y, one]);
    let nand = c.gate(SoftGate::Nand, vec![b, x]);
    let nor = c.gate(SoftGate::Nor, vec![and, y]);
    let xor = c.gate(SoftGate::Xor, vec![or, nand, a]);
    let xnor = c.gate(SoftGate::Xnor, vec![nor, x]);
    c.constrain(and, 1.0);
    c.constrain(xor, 0.0);
    c.constrain(xnor, 1.0);

    let kernel = FlatKernel::compile(&c);
    let mut ws = kernel.workspace();
    let mut block_ws = kernel.lane_workspace::<LANES>();
    let mut grad = vec![0.0f32; 4];
    let mut rows: Vec<[f32; 4]> = (0..256)
        .map(|i| {
            let f = i as f32;
            [f * 0.01 - 1.0, 1.5 - f * 0.02, f * 0.03, -f * 0.005]
        })
        .collect();

    // One closure = one set of instrumentation call sites, shared by the
    // warm-up and the armed loop (each `span!`/`counter!` expansion caches
    // its metric per call site, and only the first execution registers —
    // and allocates).
    let kernel_ref = &kernel;
    let step = move |row: &mut [f32; 4], ws: &mut _| -> f64 {
        let _span = htsat_obs::span!("alloc.gd_step");
        let loss = kernel_ref.fused_gd_step(row, 10.0, ws);
        htsat_obs::counter!("alloc.gd_rows").inc();
        loss
    };
    // Two full blocks and a partial third, five iterations each.
    let mut blocks: Vec<f32> = rows.iter().take(2 * LANES + 5).flatten().copied().collect();
    let block_step = move |block: &mut [f32], ws: &mut _| -> f64 {
        let _span = htsat_obs::span!("alloc.gd_block");
        let loss = kernel_ref.fused_gd_block(block, 10.0, 5, || false, ops::embed_logit, ws);
        htsat_obs::counter!("alloc.gd_blocks").inc();
        loss.iter().sum()
    };

    // Warm-up: everything that may lazily allocate does so here — including
    // the first execution of the instrumented step, which registers its
    // metrics in the global registry.
    let mut row = rows[0];
    step(&mut row, &mut ws);
    kernel.loss_and_grad(&[0.5, 0.5, 0.5, 0.5], &mut grad, &mut ws);
    block_step(&mut blocks[..4 * LANES], &mut block_ws);

    ALLOCATIONS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let mut total = 0.0f64;
    for _ in 0..8 {
        for row in rows.iter_mut() {
            total += step(row, &mut ws);
        }
    }
    TRACKING.store(false, Ordering::SeqCst);
    let counted = ALLOCATIONS.load(Ordering::SeqCst);

    ALLOCATIONS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    for _ in 0..100 {
        for block in blocks.chunks_mut(4 * LANES) {
            total += block_step(block, &mut block_ws);
        }
    }
    TRACKING.store(false, Ordering::SeqCst);
    let counted_blocks = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(total.is_finite());
    assert_eq!(
        counted, 0,
        "fused GD inner loop (with instrumentation) allocated {counted} times over 2048 rows"
    );
    assert_eq!(htsat_obs::global().counter("alloc.gd_rows").get(), 2049);
    assert_eq!(htsat_obs::global().histogram("alloc.gd_step").count(), 2049);
    assert_eq!(
        counted_blocks, 0,
        "fused GD block step (with instrumentation) allocated {counted_blocks} times over 300 blocks"
    );
    assert_eq!(htsat_obs::global().counter("alloc.gd_blocks").get(), 301);
    println!("test fused_gd_step_performs_zero_allocations_per_row ... ok (0 allocations over 2048 instrumented rows)");
    println!("test fused_gd_block_performs_zero_allocations_per_block ... ok (0 allocations over 300 instrumented {LANES}-row blocks)");
}
