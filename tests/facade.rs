//! Facade-crate surface test: every `capsacc::<module>` re-export path
//! must resolve, and the headline invariant documented in the crate-root
//! doctest (the Table I parameter count) must hold through the facade.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{timing, Accelerator, AcceleratorConfig, BatchRun, BatchScheduler};
use capsacc::fixed::{requantize, Fx8, NumericConfig};
use capsacc::gpu::GpuModel;
use capsacc::memory::{MemoryConfig, MemoryMode, MemorySubsystem, PrefetchPipeline, SpmKind};
use capsacc::mnist::SyntheticMnist;
use capsacc::power::PowerModel;
use capsacc::serve::{
    arrival_trace, simulate_runtime_resilient, BatcherConfig, Request, RuntimeConfig, ShardPool,
    TraceConfig,
};
use capsacc::tensor::{ConvGeometry, Tensor};

#[test]
fn reexport_paths_resolve_and_interoperate() {
    // fixed
    let x: Fx8<5> = Fx8::from_f32(0.5);
    assert_eq!(x.to_f32(), 0.5);
    assert_eq!(requantize(64, 6), 1);
    let ncfg = NumericConfig::default();

    // tensor
    let t = Tensor::from_fn(&[2, 2], |i| (i[0] + i[1]) as f32);
    assert_eq!(t.shape(), &[2, 2]);
    let _: &ConvGeometry = &CapsNetConfig::mnist().conv1_geometry();

    // mnist
    assert!(SyntheticMnist::new(1).sample(0).label < 10);

    // capsnet ← fixed (types from one re-export feed another)
    let net = CapsNetConfig::tiny();
    let qparams = CapsNetParams::generate(&net, 7).quantize(ncfg);
    assert_eq!(qparams.conv1_w.shape().len(), 4);

    // core ← capsnet
    let acc_cfg = AcceleratorConfig::test_4x4();
    let _ = Accelerator::new(acc_cfg);
    let report =
        timing::full_inference_batch(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 1);
    assert!(report.total_cycles() > 0);

    // core batch subsystem ← capsnet + tensor
    let image = Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
        (i[1] + i[2]) as f32 / 24.0
    });
    let mut sched = BatchScheduler::new(acc_cfg);
    let run: BatchRun = sched
        .run(&net, &qparams, &[image.clone(), image])
        .expect("valid batch");
    assert_eq!(run.traces.len(), 2);
    assert_eq!(run.traces[0], run.traces[1]);
    assert!(run.cycles_per_image() > 0.0);
    let batched =
        timing::full_inference_batch(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 16);
    assert!(batched.cycles_per_image() < report.total_cycles() as f64);

    // memory ← (standalone), and core ← memory
    assert_eq!(MemoryConfig::ideal().mode, MemoryMode::Ideal);
    let _ = MemorySubsystem::new(MemoryConfig::paper());
    let _ = PrefetchPipeline::new(2);
    assert_eq!(SpmKind::ALL.len(), 3);
    let mut mem_cfg = AcceleratorConfig::paper();
    mem_cfg.memory = MemoryConfig::paper();
    let mem_t = timing::full_inference_batch_mem(&mem_cfg, &CapsNetConfig::mnist(), 16);
    assert!(mem_t.report.stall_cycles > 0);
    assert!(mem_t.total_cycles() > mem_t.base.total_cycles());
    assert_eq!(
        timing::full_inference_batch_mem(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 1)
            .report
            .stall_cycles,
        0
    );

    // serve ← core + capsnet + tensor
    let rt = RuntimeConfig::offline(
        2,
        BatcherConfig {
            max_batch: 8,
            max_wait_cycles: 50_000,
        },
    );
    let requests: Vec<Request> = arrival_trace(&TraceConfig {
        seed: 3,
        requests: 32,
        mean_gap_cycles: 5_000.0,
        mean_burst: 2.0,
    })
    .into_iter()
    .map(Request::best_effort)
    .collect();
    let outcome = simulate_runtime_resilient(
        &AcceleratorConfig::paper(),
        &CapsNetConfig::mnist(),
        &rt,
        &requests,
    );
    assert_eq!(outcome.served.len(), 32);
    let [p50, p95, p99] = outcome.sim.latency_percentiles();
    assert!(p50 <= p95 && p95 <= p99);
    assert_eq!(ShardPool::new(acc_cfg, 2).workers(), 2);

    // gpu ← capsnet
    assert!(
        GpuModel::gtx1070()
            .layer_times_us(&CapsNetConfig::mnist())
            .total()
            > 0.0
    );

    // power ← core
    let table2 = PowerModel::cmos_32nm().table2(&AcceleratorConfig::paper());
    assert_eq!(table2.tech_node_nm, 32);
}

#[test]
fn table1_parameter_count_holds_through_facade() {
    // The invariant stated in the `capsacc` crate-root doctest.
    let cfg = CapsNetConfig::mnist();
    assert_eq!(cfg.total_parameters(), 6_804_224);
    // And its Table I decomposition (conv1 + primary + class caps).
    assert_eq!(
        cfg.conv1_parameters() + cfg.primary_caps_parameters() + cfg.class_caps_parameters(),
        cfg.total_parameters()
    );
}
