//! The per-layer metrics of a traced run: `(name, unit)`, as listed in
//! `BENCHMARK.json`. A layer is a crate or module of the program.
//!
//! Every traced run prints every name. A workload reports the layers
//! it enters; a layer it never enters reads 0 there, which is also the
//! prediction for that pairing ("no move"). `README.md` says which
//! end-to-end metric each of these should move, on which workload.

pub const PER_LAYER: [(&str, &str); 77] = [
    // models
    ("models.build_model_s", "s"),
    // stoch
    ("stoch.ph_fit_ns", "ns"),
    ("stoch.sample_ns", "ns"),
    // des
    ("des.queue_ns_per_event", "ns"),
    ("des.cancel_ns", "ns"),
    // san
    ("san.events_per_s", "1/s"),
    ("san.ns_per_rep", "ns"),
    ("san.replicate_efficiency", "ratio"),
    ("san.reps_for_1pct_ci", "count"),
    ("san.discarded", "count"),
    ("san.reps_per_s_n3", "1/s"),
    ("san.reps_per_s_n5", "1/s"),
    ("san.reps_per_s_n7", "1/s"),
    ("san.reps_per_s_n9", "1/s"),
    ("san.reps_per_s_n11", "1/s"),
    // solve.graph (+ intern, pack)
    ("explore.s", "s"),
    ("explore.states", "count"),
    ("explore.ns_per_state", "ns"),
    ("explore.ns_per_transition", "ns"),
    ("explore.bytes_per_state", "B"),
    ("explore.t1_s", "s"),
    ("explore.speedup_t2", "ratio"),
    ("explore.dedup_hit_ratio", "ratio"),
    // solve.ddd / solve.spill / resilience
    ("ooc.explore_s", "s"),
    ("ooc.vs_resident_ratio", "ratio"),
    ("ooc.sorted_runs", "count"),
    ("ooc.merge_bytes", "B"),
    ("ooc.pager_hit_ratio", "ratio"),
    ("ooc.retries", "count"),
    // solve.ctmc
    ("generator.build_s", "s"),
    ("generator.rates", "count"),
    ("generator.ns_per_rate", "ns"),
    ("generator.bytes_per_rate", "B"),
    ("generator.rebuild_values_s", "s"),
    ("generator.transpose_s", "s"),
    // solve.kron
    ("kron.spmv_ns_per_nnz", "ns"),
    ("kron.build_peak_bytes", "B"),
    // solve.spmv
    ("spmv.ns_per_nnz_t1", "ns"),
    ("spmv.ns_per_nnz_t2", "ns"),
    ("spmv.t_ns_per_nnz", "ns"),
    ("spmv.gbps_computed", "GB/s"),
    // solve.steady
    ("gs_solve_s", "s"),
    ("jacobi_solve_s", "s"),
    ("steady.gs_iters", "count"),
    ("steady.jacobi_iters", "count"),
    ("steady.ns_per_rate_iter", "ns"),
    // solve.krylov
    ("krylov_solve_s", "s"),
    ("krylov.iters", "count"),
    ("krylov.matvecs", "count"),
    ("krylov.precond_s", "s"),
    // solve.transient
    ("cdf_point_s", "s"),
    ("transient.terms", "count"),
    ("transient.ns_per_rate_term", "ns"),
    // solve.cache / experiments.campaign
    ("campaign.cold_point_ms", "ms"),
    ("campaign.warm_build_ms", "ms"),
    ("campaign.warm_solve_ms", "ms"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.warm_iters", "count"),
    ("campaign.cold_iters", "count"),
    ("cache.rebuild_rates_s", "s"),
    // netsim
    ("netsim.ns_per_delivery", "ns"),
    // neko / core / fd / testbed
    ("testbed.execs_per_s", "1/s"),
    ("testbed.sim_ms_per_host_s", "ms/s"),
    ("core.rounds_per_exec", "count"),
    ("fd.t_mr_ms", "ms"),
    ("fd.t_m_ms", "ms"),
    ("testbed.undecided_ratio", "ratio"),
    ("testbed.execs_per_s_n3", "1/s"),
    ("testbed.execs_per_s_n5", "1/s"),
    ("testbed.execs_per_s_n9", "1/s"),
    ("testbed.execs_per_s_n17", "1/s"),
    // both engines against each other
    ("model.ph_gap_rel", "ratio"),
    // harness
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    // the host, not the program (see `host.rs`)
    ("host.alu_ms", "ms"),
    ("host.chase_ms", "ms"),
];
