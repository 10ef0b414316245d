//! Streaming into a core model equals recording and replaying.
//!
//! Cells whose execution is replayed exactly once (fig04-style
//! attribution, fig14-style nursery points) run straight into the core
//! model instead of recording a trace first. That is sound only because
//! both cores consume nothing but `OpSink::op`, so a live run and a
//! `TraceBuffer::replay` feed them the same calls. This pins it: for a
//! few Tiny workloads under each modeled Python run-time, the statistics
//! of a streamed run equal those of the recorded trace's replay, on the
//! simple core and on the OOO core, at the default nursery and a smaller
//! one.

use qoa::core::{capture, run_with_sink, RuntimeConfig};
use qoa::model::RuntimeKind;
use qoa::uarch::{OooCore, SimpleCore, UarchConfig};
use qoa::workloads::{by_name, Scale};

const WORKLOADS: [&str; 2] = ["go", "telco"];

const RUNTIMES: [RuntimeKind; 3] =
    [RuntimeKind::CPython, RuntimeKind::PyPyNoJit, RuntimeKind::PyPyJit];

#[test]
fn streamed_cores_match_replayed_traces() {
    let uarch = UarchConfig::skylake();
    for name in WORKLOADS {
        let source = by_name(name).expect("workload").source(Scale::Tiny);
        for kind in RUNTIMES {
            let rt = RuntimeConfig::new(kind);
            let run = capture(&source, &rt).expect("captures");
            let (simple, ..) =
                run_with_sink(&source, &rt, SimpleCore::new(&uarch)).expect("streams");
            assert_eq!(
                simple.finish(),
                run.trace.simulate_simple(&uarch),
                "{name} under {kind}: simple core"
            );
            let mut configs = vec![("default nursery", rt, run)];
            if kind != RuntimeKind::CPython {
                // CPython has no nursery; the override is ignored there.
                let small = rt.with_nursery(32 << 10);
                let run_small = capture(&source, &small).expect("captures");
                assert_ne!(
                    run_small.vm.gc.minor_collections, configs[0].2.vm.gc.minor_collections,
                    "{name} under {kind}: the smaller nursery must change GC behaviour"
                );
                configs.push(("32 kB nursery", small, run_small));
            }
            for (label, rt, run) in configs {
                let (ooo, vm, ..) =
                    run_with_sink(&source, &rt, OooCore::new(&uarch)).expect("streams");
                assert_eq!(
                    ooo.finish(),
                    run.trace.simulate_ooo(&uarch),
                    "{name} under {kind}, {label}: OOO core"
                );
                assert_eq!(vm.gc, run.vm.gc, "{name} under {kind}, {label}: GC counters");
            }
        }
    }
}
