//! The benchmark's own checks, at a tiny size: the traced path must not
//! change behaviour, its self times must fit inside the engine's wall
//! clock, a wrong pin must be reported rather than panic, and the metric
//! lists must match `BENCHMARK.json`.

use hinet_perfbench::layers::traced_run;
use hinet_perfbench::workloads::{check_run, run, setup, Digest, Spec, Workload};
use hinet_perfbench::{measure, pins, END_TO_END, PER_LAYER};
use hinet_rt::bench::json::Json;

fn tiny(workload: Workload) -> Spec {
    let mut spec = Spec::new(workload, 42, 42);
    spec.n = 600;
    spec.k = 8;
    spec
}

#[test]
fn traced_runs_match_untraced_runs() {
    for w in Workload::ALL {
        let spec = tiny(w);
        let untraced = run(&spec, &mut setup(&spec));
        assert_eq!(check_run(&spec, &untraced), Vec::<String>::new());
        let traced = traced_run(&spec);
        assert_eq!(
            Digest::of(&untraced),
            Digest::of(&traced.out),
            "{}: the timing wrappers changed the run",
            w.name()
        );
        assert!(traced.protocol.messages > 0 && traced.dynamics_calls > 0);
    }
}

#[test]
fn self_times_fit_inside_the_engine_wall_clock() {
    for w in Workload::ALL {
        let t = traced_run(&tiny(w));
        let spans = (t.dynamics_ns + t.protocol.send_ns + t.protocol.receive_ns) as f64 / 1e9;
        assert!(
            spans <= t.out.engine_s,
            "{}: spans {spans} s exceed Engine::run {} s",
            w.name(),
            t.out.engine_s
        );
        assert!(t.engine_self_s() >= 0.0);
    }
}

#[test]
fn a_wrong_pin_is_reported_as_a_failure() {
    let spec = tiny(Workload::Alg1Churn);
    let pin = |tokens: u64| {
        Json::parse(&format!(
            r#"{{"alg1-churn": {{"n": 600, "k": 8, "seed": 42, "fault_seed": 42,
                "expect": {{"tokens_sent": {tokens}, "no_such_field": 1}}}}}}"#
        ))
        .expect("valid pins")
    };
    let m = measure(&spec, 0.0, false, &pin(1));
    assert!(!m.correct());
    assert_eq!(m.failed, 1, "only the pinned first run mismatches");
    assert!(m.errors.iter().any(|e| e.contains("tokens_sent")));
    assert!(m.errors.iter().any(|e| e.contains("no_such_field")));

    let tokens = m.digest.get("tokens_sent").expect("digest has tokens_sent");
    let errors = pins::check(&pin(tokens), &spec, &m.digest);
    assert_eq!(errors.len(), 1, "{errors:?}");
    let elsewhere = Spec { seed: 7, ..spec };
    assert!(pins::check(&pin(1), &elsewhere, &m.digest).is_empty());
}

#[test]
fn every_declared_metric_is_reported() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let manifest = Json::parse(&manifest).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));

    for w in Workload::ALL {
        let spec = tiny(w);
        for (trace, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let m = measure(&spec, 0.0, trace, &pins::committed());
            assert!(m.correct(), "{}: {:?}", w.name(), m.errors);
            let line = m.result_json(names).to_string();
            let parsed = Json::parse(&line).expect("result line parses");
            let metrics = parsed.get("metrics").expect("metrics");
            for &(name, _) in names {
                let v = metrics.get(name).and_then(|m| m.get("value"));
                assert!(v.and_then(Json::as_f64).is_some(), "{}: {name}", w.name());
            }
        }
    }
}

#[test]
fn committed_pins_cover_every_workload_at_its_default_seeds() {
    let pins = pins::committed();
    for w in Workload::ALL {
        let spec = Spec::new(w, 42, 42);
        let pin = pins::pin_for(&pins, &spec).expect("a pin per workload");
        let expect = pin.get("expect").expect("expected values");
        for field in ["tokens_sent", "packets_sent", "completion_rounds"] {
            assert!(expect.get(field).is_some(), "{}: {field}", w.name());
        }
    }
}
