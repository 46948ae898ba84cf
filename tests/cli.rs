//! End-to-end tests of the `mpx` CLI binary (cargo builds it for us;
//! `CARGO_BIN_EXE_mpx` points at it).

use std::process::Command;

fn mpx(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mpx"))
        .args(args)
        .output()
        .expect("run mpx");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn topo_describes_and_validates() {
    let (stdout, _, ok) = mpx(&["topo", "--topo", "narval"]);
    assert!(ok);
    assert!(stdout.contains("narval"));
    assert!(stdout.contains("NVLink-V3"));
    assert!(stdout.contains("validation: clean"));
}

#[test]
fn plan_prints_shares_and_prediction() {
    let (stdout, _, ok) = mpx(&["plan", "--topo", "beluga", "--size", "64M"]);
    assert!(ok);
    assert!(stdout.contains("direct"));
    assert!(stdout.contains("gpu-staged"));
    assert!(stdout.contains("predicted:"));
}

#[test]
fn bw_reports_bandwidth() {
    let (stdout, _, ok) = mpx(&["bw", "--size", "16M", "--mode", "single"]);
    assert!(ok);
    assert!(stdout.contains("GB/s"), "{stdout}");
}

#[test]
fn export_then_plan_via_file_roundtrips() {
    let dir = std::env::temp_dir().join("mpx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("beluga.json");
    let (json, _, ok) = mpx(&["export", "--topo", "beluga"]);
    assert!(ok);
    std::fs::write(&path, &json).unwrap();
    let (stdout, _, ok) = mpx(&[
        "plan",
        "--topo-file",
        path.to_str().unwrap(),
        "--size",
        "32M",
        "--paths",
        "3_GPUs",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("predicted:"));
}

#[test]
fn plan_json_emits_metrics_snapshot() {
    let (stdout, _, ok) = mpx(&["plan", "--topo", "beluga", "--size", "64M", "--json"]);
    assert!(ok, "{stdout}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert!(!v["entries"].as_array().expect("entries array").is_empty());
    assert!(stdout.contains("plan.predicted_us"), "{stdout}");
    assert!(stdout.contains("cache.misses"), "{stdout}");
}

#[test]
fn trace_writes_perfetto_trace_and_metrics() {
    let dir = std::env::temp_dir().join("mpx-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    let (stdout, stderr, ok) = mpx(&[
        "trace",
        "--topo",
        "beluga",
        "--size",
        "16M",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    // Summary line lists the phases present plus the residual table.
    assert!(stdout.contains("events"), "{stdout}");
    assert!(stdout.contains("dev0->dev1"), "{stdout}");
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let v: serde_json::Value = serde_json::from_str(&trace_text).expect("valid trace JSON");
    let events = v.as_array().expect("trace root is the event array");
    assert!(!events.is_empty());
    for phase in [
        "plan",
        "transfer",
        "chunk-leg",
        "recovery",
        "collective",
        "fault",
        "health",
        "hedge",
    ] {
        assert!(
            events.iter().any(|e| e["cat"].as_str() == Some(phase)),
            "no {phase} events in trace"
        );
    }
    // Rank and link tracks are announced via thread_name metadata.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e["name"].as_str() == Some("thread_name"))
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    assert!(names.iter().any(|t| t.starts_with("link:")), "{names:?}");
    assert!(names.iter().any(|t| t.starts_with("rank")), "{names:?}");
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    let m: serde_json::Value = serde_json::from_str(&metrics_text).expect("valid metrics JSON");
    let text = serde_json::to_string(&m).unwrap();
    assert!(text.contains("sim.flows_completed"), "{text}");
    assert!(text.contains("ucx.resilience.retries"), "{text}");
    assert!(text.contains("health.trips"), "{text}");
}

/// Blanks the host-timed `wall_us=<x>` field of the planner's trace
/// records; everything else in a trace is simulated.
fn mask_wall_us(trace: &str) -> String {
    let mut out = String::with_capacity(trace.len());
    let mut rest = trace;
    while let Some(i) = rest.find("wall_us=") {
        let (head, tail) = rest.split_at(i + "wall_us=".len());
        out.push_str(head);
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

#[test]
fn trace_repeats_every_simulated_metric_and_record() {
    let dir = std::env::temp_dir().join(format!("mpx-cli-repeat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, metrics) = (dir.join("trace.json"), dir.join("metrics.json"));
    let runs: Vec<(Vec<serde_json::Value>, String)> = (0..5)
        .map(|_| {
            let (stdout, stderr, ok) = mpx(&[
                "trace",
                "--topo",
                "beluga",
                "--size",
                "8M",
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]);
            assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
            let m: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            // `ucx.plan.cost_secs` times `plan_for` on the host clock.
            let simulated = m["entries"]
                .as_array()
                .expect("snapshot entries")
                .iter()
                .filter(|e| {
                    !e["name"]
                        .as_str()
                        .unwrap()
                        .starts_with("ucx.plan.cost_secs.")
                })
                .cloned()
                .collect();
            (
                simulated,
                mask_wall_us(&std::fs::read_to_string(&trace).unwrap()),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    for (i, (m, t)) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            m, &runs[0].0,
            "run {i}: simulated metrics differ from run 0"
        );
        assert!(t == &runs[0].1, "run {i}: trace records differ from run 0");
    }
}

#[test]
fn put_succeeds_on_a_healthy_fabric() {
    let (stdout, _, ok) = mpx(&["put", "--topo", "beluga", "--size", "32M"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("GB/s"), "{stdout}");
    assert!(stdout.contains("data intact"), "{stdout}");
}

/// A plain `put` on a fabric that loses its only path mid-transfer must
/// exit nonzero with the typed stuck diagnostic — the pre-supervision
/// behavior was a panic deep in the pipeline.
#[test]
fn put_on_a_severed_fabric_exits_with_stuck_error() {
    let dir = std::env::temp_dir().join("mpx-cli-put-test");
    std::fs::create_dir_all(&dir).unwrap();
    let faults = dir.join("kill.json");
    // `fault-plan --scenario kill` targets the staged path's forwarding
    // leg; with `--paths direct` the transfer has no alternative once
    // its own link dies, so build the plan against the direct route.
    let (plan_json, _, ok) = mpx(&[
        "fault-plan",
        "--topo",
        "beluga",
        "--size",
        "32M",
        "--paths",
        "direct",
        "--scenario",
        "kill",
    ]);
    assert!(ok, "{plan_json}");
    std::fs::write(&faults, &plan_json).unwrap();
    let (stdout, stderr, ok) = mpx(&[
        "put",
        "--topo",
        "beluga",
        "--size",
        "32M",
        "--paths",
        "direct",
        "--mode",
        "single",
        "--faults",
        faults.to_str().unwrap(),
    ]);
    assert!(!ok, "stuck put must fail: {stdout}");
    assert!(stderr.contains("transfer stuck"), "{stderr}");
}

/// The canned fault plans through the partitioned runner: `mpx partition`
/// replays each on a multi-component cluster serially and partitioned, and
/// exits nonzero unless the two runs are bit-identical. Each plan's faults
/// must fire there too.
#[test]
fn partition_replays_each_canned_fault_plan_bit_identically() {
    let dir = std::env::temp_dir().join(format!("mpx-cli-partition-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for scenario in ["degrade", "flap", "kill"] {
        let (plan, stderr, ok) = mpx(&[
            "fault-plan",
            "--topo",
            "beluga",
            "--paths",
            "3_GPUs",
            "--size",
            "64M",
            "--scenario",
            scenario,
        ]);
        assert!(ok, "{scenario}: {stderr}");
        let path = dir.join(format!("{scenario}.json"));
        std::fs::write(&path, &plan).unwrap();
        let (out, stderr, ok) = mpx(&["partition", "--faults", path.to_str().unwrap()]);
        assert!(ok, "{scenario}: stdout: {out}\nstderr: {stderr}");
        assert!(
            out.contains("bit-identical"),
            "{scenario}: not verified: {out}"
        );
        assert!(!out.contains("faults=0"), "{scenario}: never fired: {out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = mpx(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn bad_size_fails_cleanly() {
    let (_, stderr, ok) = mpx(&["plan", "--size", "lots"]);
    assert!(!ok);
    assert!(stderr.contains("bad size"));
}

#[test]
fn collective_command_predicts_and_measures() {
    let (stdout, _, ok) = mpx(&[
        "collective",
        "--op",
        "alltoall",
        "--size",
        "16M",
        "--paths",
        "3_GPUs",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("predicted"));
    assert!(stdout.contains("measured"));
}
