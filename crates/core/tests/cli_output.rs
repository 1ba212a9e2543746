//! What the `qspr` binary writes to stdout: the committed greedy,
//! negotiated, fabric and Table 2 goldens under `tests/golden/`, byte
//! for byte, the same bytes at every seed-thread count, and nothing but
//! a quiet exit once the reader has gone away.

use std::io::Read;
use std::process::{Child, Command, Stdio};

/// The workspace root, where every `qspr` here runs.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// A committed file, relative to the workspace root.
fn workspace_file(path: &str) -> String {
    let full = format!("{ROOT}/{path}");
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {full}: {e}"))
}

/// Starts `qspr` with `args` in the workspace root, its stdout piped.
fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_qspr"))
        .args(args)
        .current_dir(ROOT)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qspr")
}

/// The stdout of each child in order, asserting that each succeeded.
fn stdouts(children: Vec<(String, Child)>) -> Vec<(String, String)> {
    children
        .into_iter()
        .map(|(what, child)| {
            let out = child.wait_with_output().expect("wait for qspr");
            assert!(out.status.success(), "{what}: {out:?}");
            (what, String::from_utf8(out.stdout).expect("UTF-8 stdout"))
        })
        .collect()
}

/// Asserts `got == want`, naming the first line that differs.
fn assert_same_bytes(what: &str, want: &str, got: &str) {
    if want == got {
        return;
    }
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.split('\n').collect(), got.split('\n').collect());
    let line = (0..want_lines.len().max(got_lines.len()))
        .find(|&i| want_lines.get(i) != got_lines.get(i))
        .expect("different texts differ on some line");
    panic!(
        "{what}: line {} differs from the golden\n  golden: {:?}\n     got: {:?}",
        line + 1,
        want_lines.get(line),
        got_lines.get(line),
    );
}

/// The golden commands of `router`: `qspr suite --m 25` at each of
/// `jobs` (output never depends on the thread count), and the four
/// `qspr map --m 25` runs (default `--jobs 1`) of the [[19,1,7]] and
/// [[23,1,7]] encoders under the qspr and quale policies, all at once;
/// each output is diffed with its file under `tests/golden/`.
fn assert_router_goldens(router: &str, jobs: &[&str]) {
    let circuits = format!("{}/../qecc/circuits", env!("CARGO_MANIFEST_DIR"));
    let mut children = Vec::new();
    for jobs in jobs {
        let args = [
            "suite", "--m", "25", "--router", router, "--jobs", jobs, "--format", "json",
        ];
        children.push((format!("{router} suite --jobs {jobs}"), spawn(&args)));
    }
    for policy in ["qspr", "quale"] {
        for code in ["19_1_7", "23_1_7"] {
            let file = format!("{circuits}/encode_{code}.qasm");
            let args = [
                "map", &file, "--m", "25", "--policy", policy, "--router", router, "--format",
                "json",
            ];
            children.push((
                format!("{router} map {code} --policy {policy}"),
                spawn(&args),
            ));
        }
    }
    let outputs = stdouts(children);
    let (suites, maps) = outputs.split_at(jobs.len());

    let suite = workspace_file(&format!("tests/golden/suite_m25_{router}.json"));
    for (what, got) in suites {
        assert_same_bytes(what, &suite, got);
    }
    for (golden, runs) in [
        (format!("map_m25_{router}.json"), &maps[..2]),
        (format!("map_m25_quale_{router}.json"), &maps[2..]),
    ] {
        let got: String = runs.iter().map(|(_, out)| out.as_str()).collect();
        let want = workspace_file(&format!("tests/golden/{golden}"));
        assert_same_bytes(&golden, &want, &got);
    }
}

/// The greedy goldens at `--jobs 1` and `--jobs 2`.
#[test]
fn greedy_outputs_match_the_committed_goldens() {
    assert_router_goldens("greedy", &["1", "2"]);
}

/// The negotiated goldens at `--jobs 1`. A negotiated debug suite takes
/// several seconds, so the `--jobs 2` runs stay in CI ("Paper-effort
/// golden", "Full-summary golden").
#[test]
fn negotiated_outputs_match_the_committed_goldens() {
    assert_router_goldens("negotiated", &["1"]);
}

/// `map` and `compare` of the [[7,1,3]] encoder (the file `qspr encode
/// 7,1,3` prints) at `--m 4` print the same bytes at `--jobs 1` and
/// `--jobs 2`, under both routers: MVFB seed threads never change an
/// answer.
#[test]
fn seed_threads_never_change_map_or_compare() {
    let steane = "crates/qecc/circuits/encode_7_1_3.qasm";
    let mut children = Vec::new();
    for cmd in ["map", "compare"] {
        for router in ["greedy", "negotiated"] {
            for jobs in ["1", "2"] {
                let args = [
                    cmd, steane, "--router", router, "--m", "4", "--jobs", jobs, "--format", "json",
                ];
                children.push((
                    format!("{cmd} --router {router} --jobs {jobs}"),
                    spawn(&args),
                ));
            }
        }
    }
    let outputs = stdouts(children);
    for pair in outputs.chunks(2) {
        let [(_, one), (what, two)] = pair else {
            unreachable!("outputs come in --jobs 1, --jobs 2 pairs")
        };
        assert_same_bytes(&format!("{what} against --jobs 1"), one, two);
    }
}

/// `tests/golden/fabrics.txt`: for the built-in fabric and each
/// committed `examples/fabrics/*.json` in name order, an `== F` line,
/// `qspr fabric --fabric F`, and `qspr map` of the [[5,1,3]] encoder
/// (the file `qspr encode 5,1,3` prints) on F at `--m 4` as JSON.
#[test]
fn fabric_outputs_match_the_committed_golden() {
    let mut fabrics: Vec<String> = std::fs::read_dir(format!("{ROOT}/examples/fabrics"))
        .expect("list examples/fabrics")
        .map(|entry| entry.expect("read examples/fabrics").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .map(|name| format!("examples/fabrics/{name}"))
        .collect();
    fabrics.sort();
    fabrics.insert(0, "quale45x85".to_owned());
    let five = "crates/qecc/circuits/encode_5_1_3.qasm";
    let mut children = Vec::new();
    for fabric in &fabrics {
        let args = ["fabric", "--fabric", fabric];
        children.push((format!("fabric {fabric}"), spawn(&args)));
        let args = [
            "map", five, "--fabric", fabric, "--m", "4", "--format", "json",
        ];
        children.push((format!("map on {fabric}"), spawn(&args)));
    }
    let outputs = stdouts(children);

    let mut got = String::new();
    for (fabric, runs) in fabrics.iter().zip(outputs.chunks(2)) {
        got += &format!("== {fabric}\n");
        for (_, out) in runs {
            got += out;
        }
    }
    assert_same_bytes(
        "fabrics.txt",
        &workspace_file("tests/golden/fabrics.txt"),
        &got,
    );
}

/// `tests/golden/table2_quick.txt`: `qspr table2 --m 5`, the suite
/// mapped under all three columns (baseline, QUALE, QSPR) on one fabric
/// in one process, so policies that share the fabric's bound tables
/// must map as they would alone.
#[test]
fn table2_matches_the_committed_golden() {
    let outputs = stdouts(vec![(
        "table2 --m 5".to_owned(),
        spawn(&["table2", "--m", "5"]),
    )]);
    assert_same_bytes(
        "table2_quick.txt",
        &workspace_file("tests/golden/table2_quick.txt"),
        &outputs[0].1,
    );
}

/// A reader that closes the pipe before the first byte (as `qspr sta
/// ... | head -c 0` would) ends the command quietly: exit status 0 and
/// nothing on stderr, not a "failed printing to stdout" panic.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let five = format!(
        "{}/../qecc/circuits/encode_5_1_3.qasm",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut child = spawn(&["sta", &five, "--m", "2", "--format", "json"]);
    // Close the read end before the child can have written: it maps
    // first, so its first write meets a pipe without a reader.
    drop(child.stdout.take());
    let mut stderr = String::new();
    let mut err = child.stderr.take().expect("piped stderr");
    err.read_to_string(&mut stderr).expect("read stderr");
    let status = child.wait().expect("wait for qspr");
    assert!(status.success(), "{status}: {stderr}");
    assert_eq!(stderr, "");
}
