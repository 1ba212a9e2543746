//! End-to-end tests of `qspr encode`: the binary prints the committed
//! benchmark circuits byte for byte and rejects unknown codes; and of
//! how the binary reports a failed command on stderr.

use std::process::{Command, Output};

use qspr::qecc::codes::ENCODERS;

fn encode(code: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qspr"))
        .args(["encode", code])
        .output()
        .expect("run qspr encode")
}

fn stdout(out: Output) -> String {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 QASM")
}

#[test]
fn encode_prints_every_committed_circuit() {
    for (name, _, text) in ENCODERS {
        let bare = name.trim_matches(['[', ']']);
        assert_eq!(stdout(encode(bare)), text, "{name}");
    }
    assert_eq!(stdout(encode("[[7,1,3]]")), ENCODERS[1].2);
}

#[test]
fn encode_rejects_an_unknown_code() {
    let out = encode("4,1,2");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert!(stderr.contains("unknown code \"4,1,2\""), "{stderr}");
}

/// The committed [[5,1,3]] encoder.
const FIVE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../qecc/circuits/encode_5_1_3.qasm"
);

/// Runs `qspr` with `args`, asserts exit status 1 and returns stderr.
fn failure(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_qspr"))
        .args(args)
        .output()
        .expect("run qspr");
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    String::from_utf8(out.stderr).expect("UTF-8 stderr")
}

#[test]
fn usage_text_follows_only_usage_errors() {
    // A file that cannot be read or written is not a usage mistake:
    // one error line naming what failed, no usage. The trace is written
    // after the program mapped.
    let write = [
        "map",
        FIVE,
        "--m",
        "2",
        "--dump-trace",
        "/nonexistent/dir/t.json",
    ];
    for (args, error) in [
        (
            &["map", "/nonexistent.qasm"][..],
            "cannot read /nonexistent.qasm",
        ),
        (&write[..], "cannot write /nonexistent/dir/t.json"),
    ] {
        let stderr = failure(args);
        assert!(stderr.starts_with(&format!("qspr: {error}: ")), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    // An unknown flag, a policy that does not exist, zero seeds and a
    // seed count that is not a number are, and all show the usage text;
    // each fails before any mapping runs.
    for (args, error) in [
        (
            &["map", "a.qasm", "--frob"][..],
            "qspr: unknown flag --frob\n",
        ),
        (&["map", FIVE, "--sta"][..], "qspr: unknown flag --sta\n"),
        (
            &["map", FIVE, "--policy", "qpos"][..],
            "qspr: unknown policy \"qpos\" (expected qspr or quale)\n",
        ),
        (
            &["map", FIVE, "--m", "0"][..],
            "qspr: --m expects a positive number, got \"0\"\n",
        ),
        (
            &["table2", "--m", "0"][..],
            "qspr: --m expects a positive number, got \"0\"\n",
        ),
        (
            &["table2", "--m", "1OO"][..],
            "qspr: --m expects a positive number, got \"1OO\"\n",
        ),
        (&["table1", "--quick"][..], "qspr: unknown flag --quick\n"),
    ] {
        let stderr = failure(args);
        assert!(stderr.starts_with(error), "{stderr}");
        assert!(stderr.contains("\nusage:\n"), "{stderr}");
    }
}
