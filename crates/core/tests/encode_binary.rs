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
    // A missing file is not a usage mistake: one error line, no usage.
    let stderr = failure(&["map", "/nonexistent.qasm"]);
    assert!(stderr.starts_with("qspr: cannot read"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    // An unknown flag and zero seeds are, and both show the usage text;
    // zero seeds fail before any mapping runs.
    let five = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../qecc/circuits/encode_5_1_3.qasm"
    );
    for (args, error) in [
        (
            &["map", "a.qasm", "--frob"][..],
            "qspr: unknown flag --frob\n",
        ),
        (
            &["map", five, "--m", "0"][..],
            "qspr: --m expects a positive number, got \"0\"\n",
        ),
    ] {
        let stderr = failure(args);
        assert!(stderr.starts_with(error), "{stderr}");
        assert!(stderr.contains("\nusage:\n"), "{stderr}");
    }
}
