//! End-to-end tests of `qspr encode`: the binary prints the committed
//! benchmark circuits byte for byte and rejects unknown codes.

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
