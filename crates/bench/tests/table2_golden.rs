//! `table2 --quick` reproduces the committed `tests/golden/table2_quick.txt`
//! byte for byte: the suite mapped under all three policies on one
//! fabric in one process, so policies that share the fabric's bound
//! tables must map as they would alone.

use std::process::Command;

#[test]
fn table2_quick_matches_the_committed_golden() {
    let golden = format!(
        "{}/../../tests/golden/table2_quick.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("read {golden}: {e}"));
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .arg("--quick")
        .output()
        .expect("run table2");
    assert!(out.status.success(), "{out:?}");
    let got = String::from_utf8(out.stdout).expect("UTF-8 table");
    if want != got {
        let (want, got): (Vec<&str>, Vec<&str>) =
            (want.split('\n').collect(), got.split('\n').collect());
        let line = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .expect("different texts differ on some line");
        panic!(
            "line {} differs from the golden\n  golden: {:?}\n     got: {:?}",
            line + 1,
            want.get(line),
            got.get(line),
        );
    }
}
