//! The harness the `integration_golden_*` tests share: each pins what it
//! computes as lines of a file under `tests/golden/`, after a header of
//! `#` lines that describes them.
//!
//! `FEDGTA_GOLDEN_BLESS=1` rewrites a file's lines from the test (the
//! header is kept) instead of comparing them; commit the diff after an
//! intended change.

use std::path::PathBuf;

/// FNV-1a-64 over `bytes`: the little-endian bytes of what a line pins.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// The text of `tests/golden/<file>`, empty when there is none.
pub fn read(file: &str) -> String {
    std::fs::read_to_string(path(file)).unwrap_or_default()
}

/// Checks `got` against the lines of `tests/golden/<file>` that are not
/// blank or `#` — or, blessing, writes `got` under the file's header.
pub fn check(file: &str, got: &[String]) {
    let golden = read(file);
    if std::env::var_os("FEDGTA_GOLDEN_BLESS").is_some() {
        let mut text: String =
            golden.lines().filter(|l| l.starts_with('#')).map(|l| format!("{l}\n")).collect();
        text.extend(got.iter().map(|l| format!("{l}\n")));
        std::fs::write(path(file), text).unwrap();
        return;
    }
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).collect();
    assert_eq!(want.len(), got.len(), "{file}: line count, golden file vs test");
    for (w, g) in want.iter().zip(got) {
        assert_eq!(w, g, "{file}: golden line moved");
    }
}
