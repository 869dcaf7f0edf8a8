//! The bench ledger: every grid-bench bench records its numbers through
//! this module, in one schema.
//!
//! A bench builds its body as a JSON object and hands it to [`write()`],
//! which wraps it in the `bench/1` envelope
//! `{"schema":"bench/1","bench":<name>,"quick":…,"cpus":…, …body}` and
//! writes `BENCH_<name>.json` at the workspace root. `BENCH_QUICK=1`
//! ([`quick`]) is the one knob: it shrinks a bench's workload, never its
//! assertions. [`min_of`] is the shared timer.

use std::path::{Path, PathBuf};
use std::time::Instant;

use grid_metrics::RunOutcome;
use grid_ser::Value;

/// The envelope schema every committed `BENCH_*.json` carries.
const SCHEMA: &str = "bench/1";

/// Whether `BENCH_QUICK=1` asks for the smoke-sized workload.
pub fn quick() -> bool {
    quick_from(std::env::var("BENCH_QUICK").ok().as_deref())
}

fn quick_from(value: Option<&str>) -> bool {
    value == Some("1")
}

/// Fastest wall time, in ms, of `passes` runs of `run` (at least one).
///
/// Each pass takes a fresh input from `setup` and hands its output to
/// `check`; neither is timed. The minimum is the noise-robust estimator
/// for a deterministic workload: co-tenant load on a shared host only
/// ever slows a pass down.
pub fn min_of<I, O>(
    passes: usize,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> O,
    mut check: impl FnMut(O),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let input = setup();
        let t0 = Instant::now();
        let output = run(input);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        check(output);
    }
    best
}

/// FNV-1a over every field of every job record, in id order, then the
/// makespan: the byte-identity digest the benches pin their runs to.
pub fn outcome_digest(out: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in out.records.values() {
        mix(r.id.0);
        mix(r.submit.as_secs());
        mix(r.start.as_secs());
        mix(r.completion.as_secs());
        mix(r.cluster as u64);
        mix(u64::from(r.reallocations));
    }
    mix(out.makespan.as_secs());
    h
}

/// The CPUs this host offers the bench; a ledger records it because a
/// parallel result means nothing without it.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `body` (an object) inside the `bench/1` envelope.
fn envelope(bench: &str, quick: bool, body: Value) -> Value {
    let mut ledger = body;
    ledger.insert("schema", SCHEMA);
    ledger.insert("bench", bench);
    ledger.insert("quick", quick);
    ledger.insert("cpus", cpus());
    ledger
}

/// Write `body` as `BENCH_<bench>.json` at the workspace root.
pub fn write(bench: &str, body: Value) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the bench crate sits two levels below the workspace root");
    let path = write_in(root, bench, quick(), body);
    println!("bench: wrote {}", path.display());
}

fn write_in(dir: &Path, bench: &str, quick: bool, body: Value) -> PathBuf {
    let path = dir.join(format!("BENCH_{bench}.json"));
    let bytes = envelope(bench, quick, body).encode();
    std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_carries_schema_bench_quick_and_cpus() {
        let mut body = Value::object();
        body.insert("ms", 1.5);
        let ledger = envelope("demo", true, body);
        assert_eq!(ledger.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(ledger.get("bench").and_then(Value::as_str), Some("demo"));
        assert_eq!(ledger.get("quick").and_then(Value::as_bool), Some(true));
        assert!(ledger.get("cpus").and_then(Value::as_u64) >= Some(1));
        assert_eq!(ledger.get("ms").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    fn written_ledger_decodes_and_reencodes_identically() {
        let dir = std::env::temp_dir().join(format!("grid-bench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut row = Value::object();
        row.insert("tick_ms", 0.050696);
        row.insert("digest", "d42ec608496ab103");
        let mut body = Value::object();
        body.insert("layers", vec![row]);
        body.insert("total_ms", 3745.0);
        let path = write_in(&dir, "demo", false, body);
        assert_eq!(path, dir.join("BENCH_demo.json"));
        let bytes = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let decoded = Value::parse(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes);
        assert!(bytes.contains(r#""schema":"bench/1""#));
        assert!(bytes.contains(r#""bench":"demo""#));
    }

    #[test]
    fn quick_is_set_only_by_the_value_one() {
        assert!(quick_from(Some("1")));
        for other in [
            None,
            Some(""),
            Some("0"),
            Some("true"),
            Some("yes"),
            Some(" 1"),
        ] {
            assert!(!quick_from(other), "{other:?}");
        }
    }
}
