//! The correctness gate's building blocks: a 64-bit FNV-1a digest of a
//! report's `Debug` rendering that also spots `NaN`, the golden-digest
//! file, and the work counts every op must repeat exactly.

use std::fmt::{self, Debug, Write as _};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over everything written to it, tracking whether the text
/// ever contained `NaN`.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    hash: u64,
    window: u32,
    nan: bool,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: FNV_OFFSET,
            window: 0,
            nan: false,
        }
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.window = ((self.window << 8) | u32::from(b)) & 0x00ff_ffff;
            self.nan |= self.window == u32::from_be_bytes([0, b'N', b'a', b'N']);
        }
        Ok(())
    }
}

impl Digest {
    /// Feeds `value`'s `Debug` rendering.
    pub fn debug(mut self, value: &impl Debug) -> Self {
        let _ = write!(self, "{value:?}");
        self
    }

    /// Feeds raw text.
    pub fn text(mut self, text: &str) -> Self {
        let _ = self.write_str(text);
        self
    }

    /// The digest, or an error when the text contained `NaN`.
    pub fn finish(self) -> Result<u64, String> {
        if self.nan {
            Err("report contains NaN".to_owned())
        } else {
            Ok(self.hash)
        }
    }
}

/// The golden digests: one `<workload> <16 hex digits>` line per
/// workload, for seed 42 at full size.
pub const GOLDEN: &str = include_str!("golden.txt");

/// The seed the golden digests were made with.
pub const GOLDEN_SEED: u64 = 42;

/// `workload`'s digest in `golden`, if listed.
pub fn golden_digest(golden: &str, workload: &str) -> Option<u64> {
    golden.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload)
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}

/// `golden` with `workload`'s line set to `digest`; other lines keep
/// their order.
pub fn bless(golden: &str, workload: &str, digest: u64) -> String {
    let line = format!("{workload} {digest:016x}");
    let mut lines: Vec<String> = golden
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            if l.split_once(' ').is_some_and(|(name, _)| name == workload) {
                line.clone()
            } else {
                l.to_owned()
            }
        })
        .collect();
    if !lines.contains(&line) {
        lines.push(line);
    }
    lines.join("\n") + "\n"
}

/// Work counts one op reports. Deterministic programs repeat them
/// exactly, so every op of a run must report the same counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Layer-step records evaluated (offline grid).
    pub steps: u64,
    /// Simulator events fired (cluster runs).
    pub events: u64,
    /// Requests served.
    pub served: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests shed as expired.
    pub expired: u64,
    /// Candidates evaluated by a search.
    pub evaluated: u64,
    /// Candidates pruned by a search's bound.
    pub pruned: u64,
    /// Size of the planner's candidate lattice.
    pub candidates: u64,
    /// Full-length planner confirmation runs.
    pub confirmations: u64,
    /// Calibrations the planner ran.
    pub calibrations: u64,
    /// Spans in an exported request trace.
    pub spans: u64,
    /// Bytes of exported chrome-trace JSON.
    pub json_bytes: u64,
}

/// What a passing op leaves behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Digest of the op's normalized report.
    pub digest: u64,
    /// The op's work counts.
    pub counts: Counts,
    /// Share of the planner's own search time spent in confirmation
    /// runs, as the planner times it (`PlanReport::confirm_wall_ms`).
    pub confirm_share: f64,
}

/// `Err(what)` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Fails on an audit report with violations.
pub fn audit_clean(audit: Option<&simaudit::AuditReport>) -> Result<(), String> {
    match audit {
        Some(a) if !a.is_clean() => Err(format!("audit violations: {a}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read only through its `Debug` rendering.
    #[allow(dead_code)]
    #[derive(Debug)]
    struct Report {
        served: u64,
        latency: f64,
    }

    #[test]
    fn digest_is_the_fnv1a_reference_value() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().finish(), Ok(0xcbf2_9ce4_8422_2325));
        assert_eq!(
            Digest::default().text("a").finish(),
            Ok(0xaf63_dc4c_8601_ec8c)
        );
        assert_eq!(
            Digest::default().text("foobar").finish(),
            Ok(0x8594_4171_f739_67e8)
        );
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_one_field() {
        let r = Report {
            served: 100,
            latency: 1.5,
        };
        let d = Digest::default().debug(&r).finish();
        assert_eq!(d, Digest::default().debug(&r).finish());
        let served = Report { served: 101, ..r };
        assert_ne!(d, Digest::default().debug(&served).finish());
        let latency = Report {
            latency: 1.500_000_000_000_000_2,
            ..served
        };
        assert_ne!(
            Digest::default().debug(&served).finish(),
            Digest::default().debug(&latency).finish()
        );
    }

    #[test]
    fn digest_rejects_nan_even_across_writes() {
        let nan = Report {
            served: 1,
            latency: f64::NAN,
        };
        assert!(Digest::default().debug(&nan).finish().is_err());
        assert!(Digest::default().text("Na").text("N").finish().is_err());
        assert!(Digest::default().text("Nan NAN").finish().is_ok());
    }

    #[test]
    fn golden_lines_parse_and_bless_in_place() {
        let golden = "a 00000000000000ff\nb 0000000000000010\n";
        assert_eq!(golden_digest(golden, "b"), Some(16));
        assert_eq!(golden_digest(golden, "c"), None);
        let blessed = bless(golden, "a", 1);
        assert_eq!(blessed, "a 0000000000000001\nb 0000000000000010\n");
        assert_eq!(golden_digest(&bless(&blessed, "c", 2), "c"), Some(2));
        assert_eq!(bless("", "a", 3), "a 0000000000000003\n");
    }
}
