//! Host-side helpers: process memory, a stable digest, and order
//! statistics.

use std::time::Instant;

/// Reads one `kB` field of `/proc/self/status` as MiB (0 when the file
/// or field is absent, e.g. off Linux).
fn status_mib(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident memory of this process (`VmRSS`), in MiB.
#[must_use]
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// 64-bit FNV-1a: a digest that is the same on every host and Rust
/// version (unlike `DefaultHasher`), for comparing simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string and a separator into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Host nanoseconds per operation of `run`, timed over repeated
/// batches until `budget_s` seconds have passed (at least five
/// batches). `prep` builds each batch's inputs outside the timed
/// region; `run` consumes them and returns how many operations it
/// performed. The median batch is reported so one preempted batch
/// cannot skew the figure.
pub fn ns_per_op<T>(
    budget_s: f64,
    mut prep: impl FnMut() -> T,
    mut run: impl FnMut(T) -> u64,
) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let input = prep();
        let t = Instant::now();
        let ops = std::hint::black_box(run(std::hint::black_box(input)));
        per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&per_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
