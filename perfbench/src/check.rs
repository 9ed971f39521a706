//! Output checks, the seeded generator, and host facts.

use std::time::{Duration, Instant};

/// Seeded vectors per product check.
pub const CHECK_VECTORS: u64 = 2;

/// xorshift64*: the benchmark's only source of randomness, so one seed
/// reproduces every input and every arrival.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, zero included).
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in [-1, -0.25] ∪ [0.25, 1]: never near zero, so a wrong
    /// entry always shows in a product with it.
    pub fn signed(&mut self) -> f64 {
        let m = 0.25 + 0.75 * self.unit();
        if self.next_u64() & 1 == 0 {
            m
        } else {
            -m
        }
    }
}

/// `y = M·x` for a row-major `nb × nb` grid of row-major `bs × bs` tiles;
/// with `abs`, every entry of `M` and `x` is taken by magnitude.
fn tiled_matvec(tiles: &[Vec<f64>], nb: usize, bs: usize, x: &[f64], abs: bool) -> Vec<f64> {
    let mut y = vec![0.0; nb * bs];
    for ti in 0..nb {
        for tj in 0..nb {
            let tile = &tiles[ti * nb + tj];
            let xs = &x[tj * bs..(tj + 1) * bs];
            for r in 0..bs {
                let row = &tile[r * bs..(r + 1) * bs];
                let dot: f64 = if abs {
                    row.iter().zip(xs).map(|(m, v)| (m * v).abs()).sum()
                } else {
                    row.iter().zip(xs).map(|(m, v)| m * v).sum()
                };
                y[ti * bs + r] += dot;
            }
        }
    }
    y
}

/// Randomized O(n²) check that `C = A·B` for tiled matrices: compares
/// `C·x` with `A·(B·x)` for [`CHECK_VECTORS`] seeded vectors `x`. Each
/// row's tolerance is a rounding-error bound, `64·n·ε` times that row
/// of `|A|·(|B|·|x|)`, so one wrong entry of `C` fails the check.
///
/// # Errors
/// Describes the first row whose residual exceeds its bound.
pub fn product_check(
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    c: &[Vec<f64>],
    nb: usize,
    bs: usize,
    seed: u64,
) -> Result<(), String> {
    let n = nb * bs;
    for v in 0..CHECK_VECTORS {
        let mut rng = Rng::new(seed ^ (v + 1).wrapping_mul(0xC3A5_C85C_97CB_3127));
        let x: Vec<f64> = (0..n).map(|_| rng.signed()).collect();
        let cx = tiled_matvec(c, nb, bs, &x, false);
        let abx = tiled_matvec(a, nb, bs, &tiled_matvec(b, nb, bs, &x, false), false);
        let scale = tiled_matvec(a, nb, bs, &tiled_matvec(b, nb, bs, &x, true), true);
        let gamma = 64.0 * n as f64 * f64::EPSILON;
        for i in 0..n {
            let residual = (cx[i] - abx[i]).abs();
            if residual.is_nan() || residual > gamma * scale[i] {
                return Err(format!(
                    "C·x differs from A·(B·x) in row {i} (vector {v}): residual {residual:e}, \
                     bound {:e}",
                    gamma * scale[i]
                ));
            }
        }
    }
    Ok(())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak resident set counter to the current resident set;
/// false where the kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Per-interval samples of the host over a measured phase: the peak
/// resident set, with the counter reset at every interval boundary, and
/// the share of CPU time the hypervisor stole.
///
/// On a shared virtual machine the hypervisor's steal comes in bursts
/// that slow every layer at once. [`Intervals::quiet`] marks the
/// intervals whose steal share is at most the median interval's, so a
/// figure taken over them measures versa rather than its neighbours.
pub struct Intervals {
    interval: Duration,
    next: Instant,
    resets: bool,
    ticks: Option<(u64, u64)>,
    peaks_mb: Vec<f64>,
    steal: Vec<f64>,
}

impl Intervals {
    /// Start the first interval now.
    pub fn start(interval: Duration) -> Intervals {
        Intervals {
            interval,
            next: Instant::now() + interval,
            resets: reset_peak_rss(),
            ticks: cpu_ticks(),
            peaks_mb: Vec::new(),
            steal: Vec::new(),
        }
    }

    /// Close the interval if it is over.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if now >= self.next {
            self.close();
            // Keep a fixed cadence unless a whole interval was missed.
            self.next = (self.next + self.interval).max(now);
        }
    }

    fn close(&mut self) {
        self.peaks_mb.push(peak_rss_mb());
        self.resets = self.resets && reset_peak_rss();
        let ticks = cpu_ticks();
        self.steal.push(steal_share(self.ticks, ticks));
        self.ticks = ticks;
    }

    /// Steal share of the last closed interval (-1 when unknown).
    pub fn last_steal(&self) -> f64 {
        self.steal.last().copied().unwrap_or(-1.0)
    }

    /// Median interval peak resident set, the last partial interval
    /// closed first, MiB. Where the counter cannot be reset, the
    /// process's peak.
    pub fn peak_rss_mb(&mut self) -> f64 {
        self.close();
        if self.resets {
            crate::stats::median(&self.peaks_mb)
        } else {
            peak_rss_mb()
        }
    }

    /// Which of the first `n` closed intervals are quiet.
    pub fn quiet(&self, n: usize) -> Vec<bool> {
        let mut q = quiet(&self.steal[..n.min(self.steal.len())]);
        q.resize(n, false);
        q
    }
}

/// The quieter half of a run's intervals, given each one's steal share:
/// those at or below the median. All of them when the host does not
/// report steal.
pub fn quiet(steal: &[f64]) -> Vec<bool> {
    if steal.is_empty() || steal.iter().any(|s| *s < 0.0) {
        return vec![true; steal.len()];
    }
    let mid = crate::stats::median(steal);
    steal.iter().map(|s| *s <= mid).collect()
}

/// The `share` of a run's intervals that completed the most work, given
/// each one's work done (at least one interval; ties with the last one
/// kept are kept too).
///
/// A closed loop's throughput is set by how fast the host runs it, and
/// on a shared host that changes from second to second without showing
/// as steal: a neighbour on the same physical core or cache slows every
/// layer at once. Noise only ever slows a closed loop, so its fastest
/// intervals are the ones that measure versa.
pub fn fastest(work: &[f64], share: f64) -> Vec<bool> {
    let mut sorted = work.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((work.len() as f64 * share).ceil() as usize).clamp(1, work.len().max(1));
    let Some(&floor) = sorted.get(k - 1) else {
        return Vec::new();
    };
    work.iter().map(|w| *w >= floor).collect()
}

/// The one-minute load average, or -1 where the host does not say.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// Cumulative CPU time of the host as `(all, steal)` clock ticks, from
/// the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// Share of CPU time the hypervisor stole between two [`cpu_ticks`]
/// readings, or -1 where the host does not say.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => -1.0,
    }
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa::kernels::gemm::dgemm_naive;
    use versa::kernels::verify::random_matrix_f64;

    fn tiled_product(nb: usize, bs: usize) -> [Vec<Vec<f64>>; 3] {
        let a: Vec<Vec<f64>> = (0..nb * nb)
            .map(|t| random_matrix_f64(bs, 10 + t as u64))
            .collect();
        let b: Vec<Vec<f64>> = (0..nb * nb)
            .map(|t| random_matrix_f64(bs, 90 + t as u64))
            .collect();
        let mut c = vec![vec![0.0; bs * bs]; nb * nb];
        for i in 0..nb {
            for j in 0..nb {
                for k in 0..nb {
                    dgemm_naive(&a[i * nb + k], &b[k * nb + j], &mut c[i * nb + j], bs);
                }
            }
        }
        [a, b, c]
    }

    #[test]
    fn correct_product_passes() {
        let [a, b, c] = tiled_product(3, 16);
        for seed in 0..20 {
            product_check(&a, &b, &c, 3, 16, seed).expect("a correct product passes");
        }
    }

    #[test]
    fn one_corrupted_tile_fails() {
        let [a, b, mut c] = tiled_product(3, 16);
        // A rounding-sized error passes; a real one in any tile fails.
        c[4][17] += 1e-13;
        product_check(&a, &b, &c, 3, 16, 7).expect("rounding noise is tolerated");
        for tile in 0..9 {
            let mut bad = c.clone();
            bad[tile][(tile * 37) % 256] += 1e-3;
            assert!(
                product_check(&a, &b, &bad, 3, 16, 7).is_err(),
                "tile {tile} corrupted"
            );
        }
        c[8][255] = f64::NAN;
        assert!(product_check(&a, &b, &c, 3, 16, 7).is_err(), "NaN fails");
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |s| (0..4).map(|_| Rng::new(s).next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(3), draw(3));
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
        let mut r = Rng::new(0);
        assert!((0..1000).all(|_| {
            let v = r.signed();
            (0.25..=1.0).contains(&v.abs())
        }));
    }

    #[test]
    fn host_facts_are_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let mut iv = Intervals::start(Duration::ZERO);
        iv.tick();
        assert!(iv.peak_rss_mb() > 0.0);
        assert_eq!(iv.quiet(2).len(), 2);
    }

    #[test]
    fn quiet_half_is_at_or_below_the_median_steal() {
        assert_eq!(quiet(&[0.01, 0.2, 0.0, 0.05]), [true, false, true, false]);
        assert_eq!(quiet(&[0.1, 0.1, 0.1]), [true, true, true]);
        assert_eq!(
            quiet(&[-1.0, 0.3]),
            [true, true],
            "unknown steal keeps everything"
        );
    }

    #[test]
    fn fastest_keeps_the_top_share_of_intervals() {
        let work = [5.0, 9.0, 7.0, 8.0, 1.0, 6.0, 9.5, 2.0];
        assert_eq!(
            fastest(&work, 0.25),
            [false, true, false, false, false, false, true, false]
        );
        assert_eq!(fastest(&work, 0.3).iter().filter(|k| **k).count(), 3);
        assert_eq!(fastest(&[3.0], 0.25), [true], "at least one interval");
        assert_eq!(fastest(&[4.0, 4.0, 1.0], 0.25), [true, true, false]);
        assert!(fastest(&[], 0.25).is_empty());
    }
}
