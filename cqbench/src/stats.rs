//! Small numeric helpers: quantiles, the seeded item order, peak memory.

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples; 0 for
/// an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which pass `pass` visits `n` items: a Fisher–Yates shuffle
/// driven by the run's seed. The seed changes only the order, never the
/// input set.
pub fn permutation(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a 64 of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
