//! Resident-set readings from `/proc/self/status`.  The driver runs each
//! workload in a process of its own, so `VmHWM` is that workload's exact peak
//! and no sampler thread is needed.

fn read_field(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark needs /proc/self/status (Linux) for its memory metrics");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .unwrap_or_else(|| panic!("no {field} line in /proc/self/status"))
}

/// Current resident set (`VmRSS`), in bytes.
pub fn current_bytes() -> f64 {
    read_field("VmRSS:")
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
pub fn peak_bytes() -> f64 {
    read_field("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_at_least_current_and_both_are_plausible() {
        let current = current_bytes();
        let peak = peak_bytes();
        assert!(current > 100.0 * 1024.0, "{current}");
        assert!(peak >= current * 0.5, "{peak} vs {current}");
    }
}
