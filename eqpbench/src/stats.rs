//! Sample statistics and the open-loop arrival schedule.

/// The `q`-quantile (`0.0..=1.0`) of an unsorted sample, interpolating
/// linearly between the two nearest ranks. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of an unsorted sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Due times, in seconds from the start of the window, of an open loop
/// sending `rate` sessions per second at a fixed interval for `seconds`.
pub fn schedule(rate: f64, seconds: f64) -> Vec<f64> {
    if rate <= 0.0 || seconds <= 0.0 {
        return Vec::new();
    }
    (0u64..)
        .map(|i| i as f64 / rate)
        .take_while(|&due| due < seconds)
        .collect()
}

/// Whether an open loop's backlog grew over the window. `in_flight[i]`
/// is the number of sessions sent but not yet answered just before the
/// `i`-th send. The mean of the last quarter is compared with the mean
/// of the first quarter; `slack` absorbs the jitter of a stable queue
/// (a few sessions in service or just sent).
pub fn backlog_grew(in_flight: &[usize], slack: f64) -> bool {
    let quarter = in_flight.len() / 4;
    if quarter == 0 {
        return false;
    }
    let avg = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    let first = avg(&in_flight[..quarter]);
    let last = avg(&in_flight[in_flight.len() - quarter..]);
    last > 2.0 * first + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        let ys: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&ys, 0.9), Some(90.0));
        assert!((quantile(&[0.0, 10.0], 0.25).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_and_mean_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn schedule_is_a_fixed_interval_inside_the_window() {
        assert_eq!(schedule(4.0, 1.0), vec![0.0, 0.25, 0.5, 0.75]);
        assert_eq!(schedule(10.0, 12.0).len(), 120);
        assert!(schedule(0.0, 5.0).is_empty());
        assert!(schedule(3.0, 0.0).is_empty());
    }

    #[test]
    fn backlog_growth_is_detected_but_jitter_is_not() {
        let steady: Vec<usize> = (0..100).map(|i| 1 + i % 3).collect();
        assert!(!backlog_grew(&steady, 4.0));
        let growing: Vec<usize> = (0..100).map(|i| i / 4).collect();
        assert!(backlog_grew(&growing, 4.0));
        assert!(!backlog_grew(&[9, 9, 9], 4.0), "too short to judge");
    }
}
