//! The percentile rule and the quartile arithmetic of the acceptance check.

use siren_benchmark::stats::{median, quartile_spread, quartiles, tail};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    // (samples, supported percentile)
    for (n, want) in [
        (5, 50.0),
        (19, 50.0),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1_000, 99.0),
        (9_999, 99.0),
        (10_000, 99.9),
    ] {
        let t = tail(&ramp(n));
        assert_eq!(t.percentile, want, "{n} samples");
        assert_eq!(t.samples, n, "sample count is reported");
    }
}

#[test]
fn tail_value_is_that_percentile() {
    let t = tail(&ramp(1_000));
    assert_eq!(t.percentile, 99.0);
    assert_eq!(t.value, 990.0);
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
    assert_eq!(
        quartiles(&[64.0, 1.0, 32.0, 2.0, 16.0, 4.0, 8.0]),
        [2.0, 8.0, 32.0]
    );
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
}

#[test]
fn spread_is_interquartile_distance_over_median() {
    assert_eq!(quartile_spread(&ramp(10)), (8.25 - 2.75) / 5.5);
}
