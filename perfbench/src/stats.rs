//! Sample summaries: medians, percentiles and the tail percentile the
//! benchmark reports.

/// Percentiles tried for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples needed beyond a percentile before it may be reported as a tail.
const TAIL_BEYOND: usize = 10;

/// A growing set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

/// A tail: which percentile was reported, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub count: usize,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle values for an even count); 0 when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The `p`-th percentile (nearest rank); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`TAIL_BEYOND`] samples above it (nearest-rank). With too few samples
    /// for any of them the maximum is reported, as percentile 100.
    pub fn tail(&self) -> Tail {
        let v = self.sorted();
        let count = v.len();
        for p in TAIL_LADDER {
            let rank = ((p / 100.0) * count as f64).ceil() as usize;
            if rank >= 1 && count - rank >= TAIL_BEYOND {
                return Tail {
                    percentile: p,
                    value: v[rank - 1],
                    count,
                };
            }
        }
        Tail {
            percentile: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples(5).median(), 3.0);
        assert_eq!(samples(4).median(), 2.5);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(samples(8).percentile(25.0), 2.0);
        assert_eq!(samples(9).percentile(25.0), 3.0);
        assert_eq!(samples(1).percentile(25.0), 1.0);
        assert_eq!(Samples::default().percentile(25.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let t = samples(1000).tail();
        assert_eq!((t.percentile, t.value, t.count), (99.0, 990.0, 1000));
        let t = samples(200).tail();
        assert_eq!((t.percentile, t.value), (95.0, 190.0));
        let t = samples(20).tail();
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
        let t = samples(12).tail();
        assert_eq!((t.percentile, t.value), (100.0, 12.0));
    }
}
