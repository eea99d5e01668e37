//! Coloring results.

use std::sync::Arc;

/// The color assignment `C : V → N`. Colors are 1-based; `0` means
/// "uncolored" (the GPU codes' `invalidColor`). A finished run never
/// leaves a vertex at 0.
///
/// A finished coloring is never written again, so the array is shared:
/// cloning a `Coloring` (a cache hit, a stored result, a reply) bumps a
/// reference count instead of copying `n` colors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Arc<[u32]>,
}

impl Coloring {
    /// Wraps a finished color array.
    pub fn new(colors: Vec<u32>) -> Self {
        Coloring {
            colors: colors.into(),
        }
    }

    /// Color of vertex `v`.
    #[inline]
    pub fn color(&self, v: u32) -> u32 {
        self.colors[v as usize]
    }

    /// Underlying array.
    pub fn as_slice(&self) -> &[u32] {
        &self.colors
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// True when there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Number of *distinct* colors used (the paper's quality metric).
    pub fn num_colors(&self) -> u32 {
        count_distinct(&self.colors)
    }

    /// Whether any vertex is still uncolored.
    pub fn has_uncolored(&self) -> bool {
        self.colors.contains(&0)
    }

    /// Vertices grouped by color, ascending color order — the schedule a
    /// chromatic-scheduling client iterates over.
    pub fn color_classes(&self) -> Vec<(u32, Vec<u32>)> {
        let mut map = std::collections::BTreeMap::<u32, Vec<u32>>::new();
        for (v, &c) in self.colors.iter().enumerate() {
            map.entry(c).or_default().push(v as u32);
        }
        map.into_iter().collect()
    }

    /// Size statistics of the color classes: `(min, max, mean)` — the
    /// available parallelism profile of a chromatic schedule.
    pub fn class_size_stats(&self) -> (usize, usize, f64) {
        let classes = self.color_classes();
        if classes.is_empty() {
            return (0, 0, 0.0);
        }
        let sizes: Vec<usize> = classes.iter().map(|(_, c)| c.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        (min, max, mean)
    }
}

/// Number of distinct non-zero values in `colors` — the color count of
/// a (possibly partial) coloring, `0` being "uncolored".
///
/// One pass sets a bit per value in a bitmap sized by the largest value
/// seen; colorings use few colors, so it stays a few words. A value
/// larger than `colors.len()` switches to sort + dedup instead, so
/// memory stays bounded by the input whatever the values.
pub fn count_distinct(colors: &[u32]) -> u32 {
    let mut bits: Vec<u64> = Vec::new();
    for &c in colors {
        let (word, bit) = (c as usize / 64, c % 64);
        if word >= bits.len() {
            if c as usize > colors.len() {
                let mut seen: Vec<u32> = colors.iter().copied().filter(|&c| c != 0).collect();
                seen.sort_unstable();
                seen.dedup();
                return seen.len() as u32;
            }
            bits.resize(word + 1, 0);
        }
        bits[word] |= 1u64 << bit;
    }
    if let Some(first) = bits.first_mut() {
        *first &= !1;
    }
    bits.iter().map(|w| w.count_ones()).sum()
}

/// Everything a coloring run reports: the assignment plus the metrics the
/// paper's tables and figures are built from.
#[derive(Clone, Debug)]
pub struct ColoringResult {
    pub coloring: Coloring,
    /// Distinct colors used.
    pub num_colors: u32,
    /// Outer iterations of the algorithm.
    pub iterations: u32,
    /// Modeled GPU (or CPU) runtime in milliseconds.
    pub model_ms: f64,
    /// Kernel launches performed (0 for CPU baselines).
    pub kernel_launches: u64,
    /// Kernel-level profile of the run (GPU implementations attach their
    /// device's snapshot; CPU baselines report `None`). The serving layer
    /// derives its per-request metrics from this.
    pub profile: Option<gc_vgpu::ProfileReport>,
}

impl ColoringResult {
    pub fn new(colors: Vec<u32>, iterations: u32, model_ms: f64, kernel_launches: u64) -> Self {
        let coloring = Coloring::new(colors);
        let num_colors = coloring.num_colors();
        ColoringResult {
            coloring,
            num_colors,
            iterations,
            model_ms,
            kernel_launches,
            profile: None,
        }
    }

    /// The result of a device run, read once it is done: the device's
    /// model clock, launch count and profile. Every device colorer resets
    /// its device at the start of its timed span, so these cover exactly
    /// that span.
    pub fn from_device(dev: &gc_vgpu::Device, colors: Vec<u32>, iterations: u32) -> Self {
        let profile = dev.profile();
        ColoringResult::new(colors, iterations, dev.elapsed_ms(), profile.launches)
            .with_profile(profile)
    }

    /// Attaches the device profile snapshot for the run.
    pub fn with_profile(mut self, profile: gc_vgpu::ProfileReport) -> Self {
        self.profile = Some(profile);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_colors_ignores_uncolored() {
        let c = Coloring::new(vec![1, 2, 0, 1]);
        assert_eq!(c.num_colors(), 2);
        assert!(c.has_uncolored());
    }

    #[test]
    fn color_classes_grouping() {
        let c = Coloring::new(vec![2, 1, 2, 1]);
        let classes = c.color_classes();
        assert_eq!(classes, vec![(1, vec![1, 3]), (2, vec![0, 2])]);
    }

    #[test]
    fn class_size_stats() {
        let c = Coloring::new(vec![1, 1, 1, 2]);
        let (min, max, mean) = c.class_size_stats();
        assert_eq!((min, max), (1, 3));
        assert!((mean - 2.0).abs() < 1e-12);
        assert_eq!(Coloring::new(vec![]).class_size_stats(), (0, 0, 0.0));
    }

    #[test]
    fn result_computes_num_colors() {
        let r = ColoringResult::new(vec![1, 3, 1], 4, 1.5, 10);
        assert_eq!(r.num_colors, 2);
        assert_eq!(r.iterations, 4);
    }

    #[test]
    fn clones_share_the_color_array() {
        let c = Coloring::new(vec![1, 2, 1]);
        let copy = c.clone();
        assert_eq!(copy.as_slice().as_ptr(), c.as_slice().as_ptr());
        assert_eq!(copy, c);
    }

    #[test]
    fn empty_coloring() {
        let c = Coloring::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.num_colors(), 0);
        assert!(!c.has_uncolored());
    }
}
