//! Line and bar charts rendered to SVG.

use crate::Svg;

/// Default categorical palette (colour-blind-safe Okabe–Ito-ish).
pub const PALETTE: [&str; 6] = [
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9",
];

const MARGIN_L: f64 = 56.0;
const MARGIN_R: f64 = 12.0;
const MARGIN_T: f64 = 28.0;
const MARGIN_B: f64 = 44.0;

/// One named line-chart series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a named series.
    #[must_use]
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }
}

/// A multi-series line chart (used for Figs. 5 and 6).
///
/// # Examples
///
/// ```
/// use primecache_viz::{LineChart, Series};
///
/// let svg = LineChart::new("t", "x", "y")
///     .with_series(Series::new("a", vec![(0.0, 0.0), (1.0, 2.0)]))
///     .render(320, 200);
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Debug, Clone)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    y_cap: Option<f64>,
}

impl LineChart {
    /// Creates an empty chart with labels.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            y_cap: None,
        }
    }

    /// Adds a series.
    #[must_use]
    pub fn with_series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    /// Caps the y axis (the paper caps Fig. 5 at balance 10).
    #[must_use]
    pub fn with_y_cap(mut self, cap: f64) -> Self {
        self.y_cap = Some(cap);
        self
    }

    /// Renders to an SVG string of the given pixel size.
    #[must_use]
    pub fn render(&self, width: u32, height: u32) -> String {
        let mut doc = Svg::new(width, height);
        let (w, h) = (f64::from(width), f64::from(height));
        let plot_w = w - MARGIN_L - MARGIN_R;
        let plot_h = h - MARGIN_T - MARGIN_B;

        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .map(|(x, y)| (x, self.y_cap.map_or(y, |c| y.min(c))))
            .collect();
        let (x_min, x_max) = min_max(all.iter().map(|p| p.0));
        let (_, y_max) = min_max(all.iter().map(|p| p.1));
        let y_max = y_max.max(1e-9);
        let x_span = (x_max - x_min).max(1e-9);

        let sx = |x: f64| MARGIN_L + (x - x_min) / x_span * plot_w;
        let sy = |y: f64| MARGIN_T + plot_h - (y.min(y_max) / y_max) * plot_h;

        draw_frame(&mut doc, w, h, &self.title, &self.x_label, &self.y_label);
        // y ticks: 0, half, max.
        for frac in [0.0, 0.5, 1.0] {
            let val = y_max * frac;
            let y = sy(val);
            doc.line(MARGIN_L - 4.0, y, MARGIN_L, y, "#333333", 1.0);
            doc.text(MARGIN_L - 6.0, y + 3.0, 9.0, "end", &format!("{val:.1}"));
        }
        // x ticks: min, mid, max.
        for frac in [0.0, 0.5, 1.0] {
            let val = x_min + x_span * frac;
            let x = sx(val);
            doc.line(x, h - MARGIN_B, x, h - MARGIN_B + 4.0, "#333333", 1.0);
            doc.text(x, h - MARGIN_B + 14.0, 9.0, "middle", &format!("{val:.0}"));
        }
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let pts: Vec<(f64, f64)> = s
                .points
                .iter()
                .map(|&(x, y)| (sx(x), sy(self.y_cap.map_or(y, |c| y.min(c)))))
                .collect();
            doc.polyline(&pts, color, 1.2);
            // Legend entry.
            let lx = MARGIN_L + 8.0 + i as f64 * 90.0;
            doc.line(lx, MARGIN_T + 6.0, lx + 16.0, MARGIN_T + 6.0, color, 2.0);
            doc.text(lx + 20.0, MARGIN_T + 9.0, 9.0, "start", &s.name);
        }
        doc.finish()
    }
}

/// One group of bars (an application) in a [`BarChart`].
#[derive(Debug, Clone)]
pub struct BarGroup {
    label: String,
    /// One value per scheme.
    bars: Vec<f64>,
}

impl BarGroup {
    /// A group of bars, one value per scheme.
    #[must_use]
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            bars: values,
        }
    }
}

/// A grouped bar chart — Figs. 7–12.
///
/// # Examples
///
/// ```
/// use primecache_viz::{BarChart, BarGroup};
///
/// let svg = BarChart::new("misses", "normalized", &["Base", "pMod"])
///     .with_group(BarGroup::new("tree", vec![1.0, 0.04]))
///     .render(400, 240);
/// assert!(svg.contains("tree"));
/// ```
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    y_label: String,
    bar_names: Vec<String>,
    groups: Vec<BarGroup>,
    y_max_override: Option<f64>,
}

impl BarChart {
    /// Creates an empty chart; `bar_names` label the bars within each
    /// group (legend).
    #[must_use]
    pub fn new(title: impl Into<String>, y_label: impl Into<String>, bar_names: &[&str]) -> Self {
        Self {
            title: title.into(),
            y_label: y_label.into(),
            bar_names: bar_names.iter().map(|s| (*s).to_owned()).collect(),
            groups: Vec::new(),
            y_max_override: None,
        }
    }

    /// Fixes the y-axis maximum (for visually comparable chart pairs,
    /// e.g. Figs. 13a/13b).
    #[must_use]
    pub fn with_y_max(mut self, y_max: f64) -> Self {
        self.y_max_override = Some(y_max);
        self
    }

    /// Adds a group.
    #[must_use]
    pub fn with_group(mut self, g: BarGroup) -> Self {
        self.groups.push(g);
        self
    }

    /// Renders to an SVG string of the given pixel size.
    #[must_use]
    pub fn render(&self, width: u32, height: u32) -> String {
        let mut doc = Svg::new(width, height);
        let (w, h) = (f64::from(width), f64::from(height));
        let plot_w = w - MARGIN_L - MARGIN_R;
        let plot_h = h - MARGIN_T - MARGIN_B;
        let y_max = self
            .y_max_override
            .unwrap_or_else(|| {
                self.groups
                    .iter()
                    .flat_map(|g| g.bars.iter().copied())
                    .fold(0.0f64, f64::max)
            })
            .max(1e-9);

        draw_frame(&mut doc, w, h, &self.title, "", &self.y_label);
        for frac in [0.0, 0.5, 1.0] {
            let val = y_max * frac;
            let y = MARGIN_T + plot_h - frac * plot_h;
            doc.line(MARGIN_L - 4.0, y, MARGIN_L, y, "#333333", 1.0);
            doc.text(MARGIN_L - 6.0, y + 3.0, 9.0, "end", &format!("{val:.2}"));
        }
        // Reference line at 1.0 (the Base level) when it is in range.
        if y_max >= 1.0 {
            let y = MARGIN_T + plot_h - (1.0 / y_max) * plot_h;
            doc.line(MARGIN_L, y, w - MARGIN_R, y, "#999999", 0.6);
        }

        let n_groups = self.groups.len().max(1) as f64;
        let group_w = plot_w / n_groups;
        let bars_per = self
            .groups
            .iter()
            .map(|g| g.bars.len())
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let bar_w = (group_w * 0.8) / bars_per;
        for (gi, g) in self.groups.iter().enumerate() {
            let gx = MARGIN_L + gi as f64 * group_w + group_w * 0.1;
            for (bi, &v) in g.bars.iter().enumerate() {
                let x = gx + bi as f64 * bar_w;
                let bh = (v / y_max) * plot_h;
                let color = PALETTE[bi % PALETTE.len()];
                doc.rect(x, MARGIN_T + plot_h - bh, bar_w.max(1.0) - 1.0, bh, color);
            }
            doc.text(
                gx + group_w * 0.4,
                h - MARGIN_B + 14.0,
                9.0,
                "middle",
                &g.label,
            );
        }
        // Legend.
        for (i, name) in self.bar_names.iter().enumerate() {
            let lx = MARGIN_L + 8.0 + i as f64 * 90.0;
            doc.rect(lx, MARGIN_T + 2.0, 10.0, 8.0, PALETTE[i % PALETTE.len()]);
            doc.text(lx + 14.0, MARGIN_T + 9.0, 9.0, "start", name);
        }
        doc.finish()
    }
}

fn min_max(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in vals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

fn draw_frame(doc: &mut Svg, w: f64, h: f64, title: &str, x_label: &str, y_label: &str) {
    doc.text(w / 2.0, 16.0, 12.0, "middle", title);
    // Axes.
    doc.line(MARGIN_L, MARGIN_T, MARGIN_L, h - MARGIN_B, "#333333", 1.0);
    doc.line(
        MARGIN_L,
        h - MARGIN_B,
        w - MARGIN_R,
        h - MARGIN_B,
        "#333333",
        1.0,
    );
    if !x_label.is_empty() {
        doc.text(w / 2.0, h - 8.0, 10.0, "middle", x_label);
    }
    if !y_label.is_empty() {
        doc.vtext(14.0, h / 2.0, 10.0, y_label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_draws_every_series() {
        let svg = LineChart::new("t", "x", "y")
            .with_series(Series::new("alpha", vec![(0.0, 1.0), (10.0, 5.0)]))
            .with_series(Series::new("beta", vec![(0.0, 2.0), (10.0, 1.0)]))
            .render(400, 300);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("alpha") && svg.contains("beta"));
    }

    #[test]
    fn y_cap_limits_the_axis() {
        let capped = LineChart::new("t", "x", "y")
            .with_series(Series::new("s", vec![(0.0, 1.0), (1.0, 1000.0)]))
            .with_y_cap(10.0)
            .render(300, 200);
        // The top tick is the cap, not the raw max.
        assert!(capped.contains(">10.0<"), "{capped}");
    }

    #[test]
    fn bar_chart_draws_all_bars() {
        let svg = BarChart::new("t", "y", &["a", "b", "c"])
            .with_group(BarGroup::new("g1", vec![1.0, 0.5, 0.25]))
            .with_group(BarGroup::new("g2", vec![0.9, 0.8, 0.7]))
            .render(500, 300);
        // 6 bars + legend swatches (3) + background rect.
        assert_eq!(svg.matches("<rect").count(), 6 + 3 + 1);
        assert!(svg.contains("g1") && svg.contains("g2"));
    }

    #[test]
    fn shared_y_max_scales_bars_consistently() {
        let small = BarChart::new("t", "y", &["a"])
            .with_group(BarGroup::new("g", vec![1.0]))
            .with_y_max(10.0)
            .render(200, 150);
        let auto = BarChart::new("t", "y", &["a"])
            .with_group(BarGroup::new("g", vec![1.0]))
            .render(200, 150);
        // With the override the top tick reads 10, not 1.
        assert!(small.contains(">10.00<"), "{small}");
        assert!(auto.contains(">1.00<"));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let _ = LineChart::new("t", "x", "y").render(100, 80);
        let _ = BarChart::new("t", "y", &[]).render(100, 80);
        let _ = BarChart::new("t", "y", &["a"])
            .with_group(BarGroup::new("g", vec![0.0]))
            .render(100, 80);
    }
}
