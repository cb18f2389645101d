//! Dependency-free SVG rendering for the reproduction's figures.
//!
//! The `primecache-sim::experiments` registry prints every figure as
//! text and, through this crate, renders Figs. 5–13 as standalone SVG
//! files under `figures/` (`pcache reproduce`), so the reproduction can
//! be compared with the paper's figures visually:
//!
//! * [`Svg`] — a minimal SVG document builder (rects, lines, polylines,
//!   text, with XML escaping),
//! * [`LineChart`] — multi-series line plots (Figs. 5/6),
//! * [`BarChart`] — grouped bar plots
//!   (Figs. 7–12 and the Fig. 13 histograms).
//!
//! # Examples
//!
//! ```
//! use primecache_viz::{LineChart, Series};
//!
//! let chart = LineChart::new("balance vs stride", "stride", "balance")
//!     .with_series(Series::new("pMod", vec![(1.0, 1.0), (2.0, 1.0)]));
//! let svg = chart.render(640, 400);
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("pMod"));
//! ```

mod chart;
mod svg;

pub use chart::{BarChart, BarGroup, LineChart, Series, PALETTE};
pub use svg::Svg;
