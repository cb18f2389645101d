//! Minimal SVG document builder.

use std::fmt::Write as _;

/// An SVG document under construction.
///
/// Coordinates are in user units; the document carries an explicit
/// `width`/`height` and a matching `viewBox`.
///
/// # Examples
///
/// ```
/// use primecache_viz::Svg;
///
/// let mut doc = Svg::new(100, 50);
/// doc.rect(10.0, 10.0, 30.0, 20.0, "#4477aa");
/// doc.text(5.0, 45.0, 12.0, "start", "hello & goodbye");
/// let s = doc.finish();
/// assert!(s.contains("&amp;"));
/// assert!(s.ends_with("</svg>\n"));
/// ```
#[derive(Debug)]
pub struct Svg {
    width: u32,
    height: u32,
    body: String,
}

/// Escapes XML-special characters in text content.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

impl Svg {
    /// Creates an empty document of the given pixel size.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            width,
            height,
            body: String::new(),
        }
    }

    /// Adds a filled rectangle.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str) {
        let _ = writeln!(
            self.body,
            r#"  <rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{}"/>"#,
            escape(fill)
        );
    }

    /// Adds a stroked line.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        let _ = writeln!(
            self.body,
            r#"  <line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{}" stroke-width="{width:.2}"/>"#,
            escape(stroke)
        );
    }

    /// Adds an unfilled polyline through the given points.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        if points.is_empty() {
            return;
        }
        let pts: Vec<String> = points
            .iter()
            .map(|(x, y)| format!("{x:.2},{y:.2}"))
            .collect();
        let _ = writeln!(
            self.body,
            r#"  <polyline points="{}" fill="none" stroke="{}" stroke-width="{width:.2}"/>"#,
            pts.join(" "),
            escape(stroke)
        );
    }

    /// Adds a text label. `anchor` is `start`, `middle`, or `end`.
    pub fn text(&mut self, x: f64, y: f64, size: f64, anchor: &str, content: &str) {
        let _ = writeln!(
            self.body,
            r#"  <text x="{x:.2}" y="{y:.2}" font-size="{size:.1}" font-family="sans-serif" text-anchor="{}">{}</text>"#,
            escape(anchor),
            escape(content)
        );
    }

    /// Adds a text label rotated 90° counter-clockwise around its anchor.
    pub fn vtext(&mut self, x: f64, y: f64, size: f64, content: &str) {
        let _ = writeln!(
            self.body,
            r#"  <text x="{x:.2}" y="{y:.2}" font-size="{size:.1}" font-family="sans-serif" text-anchor="middle" transform="rotate(-90 {x:.2} {y:.2})">{}</text>"#,
            escape(content)
        );
    }

    /// Document width in pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Finishes the document and returns the SVG text.
    #[must_use]
    pub fn finish(self) -> String {
        format!(
            concat!(
                r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" "#,
                r#"viewBox="0 0 {w} {h}">"#,
                "\n  <rect x=\"0\" y=\"0\" width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n",
                "{body}</svg>\n"
            ),
            w = self.width,
            h = self.height,
            body = self.body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_structure() {
        let mut d = Svg::new(200, 100);
        d.rect(0.0, 0.0, 10.0, 10.0, "red");
        d.line(0.0, 0.0, 5.0, 5.0, "black", 1.0);
        d.polyline(&[(0.0, 0.0), (1.0, 2.0)], "blue", 0.5);
        d.text(1.0, 1.0, 10.0, "middle", "label");
        let s = d.finish();
        assert!(s.starts_with("<svg"));
        assert!(s.ends_with("</svg>\n"));
        for tag in ["<rect", "<line", "<polyline", "<text"] {
            assert!(s.contains(tag), "{tag}");
        }
    }

    #[test]
    fn content_is_escaped() {
        let mut d = Svg::new(10, 10);
        d.text(0.0, 0.0, 8.0, "start", r#"<&">"#);
        let s = d.finish();
        assert!(s.contains("&lt;&amp;&quot;&gt;"));
        assert!(!s.contains(r#">"<"#));
    }

    #[test]
    fn empty_polyline_is_elided() {
        let mut d = Svg::new(10, 10);
        d.polyline(&[], "red", 1.0);
        assert!(!d.finish().contains("<polyline"));
    }

    #[test]
    fn balanced_tags() {
        let mut d = Svg::new(10, 10);
        for i in 0..5 {
            d.text(0.0, f64::from(i), 8.0, "start", "x");
        }
        let s = d.finish();
        assert_eq!(s.matches("<text").count(), s.matches("</text>").count());
        assert_eq!(s.matches("<svg").count(), 1);
    }
}
